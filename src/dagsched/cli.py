"""Command-line harness: generation, analysis, sweeps and model export.

Subcommands:
  generate    emit a random task set as JSON
  analyze     run the response-time test on a task-set file
  sweep       schedulability-ratio sweep over utilization or processor count
  dump-model  export the carry-out optimization model (LP or MPS text)
  simulate    run the discrete-event simulator and report response times

Sweeps derive one seed per task set from the master seed, so results do not
depend on evaluation order and repeated runs are identical (use
--zero-timing to blank the wall-clock column for byte-identical CSVs).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import carryout, rta, sim
from .dag import load_taskset, normalize_source_sink, save_taskset, taskset_to_dict
from .errors import (
    DagschedError, SolverLimitError, ValidationError, is_integer, is_number, require,
)
from .taskgen import DESK_SCALE, PAPER_SCALE, GenConfig, assign_priorities_dm, gen_taskset

CSV_HEADER = "point,method,ratio,n_sets,warnings,mean_ms"


def _load_config(cls, path):
    """`cls` from a `--config` JSON object; lists become tuples, except `points`."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValidationError("config", f"cannot read {path}: {exc}") from exc
    names = {f.name for f in fields(cls)}
    if not isinstance(doc, dict) or not doc.keys() <= names:
        raise ValidationError("config", f"{path} must hold a JSON object of {cls.__name__} "
                                        f"fields ({', '.join(sorted(names))})")
    return cls(**{key: tuple(value) if isinstance(value, list) and key != "points" else value
                  for key, value in doc.items()})


@dataclass
class ExperimentSpec:
    sweep: str = "util"                  # "util" | "procs"
    points: list = field(default_factory=lambda: [2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0])
    processors: int = 16                 # fixed m for util sweeps
    norm_util: float = 0.5               # U = norm_util * m for processor sweeps
    sets_per_point: int = 100
    methods: tuple = ("ilp", "melani")
    seed: int = 0
    edge_prob: float = 0.2
    n_range: tuple = (5, 10)
    wcet_range: tuple = (1, 100)
    beta: float = 0.1
    zero_timing: bool = False

    def __post_init__(self):
        if self.sweep not in ("util", "procs"):
            raise ValidationError("sweep", "sweep must be 'util' or 'procs'")
        require(isinstance(self.points, (list, tuple)) and all(map(is_number, self.points)),
                "points", "a list of numbers")
        if not self.points:
            raise ValidationError("sweep", "sweep grid must be non-empty")
        require(self.sweep == "util" or all(p % 1 == 0 for p in self.points),
                "points", "whole processor counts in a processor sweep")
        require(is_integer(self.processors), "processors", "an integer")
        require(is_number(self.norm_util), "norm_util", "a number")
        require(self.sweep == "procs" or not any(p > self.processors for p in self.points),
                "points", "utilizations no larger than processors (no other set is feasible)")
        require(self.sweep == "util" or not self.norm_util > 1, "norm_util", "at most 1")
        require(is_integer(self.sets_per_point), "sets_per_point", "an integer")
        if self.sets_per_point < 1:
            raise ValidationError("sweep", "need at least one task set per point")
        require(isinstance(self.methods, (list, tuple))
                and all(isinstance(m, str) and m in rta.METHODS for m in self.methods),
                "methods", f"a list of names from {', '.join(rta.METHODS)}")
        require(len(set(self.methods)) == len(self.methods), "methods", "distinct names")
        require(isinstance(self.zero_timing, bool), "zero_timing", "true or false")
        self.gen_config()  # checks the generator fields and the seed

    from_json = classmethod(_load_config)

    def gen_config(self):
        return GenConfig(edge_prob=self.edge_prob, n_range=self.n_range,
                         wcet_range=self.wcet_range, beta=self.beta, seed=self.seed)


def run_experiment(spec) -> list:
    """CSV lines (header first) with one row per (grid point, method)."""
    lines = [CSV_HEADER]
    cfg = spec.gen_config()
    for p_idx, point in enumerate(spec.points):
        m = spec.processors if spec.sweep == "util" else int(point)
        total_util = float(point) if spec.sweep == "util" else spec.norm_util * m
        results = {method: [] for method in spec.methods}
        warnings = {method: 0 for method in spec.methods}

        def doomed(task):
            # a seed bound past the deadline rejects the set under every
            # method and priority order, so the rest of it is never drawn
            return rta.seed_bound(task, m) > task.deadline

        for s_idx in range(spec.sets_per_point):
            rng = np.random.default_rng(
                np.random.SeedSequence((spec.seed, p_idx, s_idx)))
            ts = gen_taskset(total_util, m, cfg, rng, stop=doomed)
            if ts is None:
                for method in spec.methods:
                    results[method].append((0, 0.0))
                continue
            ts = assign_priorities_dm(ts)
            for method in spec.methods:
                t0 = time.perf_counter()
                try:
                    report = rta.schedulability_test(ts, method=method)
                except SolverLimitError:
                    warnings[method] += 1
                    continue
                results[method].append(
                    (1 if report.schedulable else 0, time.perf_counter() - t0))
        for method in spec.methods:
            rows = results[method]
            n = len(rows)
            ratio = sum(r for r, _ in rows) / n if n else 0.0
            mean_ms = (sum(t for _, t in rows) / n * 1000) if n else 0.0
            if spec.zero_timing:
                mean_ms = 0.0
            lines.append(f"{point},{method},{ratio:.6f},{n},{warnings[method]},{mean_ms:.3f}")
    return lines


def check_dominance(csv_lines) -> bool:
    """True iff the ilp ratio >= the melani ratio on every grid point."""
    ratios = {}
    for line in csv_lines[1:]:
        point, method, ratio, *_ = line.split(",")
        ratios.setdefault(point, {})[method] = float(ratio)
    return all("ilp" not in r or "melani" not in r or r["ilp"] >= r["melani"]
               for r in ratios.values())


# --------------------------------------------------------------------------

def _cmd_generate(args):
    if args.config:
        cfg = _load_config(GenConfig, args.config)
    else:
        cfg = GenConfig(edge_prob=args.edge_prob, n_range=tuple(args.n_range),
                        wcet_range=tuple(args.wcet_range), beta=args.beta,
                        seed=args.seed)
    ts = assign_priorities_dm(gen_taskset(args.util, args.procs, cfg))
    if args.out:
        save_taskset(ts, args.out)
    else:
        print(json.dumps(taskset_to_dict(ts), indent=1))
    return 0


def _cmd_analyze(args):
    ts = load_taskset(args.taskset)
    if args.procs < 0:
        raise ValidationError("processors", "--procs must be positive (0 keeps the file's count)")
    m = args.procs if args.procs else ts.processors
    report = rta.schedulability_test(ts, method=args.method, m=m)
    print(report.to_json())
    return 0 if report.schedulable else 1


def _cmd_sweep(args):
    if args.config:
        spec = ExperimentSpec.from_json(args.config)
    else:
        scale = PAPER_SCALE if args.paper_scale else DESK_SCALE
        n_range = tuple(args.n_range) if args.n_range else scale["n_range"]
        spec = ExperimentSpec(
            sweep=args.sweep, points=args.points, processors=args.procs,
            norm_util=args.norm_util,
            sets_per_point=args.sets if args.sets else (500 if args.paper_scale else 100),
            methods=tuple(args.methods.split(",")), seed=args.seed,
            edge_prob=args.edge_prob, n_range=n_range,
            wcet_range=tuple(args.wcet_range), beta=args.beta,
            zero_timing=args.zero_timing)
    lines = run_experiment(spec)
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.check_dominance and not check_dominance(lines):
        print("dominance check failed: a melani row beats its ilp row", file=sys.stderr)
        return 1
    return 0


def _cmd_dump_model(args):
    ts = load_taskset(args.taskset)
    if not 0 <= args.task_index < len(ts.tasks):
        raise ValidationError("task-index", f"task index {args.task_index} out of range")
    if args.delta < 0:
        raise ValidationError("delta", "delta must be non-negative")
    dag = normalize_source_sink(ts.tasks[args.task_index].dag)
    model = carryout.build_model(dag, args.delta, formulation=args.formulation)
    text = carryout.export_model(model, fmt=args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_simulate(args):
    ts = load_taskset(args.taskset)
    if not ts.tasks:
        raise ValidationError("tasks", "the task set is empty: nothing to simulate")
    require(args.seed >= 0, "--seed", "a non-negative integer")
    rng = np.random.default_rng(args.seed)
    horizon = args.horizon if args.horizon else 3 * max(t.period for t in ts.tasks)
    result = sim.simulate(ts, ts.processors, horizon,
                          release_policy=args.release, exec_policy=args.exec_policy,
                          rng=rng)
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            for seg in result.segments:
                fh.write(json.dumps(dict(zip(sim.SEGMENT_FIELDS, seg))) + "\n")
    worst = {}
    for t_idx, _, resp in result.response_times():
        worst[t_idx] = max(worst.get(t_idx, 0), resp)
    print(json.dumps({
        "jobs": len(result.jobs),
        "completed": sum(1 for j in result.jobs if j.completion is not None),
        "worst_response": {str(k): v for k, v in sorted(worst.items())},
    }, indent=1))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dagsched",
        description="Schedulability analysis for parallel DAG tasks under "
                    "global fixed-priority scheduling")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a random task set (JSON)")
    g.add_argument("--util", type=float, required=True, help="total utilization")
    g.add_argument("--procs", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--edge-prob", type=float, default=0.2)
    g.add_argument("--n-range", type=int, nargs=2, default=[5, 10], metavar=("LO", "HI"))
    g.add_argument("--wcet-range", type=int, nargs=2, default=[1, 100], metavar=("LO", "HI"))
    g.add_argument("--beta", type=float, default=0.1)
    g.add_argument("--config", help="JSON file with generator-config fields")
    g.add_argument("--out")
    g.set_defaults(func=_cmd_generate)

    a = sub.add_parser("analyze", help="response-time test on a task-set file")
    a.add_argument("taskset")
    a.add_argument("--method", choices=rta.METHODS, default="ilp")
    a.add_argument("--procs", type=int, default=0, help="override processor count")
    a.set_defaults(func=_cmd_analyze)

    s = sub.add_parser("sweep", help="schedulability-ratio sweep (CSV)")
    s.add_argument("--config", help="JSON file with ExperimentSpec fields")
    s.add_argument("--sweep", choices=("util", "procs"), default="util")
    s.add_argument("--points", type=float, nargs="+",
                   default=[2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0])
    s.add_argument("--procs", type=int, default=16)
    s.add_argument("--norm-util", type=float, default=0.5)
    s.add_argument("--sets", type=int, default=0, help="task sets per point")
    s.add_argument("--methods", default="ilp,melani")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--edge-prob", type=float, default=0.2)
    s.add_argument("--beta", type=float, default=0.1)
    s.add_argument("--n-range", type=int, nargs=2, metavar=("LO", "HI"),
                   help="override the subtask-count range")
    s.add_argument("--wcet-range", type=int, nargs=2, default=[1, 100],
                   metavar=("LO", "HI"))
    s.add_argument("--paper-scale", action="store_true",
                   help="n in [10,20] and 500 sets per point")
    s.add_argument("--zero-timing", action="store_true",
                   help="blank the mean_ms column (reproducible output)")
    s.add_argument("--check-dominance", action="store_true",
                   help="exit nonzero unless ilp >= melani on every row")
    s.add_argument("--out")
    s.set_defaults(func=_cmd_sweep)

    d = sub.add_parser("dump-model", help="export the carry-out model")
    d.add_argument("taskset")
    d.add_argument("--task-index", type=int, required=True)
    d.add_argument("--delta", type=int, required=True, help="carry-out window length")
    d.add_argument("--format", choices=("lp", "mps"), default="lp")
    d.add_argument("--formulation", choices=("edge-recursive", "path-enumerated"),
                   default="edge-recursive")
    d.add_argument("--out")
    d.set_defaults(func=_cmd_dump_model)

    r = sub.add_parser("simulate", help="discrete-event simulation")
    r.add_argument("taskset")
    r.add_argument("--horizon", type=int, default=0)
    r.add_argument("--release", choices=("periodic", "sporadic"), default="periodic")
    r.add_argument("--exec-policy", choices=("wcet", "random"), default="wcet")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--trace-out", help="write the trace as JSON lines")
    r.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DagschedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
