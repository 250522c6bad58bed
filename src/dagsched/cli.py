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
from dataclasses import dataclass, field, fields

import numpy as np

from . import carryout, rta, sim
from .dag import load_taskset, normalize_source_sink, taskset_to_dict
from .errors import DagschedError, ValidationError, is_integer, is_number, require
from .taskgen import GenConfig, assign_priorities_dm, gen_taskset

CSV_HEADER = "point,method,ratio,n_sets,warnings,mean_ms"
PAPER_SCALE = {"n_range": (10, 20), "sets_per_point": 500}


def _settings(cls, args, base=()):
    """`cls` from `base`, then the `--config` JSON object, then the flags
    given (each later source wins); lists become tuples, except `points`."""
    names = {f.name for f in fields(cls)}
    values = dict(base)
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ValidationError("config", f"cannot read {args.config}: {exc}") from exc
        if not isinstance(doc, dict) or not doc.keys() <= names:
            raise ValidationError("config", f"{args.config} must hold a JSON object of "
                                            f"{cls.__name__} fields ({', '.join(sorted(names))})")
        values.update(doc)
    values.update((name, getattr(args, name)) for name in names
                  if getattr(args, name) is not None)
    return cls(**{key: tuple(value) if isinstance(value, list) and key != "points" else value
                  for key, value in values.items()})


@dataclass(frozen=True)
class ExperimentSpec(GenConfig):
    sweep: str = "util"                  # "util" | "procs"
    points: list = field(default_factory=lambda: [2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0])
    processors: int = 16                 # fixed m for util sweeps
    norm_util: float = 0.5               # U = norm_util * m for processor sweeps
    sets_per_point: int = 100
    methods: tuple = rta.METHODS
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
        super().__post_init__()  # the generator fields and the seed


def run_experiment(spec) -> list:
    """CSV lines (header first) with one row per (grid point, method)."""
    lines = [CSV_HEADER]
    n = spec.sets_per_point
    for p_idx, point in enumerate(spec.points):
        m = spec.processors if spec.sweep == "util" else int(point)
        total_util = float(point) if spec.sweep == "util" else spec.norm_util * m
        results = {method: [] for method in spec.methods}

        def doomed(task):
            # a seed bound past the deadline rejects the set under every
            # method and priority order, so the rest of it is never drawn
            return rta.seed_bound(task, m) > task.deadline

        for s_idx in range(n):
            # the generator default_rng builds from a SeedSequence, without its dispatch
            rng = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence((spec.seed, p_idx, s_idx))))
            ts = gen_taskset(total_util, m, spec, rng, stop=doomed)
            if ts is None:
                for method in spec.methods:
                    results[method].append((0, 0.0))
                continue
            ts = assign_priorities_dm(ts)
            for method in spec.methods:
                report = rta.schedulability_test(ts, method=method)
                results[method].append((1 if report.schedulable else 0, report.wall_time_s))
        for method in spec.methods:
            rows = results[method]
            ratio = sum(r for r, _ in rows) / n
            mean_ms = 0.0 if spec.zero_timing else sum(t for _, t in rows) / n * 1000
            # warnings is always 0 (the analysis calls no solver); the column
            # stays until the CSV schema changes
            lines.append(f"{point},{method},{ratio:.6f},{n},0,{mean_ms:.3f}")
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

def _write(text, path):
    """`text` to the file at `path`, or to stdout without one; a path that
    cannot be written is a ValidationError ("file")."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError("file", f"cannot write {path}: {exc}") from exc


def _cmd_generate(args):
    cfg = _settings(GenConfig, args)
    ts = assign_priorities_dm(gen_taskset(args.util, args.procs, cfg))
    _write(json.dumps(taskset_to_dict(ts), indent=1) + "\n", args.out)
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
    spec = _settings(ExperimentSpec, args, PAPER_SCALE if args.paper_scale else ())
    lines = run_experiment(spec)
    _write("\n".join(lines) + "\n", args.out)
    if args.check_dominance and not check_dominance(lines):
        print("dominance check failed: a melani row beats its ilp row", file=sys.stderr)
        return 1
    return 0


def _cmd_dump_model(args):
    ts = load_taskset(args.taskset)
    if not 0 <= args.task_index < len(ts.tasks):
        raise ValidationError("task-index", f"task index {args.task_index} out of range")
    dag = normalize_source_sink(ts.tasks[args.task_index].dag)
    model = carryout.build_model(dag, args.delta, formulation=args.formulation)
    _write(carryout.export_model(model, fmt=args.format), args.out)
    return 0


def _cmd_simulate(args):
    ts = load_taskset(args.taskset)
    require(args.seed >= 0, "--seed", "a non-negative integer")
    rng = np.random.default_rng(args.seed)
    horizon = args.horizon if args.horizon else 3 * max((t.period for t in ts.tasks), default=0)
    result = sim.simulate(ts, ts.processors, horizon,
                          release_policy=args.release, exec_policy=args.exec_policy,
                          rng=rng)
    if args.trace_out:
        _write("".join(json.dumps(dict(zip(sim.SEGMENT_FIELDS, seg))) + "\n"
                       for seg in result.segments), args.trace_out)
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

    def shared_flags(p, cls):
        # no flag has a default: a flag left out keeps the config's or the
        # dataclass's value (see _settings)
        p.add_argument("--config", help=f"JSON object of {cls.__name__} fields "
                                        "(the flags given override it)")
        p.add_argument("--seed", type=int)
        p.add_argument("--edge-prob", type=float)
        p.add_argument("--n-range", type=int, nargs=2, metavar=("LO", "HI"))
        p.add_argument("--wcet-range", type=int, nargs=2, metavar=("LO", "HI"))
        p.add_argument("--beta", type=float)
        p.add_argument("--out")

    g = sub.add_parser("generate", help="generate a random task set (JSON)")
    g.add_argument("--util", type=float, required=True, help="total utilization")
    g.add_argument("--procs", type=int, required=True)
    shared_flags(g, GenConfig)
    g.set_defaults(func=_cmd_generate)

    a = sub.add_parser("analyze", help="response-time test on a task-set file")
    a.add_argument("taskset")
    a.add_argument("--method", choices=rta.METHODS, default="ilp")
    a.add_argument("--procs", type=int, default=0, help="override processor count")
    a.set_defaults(func=_cmd_analyze)

    s = sub.add_parser("sweep", help="schedulability-ratio sweep (CSV)")
    shared_flags(s, ExperimentSpec)
    s.add_argument("--sweep", choices=("util", "procs"))
    s.add_argument("--points", type=float, nargs="+")
    s.add_argument("--procs", type=int, dest="processors", metavar="M")
    s.add_argument("--norm-util", type=float)
    s.add_argument("--sets", type=int, dest="sets_per_point", metavar="N",
                   help="task sets per point")
    s.add_argument("--methods", type=lambda text: text.split(","))
    s.add_argument("--paper-scale", action="store_true",
                   help=f"start from {PAPER_SCALE} instead of the desk-scale defaults")
    s.add_argument("--zero-timing", action="store_true", default=None,
                   help="blank the mean_ms column (reproducible output)")
    s.add_argument("--check-dominance", action="store_true",
                   help="exit nonzero unless ilp >= melani on every row")
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
