#!/usr/bin/env python3
"""Run a workload once per seed and summarize each metric across the runs.

    python3 benchmarks/repeat.py --workload analyze-wide --seeds 1-10 --seconds 50

Runs `benchmarks/run.py` sequentially, one fresh process per seed, and
prints each metric's median, first and third quartile, and spread (the
distance between the quartiles as a share of the median, as
`statistics.quantiles(values, n=4)` gives them).  With `--out` the summary
is also written as JSON, keyed by workload, so that summaries of several
workloads can be collected into one file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"),
            "values": values}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="JSON file to add this summary to")
    args = p.parse_args(argv)

    values, units, info, failures = {}, {}, None, 0
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=BENCH.parent, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            failures += 1
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            continue
        result = json.loads(lines[-1])
        info = json.loads(lines[-2][len("info "):])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)

    if info is None or min(map(len, values.values())) < 2:
        print("error: fewer than two successful runs", file=sys.stderr)
        return 1
    summary = {name: dict(summarize(v), unit=units[name]) for name, v in values.items()}
    for name, s in summary.items():
        print(f"{args.workload} {name}: median {s['median']:.4g} {s['unit']} "
              f"[{s['q1']:.4g}, {s['q3']:.4g}] spread {s['spread']:.3f}")
    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        machine = {k: info[k] for k in ("nproc", "cpu", "python", "numpy", "commit")}
        doc[args.workload] = {"seeds": args.seeds, "seconds": args.seconds,
                              "trace": args.trace, "machine": machine,
                              "metrics": summary}
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
