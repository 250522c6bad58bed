#!/usr/bin/env python3
"""Run one dagsched benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload sweep --seed 0 --seconds 50 --trace 0

Run from the repository root; the program is imported from `src/` of the
same checkout.  With `--trace 0` the run repeats passes over the workload's
input pool for about `--seconds` (at least three passes) and reports the
end-to-end metrics.  Times are speed-adjusted: before each item, and
between steps of the set-up, the run times a fixed pure-Python loop (the
probe), and a time is scaled by `PROBE_REF_S` over the median probe time
around it.  Load from other machines on a shared host slows the program for
minutes at a time, and the probe slows with it, so the adjusted times are
those the program would take at the host's undisturbed speed.  Each item's
latency is its median adjusted latency over the passes, and `items_per_s`
is the items of a pass over the sum of these latencies.  The raw wall-clock
figures go to the run's record in `out/`.
With `--trace 1` it runs two passes untraced and then the same pass with
every layer wrapped, and reports the per-layer metrics plus the tracing
overhead against the second untraced pass.
Either way every output goes through the workload's in-run checks, every
pass must reproduce the first, and at the golden seed the first pass must
match the digests pinned in `goldens.json`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0 when
the outputs are correct, 1 when a check or digest fails and 2 when the run
cannot start.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
MIN_PASSES = 3
SETUP_REPEATS = 3     # setup_s takes the median input build
SETUP_PROBES = 30     # probes after the import and after each input build
PROBE_DATA = [0.37 * i for i in range(2048)]   # about 64 KB with the floats
PROBE_REF_S = 60e-6   # about the fastest probe time seen on the 2-vCPU Xeon
                      # host that baseline.json was measured on
MAX_MESSAGES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="sweep, analyze-wide, analyze-many or simulate-audit")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def probe():
    """Time a fixed pure-Python loop over PROBE_DATA: how fast the machine
    runs the interpreter just now.  Its arithmetic and its reads from a
    small array slow under load about as much as the program does, and it
    creates no object that the garbage collector tracks, so the program's
    heap does not change its time."""
    data = PROBE_DATA
    t0 = perf_counter()
    s = 0.0
    for i in range(0, len(data), 3):
        s += data[i] * 1.0001 - data[i - 1] * 0.5
    return perf_counter() - t0


class Speed:
    """Probe samples; `scale` turns a time taken among them into the time
    at the reference speed."""

    def __init__(self):
        self.samples = []

    def sample(self):
        self.samples.append(probe())

    def since(self, mark):
        return sum(self.samples[mark:])

    def scale(self, mark=0):
        return PROBE_REF_S / statistics.median(self.samples[mark:])


def import_program():
    """Import dagsched from this checkout's src/; return the seconds taken."""
    src = ROOT / "src"
    if not (src / "dagsched" / "__init__.py").is_file():
        print(f"error: no dagsched package under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import dagsched.cli  # noqa: F401  (imports every layer)
    seconds = perf_counter() - t0

    if Path(dagsched.cli.__file__).resolve().parent.parent != src:
        print(f"error: dagsched imported from {dagsched.cli.__file__}, not {src}",
              file=sys.stderr)
        raise SystemExit(2)
    return seconds


def git_commit():
    """The checkout's commit; "unknown" outside a git checkout."""
    if not (ROOT / ".git").exists():   # git would look in the parent directories
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine_info(args):
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": git_commit()}


class Tally:
    """Items attempted and failed, latencies, and the first pass's outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies = {}       # (unit, item) -> adjusted latency of each pass
        self.first = []           # canonical outputs of the first pass
        self.messages = []

    def fail(self, items, message):
        self.failed += items
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(message)

    def digests(self, keys):
        return {k: hashlib.sha256("\n".join(
            "FAILED" if c is None else c[k] for c in self.first).encode()).hexdigest()
            for k in keys}

    def item_latencies(self):
        """Each item's median latency over the passes that completed it."""
        return [statistics.median(v) for v in self.latencies.values()]


def run_pass(work, pool, tally, tracer=None, speed=None):
    """Run and check every unit once; the first pass keeps its outputs and
    later passes must reproduce them.  With `speed`, probe before each item
    and scale this pass's latencies by the median probe of the pass."""
    from workloads import ItemFailure

    first = not tally.first
    between = speed.sample if speed is not None else (lambda: None)
    mark = len(speed.samples) if speed is not None else 0
    timed = []
    for k, unit in enumerate(pool):
        if tracer is not None:
            tracer.item = k
        items = work.items(unit)
        tally.attempted += items
        canon = None
        try:
            out, latencies = work.run(unit, between)
            failed = work.check(unit, out)
            canon = work.canonical(unit, out)
        except ItemFailure as exc:
            tally.fail(items, f"unit {k}: {exc}")
        except Exception as exc:  # an item that raises counts as failed
            tally.fail(items, f"unit {k}: {type(exc).__name__}: {exc}\n"
                              + traceback.format_exc(limit=3))
        else:
            tally.failed += failed
            timed.extend(((k, j), latency) for j, latency in enumerate(latencies))
        if first:
            tally.first.append(canon)
        elif canon is not None and canon != tally.first[k]:
            tally.fail(items, f"unit {k}: output differs from its first-pass output")
    scale = speed.scale(mark) if speed is not None and len(speed.samples) > mark else 1.0
    for key, latency in timed:
        tally.latencies.setdefault(key, []).append(latency * scale)
    return scale


def timed_passes(work, pool, seconds, speed):
    """At least MIN_PASSES passes, and more while the next one (taking as
    long as the last) still ends within `seconds`."""
    tally = Tally()
    pass_s, scales = [], []
    t0 = perf_counter()
    while len(pass_s) < MIN_PASSES or perf_counter() - t0 + pass_s[-1] <= seconds:
        start = perf_counter()
        scales.append(run_pass(work, pool, tally, speed=speed))
        pass_s.append(perf_counter() - start)
    return tally, pass_s, scales, perf_counter() - t0


def quantile_ms(latencies, q):
    if len(latencies) < 2:
        return 0.0
    return 1e3 * statistics.quantiles(latencies, n=100)[q - 1]


def main(argv=None):
    args = parse_args(argv)
    if not __debug__:
        print("error: run without -O; the trace audit uses assert", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    raw_import_s = import_program()
    speed = Speed()
    for _ in range(SETUP_PROBES):
        speed.sample()
    import_s = raw_import_s * speed.scale()

    from tracing import Tracer
    from workloads import WORKLOADS as REGISTRY

    work = REGISTRY.get(args.workload)
    if work is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(REGISTRY)}", file=sys.stderr)
        return 2
    info = machine_info(args)

    build_s, raw_build_s = [], []
    for _ in range(SETUP_REPEATS):
        pool = None             # so that peak_rss_mb sees one pool at a time
        mark = len(speed.samples)
        t0 = perf_counter()
        pool = work.make_pool(args.seed, speed.sample)
        raw_build_s.append(perf_counter() - t0 - speed.since(mark))
        for _ in range(SETUP_PROBES):
            speed.sample()
        build_s.append(raw_build_s[-1] * speed.scale(mark))
    setup_s = import_s + statistics.median(build_s)

    extra = {"import_s": import_s, "build_s": build_s,
             "raw_import_s": raw_import_s, "raw_build_s": raw_build_s}
    if args.trace:
        # the first pass is often the slowest; time the second one
        plain = Tally()
        run_pass(work, pool, plain)
        t0 = perf_counter()
        run_pass(work, pool, plain)
        plain_wall = perf_counter() - t0
        tracer = Tracer()
        tally = Tally()
        tracer.install()
        try:
            t0 = perf_counter()
            run_pass(work, pool, tally, tracer)
            wall = perf_counter() - t0
        finally:
            tracer.restore()
        for k, (a, b) in enumerate(zip(plain.first, tally.first)):
            if a is not None and b is not None and a != b:
                tally.fail(work.items(pool[k]),
                           f"unit {k}: traced output differs from untraced output")
        tally.attempted += plain.attempted
        tally.failed += plain.failed
        tally.messages += plain.messages
        metrics = tracer.metrics(wall - plain_wall)
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"{args.workload}-seed{args.seed}-spans.npz"
        tracer.write_spans(spans)
        extra.update(untraced_wall_s=plain_wall, traced_wall_s=wall,
                     spans=len(tracer.span_start), spans_file=str(spans.relative_to(ROOT)))
    else:
        tally, pass_s, scales, wall = timed_passes(work, pool, args.seconds, speed)
        lat = tally.item_latencies()
        metrics = {
            "items_per_s": {"value": len(lat) / sum(lat) if lat else 0.0, "unit": "1/s"},
            "item_ms_p50": {"value": quantile_ms(lat, 50), "unit": "ms"},
            "item_ms_p90": {"value": quantile_ms(lat, 90), "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
        extra.update(wall_s=wall, pass_s=pass_s, pass_scale=scales,
                     items_per_pass=len(lat),
                     raw_items_per_s=len(lat) * len(pass_s) / wall)

    keys = work.canonical_keys
    digests = tally.digests(keys)
    with open(BENCH / "goldens.json", encoding="utf-8") as fh:
        goldens = json.load(fh)
    golden_ok = None
    if args.seed == goldens["seed"]:
        golden_ok = digests == goldens["sha256"].get(args.workload)
        if not golden_ok:
            tally.messages.append(f"digest mismatch at seed {args.seed}: {digests}")
    correct = tally.failed == 0 and golden_ok is not False
    fail_frac = tally.failed / tally.attempted if tally.attempted else 1.0

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} fail_frac = {fail_frac:.6g} ({tally.failed}/{tally.attempted})")
    for message in tally.messages:
        print(f"{args.workload} failure: {message}", file=sys.stderr)
    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    record = dict(result, info=info, digests=digests, golden_match=golden_ok,
                  fail_frac=fail_frac, messages=tally.messages, **extra)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("info " + json.dumps({**info, "digests": digests, "golden_match": golden_ok}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
