"""The four benchmark workloads: input generation, the timed unit, checks.

Every input is a pure function of the benchmark seed; the program only sees
the generated inputs.  A workload builds a pool of *units* from the seed.
A unit is what one timed call into the program processes: one item
(analyze, simulate) or a whole sweep of items (sweep).  A pass runs every
unit of the pool once, and every pass does the same work, so the golden
digests, the traced run and the per-item latencies across passes all refer
to the same outputs.

The program is always called through its module attributes
(`rta.schedulability_test`, not a local alias), so that the tracer's
wrappers see every call.

`make_pool` and `run` take a `between` callback that they call between
steps, outside the timed intervals: before each generated set in setup and
before each item in a pass.  The runner uses it to sample the machine's
speed (see `run.probe`).
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

from dagsched import cli, dag, rta, sim, taskgen

M_ANALYZE = 16
M_SIM = 4


def _rng(*key):
    return np.random.default_rng(np.random.SeedSequence(key))


def _nothing():
    pass


class ItemFailure(Exception):
    """An in-run check failed; the unit's items count as failed."""


# --------------------------------------------------------------------------
# sweep: the paper's schedulability-ratio experiment through the CLI loop

SWEEP_POINTS = (2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0)
SWEEP_SETS_PER_POINT = 150
SWEEP_N_RANGE = (10, 20)


def sweep_spec(seed, sets_per_point=SWEEP_SETS_PER_POINT):
    """`dagsched sweep`'s util grid at m=16 with both methods, zero timing
    and paper-scale DAG sizes; the sweep's master seed derives from seed."""
    spec_seed = int(np.random.SeedSequence((seed, 1)).generate_state(1)[0])
    return cli.ExperimentSpec(
        sweep="util", points=list(SWEEP_POINTS), processors=16,
        sets_per_point=sets_per_point, methods=("ilp", "melani"),
        seed=spec_seed, n_range=SWEEP_N_RANGE, zero_timing=True)


def sweep_argv(spec):
    """The `dagsched sweep` arguments that produce the same CSV as `spec`."""
    return ["sweep", "--sweep", spec.sweep, "--points", *map(str, spec.points),
            "--procs", str(spec.processors), "--sets", str(spec.sets_per_point),
            "--methods", ",".join(spec.methods), "--seed", str(spec.seed),
            "--n-range", *map(str, spec.n_range), "--zero-timing"]


class Sweep:
    name = "sweep"
    canonical_keys = ("csv",)

    def make_pool(self, seed, between=_nothing):
        return [sweep_spec(seed)]

    def items(self, spec):
        return len(spec.points) * spec.sets_per_point

    def run(self, spec, between=_nothing):
        """One run_experiment call.  A set's latency runs from the time stamp
        taken as the loop starts generating it to the stamp taken as the loop
        starts generating the next set, or to the end; `between` runs
        between the two stamps."""
        starts, ends = [], []
        gen = cli.gen_taskset

        def stamped(*args, **kwargs):
            ends.append(perf_counter())
            between()
            starts.append(perf_counter())
            return gen(*args, **kwargs)

        cli.gen_taskset = stamped
        try:
            lines = cli.run_experiment(spec)
        finally:
            cli.gen_taskset = gen
        ends.append(perf_counter())
        latencies = [b - a for a, b in zip(starts, ends[1:])]
        return lines, latencies

    def check(self, spec, lines):
        if not cli.check_dominance(lines):
            raise ItemFailure("check_dominance failed: a melani row beats its ilp row")
        failed = 0
        for line in lines[1:]:
            _, _, _, n_sets, warnings, _ = line.split(",")
            if int(n_sets) + int(warnings) != spec.sets_per_point:
                raise ItemFailure(f"row does not account for every set: {line}")
            failed += int(warnings)
        return failed

    def canonical(self, spec, lines):
        return {"csv": "\n".join(lines) + "\n"}


# --------------------------------------------------------------------------
# analyze-wide / analyze-many: `dagsched analyze` with both methods

def _verdict_line(report):
    d = report.to_dict()
    return f'{d["verdict"]} {d["bounds"]}'


class _Analyze:
    canonical_keys = ("ilp", "melani")

    def items(self, doc):
        return 1

    def run(self, doc, between=_nothing):
        between()
        t0 = perf_counter()
        ts = dag.taskset_from_dict(doc)
        reports = (rta.schedulability_test(ts, method="ilp"),
                   rta.schedulability_test(ts, method="melani"))
        return reports, [perf_counter() - t0]

    def check(self, doc, reports):
        """ilp <= melani task by task wherever melani established a bound."""
        ilp, melani = reports
        for k, (a, b) in enumerate(zip(ilp.bounds, melani.bounds)):
            if b is not None and (a is None or a > b):
                raise ItemFailure(f"task {k}: ilp bound {a} above melani bound {b}")
        if melani.schedulable and not ilp.schedulable:
            raise ItemFailure("melani accepts a set that ilp rejects")
        return 0

    def canonical(self, doc, reports):
        return {"ilp": _verdict_line(reports[0]), "melani": _verdict_line(reports[1])}


class AnalyzeWide(_Analyze):
    """Large DAGs (n in [30, 60]) from `gen_taskset` at U=4, m=16.  Sets that
    a seed bound already rejects are left out in setup: they return before
    any workload query, and at about half the sets they would make the
    latency distribution bimodal, with its median between the two modes."""

    name = "analyze-wide"
    pool_size = 300
    config = taskgen.GenConfig(n_range=(30, 60))

    def make_pool(self, seed, between=_nothing):
        pool, j = [], 0
        while len(pool) < self.pool_size:
            between()
            rng = _rng(seed, 2, j)
            j += 1
            ts = taskgen.assign_priorities_dm(
                taskgen.gen_taskset(4.0, M_ANALYZE, self.config, rng))
            if all(rta.seed_bound(t, M_ANALYZE) <= t.deadline for t in ts.tasks):
                pool.append(dag.taskset_to_dict(ts))
        return pool


def uunifast(rng, n, total):
    """n utilizations summing to total, uniform over the simplex (UUniFast)."""
    utils, rest = [], total
    for k in range(1, n):
        nxt = rest * rng.random() ** (1.0 / (n - k))
        utils.append(rest - nxt)
        rest = nxt
    utils.append(rest)
    return utils


class AnalyzeMany(_Analyze):
    """30 small tasks (n in [5, 10]) per set at U=4, m=16.  `gen_taskset`
    cannot make low-utilization many-task sets, so the benchmark draws
    UUniFast utilizations, sets T = max(span, ceil(C/u)) and D uniform in
    [span, T], and assigns deadline-monotonic priorities."""

    name = "analyze-many"
    pool_size = 100
    tasks_per_set = 30
    config = taskgen.GenConfig(n_range=(5, 10))

    def make_pool(self, seed, between=_nothing):
        pool = []
        for j in range(self.pool_size):
            between()
            rng = _rng(seed, 3, j)
            tasks = []
            for u in uunifast(rng, self.tasks_per_set, 4.0):
                g = taskgen.gen_dag(self.config, rng)
                c, length = dag.work(g), dag.span(g)
                period = max(length, math.ceil(c / u))
                deadline = int(rng.integers(length, period + 1))
                tasks.append(dag.DagTask(g, deadline, period))
            ts = taskgen.assign_priorities_dm(dag.TaskSet(tasks, M_ANALYZE))
            pool.append(dag.taskset_to_dict(ts))
        return pool


# --------------------------------------------------------------------------
# simulate-audit: the validation path, simulator plus trace audit

class SimulateAudit:
    """Desk-size sets (n in [5, 10], m=4, U=1.5) that `ilp` accepts, with
    their bounds.  Sets whose periodic releases over the horizon exceed
    `max_jobs` jobs are left out in setup: the audit is quadratic in the
    trace, and one such set (up to 10^3 jobs at this size) takes longer
    than the rest of a run together."""

    name = "simulate-audit"
    canonical_keys = ("worst_response",)
    pool_size = 900
    max_jobs = 50
    config = taskgen.GenConfig(n_range=(5, 10))

    def make_pool(self, seed, between=_nothing):
        pool, j = [], 0
        while len(pool) < self.pool_size:
            between()
            rng = _rng(seed, 4, j)
            j += 1
            ts = taskgen.assign_priorities_dm(
                taskgen.gen_taskset(1.5, M_SIM, self.config, rng))
            horizon = 3 * max(t.period for t in ts.tasks)
            if sum(-(-horizon // t.period) for t in ts.tasks) > self.max_jobs:
                continue
            report = rta.schedulability_test(ts, method="ilp")
            if report.schedulable:
                pool.append((ts, tuple(report.bounds), horizon, (seed, 5, j)))
        return pool

    def items(self, unit):
        return 1

    def run(self, unit, between=_nothing):
        ts, _, horizon, key = unit
        rng = _rng(*key)
        between()
        t0 = perf_counter()
        result = sim.simulate(ts, M_SIM, horizon, release_policy="sporadic",
                              exec_policy="random", rng=rng)
        sim.audit_trace(result)
        lowest = len(ts.tasks) - 1
        for job in result.jobs:
            if job.task_index == lowest and job.completion is not None:
                chain = sim.extract_critical_chain(result, job)
                sim.interference_by_task(result, job, chain)
        return result, [perf_counter() - t0]

    def check(self, unit, result):
        bounds = unit[1]
        for task_index, job_index, resp in result.response_times():
            if resp > bounds[task_index]:
                raise ItemFailure(f"task {task_index} job {job_index}: response "
                                  f"{resp} above its ilp bound {bounds[task_index]}")
        return 0

    def canonical(self, unit, result):
        worst = [None] * len(unit[0].tasks)
        for task_index, _, resp in result.response_times():
            worst[task_index] = max(worst[task_index] or 0, resp)
        return {"worst_response": str(worst)}


WORKLOADS = {w.name: w for w in (Sweep(), AnalyzeWide(), AnalyzeMany(), SimulateAudit())}
