"""Response-time analysis for global fixed-priority DAG scheduling.

Per task (in priority order) the response bound is the least fixed point of

    R = span + ceil((work - span + sum of interfering workloads W_i(R)) / m)

seeded at span + ceil((work - span)/m); the task set is schedulable iff
every bound stays within its deadline.  Two workload models are supported:
"ilp" uses the DAG-aware carry-in/carry-out bounds, "melani" the
full-parallelism baseline.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from .workload import interfering_workload, melani_workload

METHODS = ("ilp", "melani")


def _ceil_div(a, b):
    return -(-a // b)


def seed_bound(task, m) -> int:
    """Interference-free bound: span + ceil((work - span)/m)."""
    return task.span + _ceil_div(task.work - task.span, m)


@dataclass
class AnalysisReport:
    method: str
    processors: int
    bounds: list          # per task: int, or None when no bound was established
    iterations: list      # fixed-point iterations per task
    schedulable: bool
    failed_at: int | None = None   # priority index that exceeded its deadline
    wall_time_s: float = 0.0

    @property
    def verdict(self) -> str:
        return "schedulable" if self.schedulable else "unschedulable"

    def to_dict(self) -> dict:
        bounds = []
        for k, b in enumerate(self.bounds):
            if b is not None:
                bounds.append(b)
            else:
                bounds.append("exceeded" if k == self.failed_at else "not-computed")
        return {
            "method": self.method,
            "processors": self.processors,
            "verdict": self.verdict,
            "bounds": bounds,
            "iterations": self.iterations,
            "wall_time_s": round(self.wall_time_s, 6),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1)


def response_time_bound(k, taskset, m, workload_fn):
    """Least fixed point for task k, or (None, iterations) once it passes D_k.

    workload_fn(i, delta) returns the interfering workload of task i, using
    converged bounds for every higher-priority task.
    """
    task = taskset.tasks[k]
    seed = seed_bound(task, m)
    r = seed
    iterations = 0
    if r > task.deadline:
        return None, iterations
    while True:
        iterations += 1
        total = sum(workload_fn(i, r) for i in range(k))
        nxt = task.span + _ceil_div(task.work - task.span + total, m)
        if nxt == r:
            return r, iterations
        if nxt > task.deadline:
            return None, iterations
        assert nxt > r, "fixed-point iterate must be non-decreasing"
        r = nxt


def schedulability_test(taskset, method="ilp", m=None) -> AnalysisReport:
    """Run the response-time test over a priority-ordered task set.

    Bounds are computed in priority order; the test aborts unschedulable as
    soon as any seed or converged bound exceeds its deadline; the bounds
    not established by then are None ("not computed").
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    if m is None:
        m = taskset.processors
    t0 = time.perf_counter()
    n = len(taskset.tasks)
    bounds = [seed_bound(t, m) for t in taskset.tasks]
    iterations = [0] * n

    def abort(failed_at, established):
        # only the first `established` entries are converged bounds
        for j in range(established, n):
            bounds[j] = None
        return AnalysisReport(method, m, bounds, iterations, False, failed_at,
                              wall_time_s=time.perf_counter() - t0)

    for k, task in enumerate(taskset.tasks):
        if bounds[k] > task.deadline:
            # the top-priority seed needs no interference term, so it is a
            # valid bound even when a later task fails initialization
            return abort(k, established=min(k, 1))

    def workload_fn(i, delta):
        interferer = taskset.tasks[i]
        # only tasks already shown schedulable interfere during the analysis
        if bounds[i] > interferer.deadline:
            raise ValueError(
                f"interferer response bound {bounds[i]} exceeds "
                f"deadline {interferer.deadline}")
        if method == "melani":
            return melani_workload(interferer, delta, bounds[i], m)
        return interfering_workload(interferer, delta, bounds[i], m)

    for k in range(1, n):
        bound, iters = response_time_bound(k, taskset, m, workload_fn)
        iterations[k] = iters
        if bound is None:
            return abort(k, established=k)
        bounds[k] = bound

    return AnalysisReport(method, m, bounds, iterations, True,
                          wall_time_s=time.perf_counter() - t0)
