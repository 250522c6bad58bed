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
from functools import partial

from .dag import TaskSet
from .errors import ValidationError
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
    failed_at: int | None = None   # priority index that exceeded its deadline
    wall_time_s: float = 0.0

    @property
    def schedulable(self) -> bool:
        return self.failed_at is None

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


def schedulability_test(taskset, method="ilp", m=None) -> AnalysisReport:
    """Run the response-time test over a priority-ordered task set.

    Every seed is checked first; then each task's bound is iterated to its
    least fixed point in priority order, with the converged bounds of the
    higher-priority tasks as their interferers' response bounds.  The test
    aborts unschedulable as soon as any seed or iterate exceeds its
    deadline; the bounds not established by then are None ("not computed").
    The "ilp" workload tables live in one dict of this call, so tasks that
    share a DAG share them, and they are freed when the call returns.
    """
    if method not in METHODS:
        raise ValidationError("method", f"method must be one of {METHODS}, got {method!r}")
    workload = (melani_workload if method == "melani"
                else partial(interfering_workload, tables={}))
    if m is not None:  # an explicit count obeys the rule of `TaskSet.processors`
        taskset = TaskSet(taskset.tasks, m)
    m = taskset.processors
    t0 = time.perf_counter()
    tasks = taskset.tasks
    bounds = [seed_bound(t, m) for t in tasks]
    iterations = [0] * len(tasks)
    failed_at = next((k for k, t in enumerate(tasks) if bounds[k] > t.deadline), None)
    # the top-priority seed needs no interference term, so it stands even
    # when a later seed fails; the bounds from `established` on are None
    established = len(tasks) if failed_at is None else min(failed_at, 1)
    for k in range(1, established):
        task, r = tasks[k], bounds[k]
        while True:
            iterations[k] += 1
            total = sum(workload(tasks[i], r, bounds[i], m) for i in range(k))
            nxt = task.span + _ceil_div(task.work - task.span + total, m)
            if nxt == r or nxt > task.deadline:
                break
            assert nxt > r, "fixed-point iterate must be non-decreasing"
            r = nxt
        if nxt > task.deadline:
            failed_at = established = k
            break
        bounds[k] = r
    bounds[established:] = [None] * (len(tasks) - established)
    return AnalysisReport(method, m, bounds, iterations, failed_at,
                          wall_time_s=time.perf_counter() - t0)
