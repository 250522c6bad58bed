"""Interfering-workload bounds for a higher-priority DAG task.

For an analysis window of length delta, an interfering task contributes
whole jobs inside the window, a carry-in job (tail of a job released before
the window) and a carry-out job (head of a job released inside it).
Carry-in workload follows from the full-WCET unrestricted ASAP schedule of
one job; carry-out workload is bounded by the exact optimum from
`carryout`.  Both are tabulated once per DAG in its `DagProfile`.  The total
bound maximizes over the number of releases inside the window and, for
each count, over the carry-in/carry-out split of the window.  The baseline
`melani_workload` is computed in integers scaled by the processor count.
"""

from __future__ import annotations

import numpy as np

from .carryout import WorkCurve
from .errors import ValidationError

__all__ = ["DagProfile", "carry_in_workload", "melani_workload", "interfering_workload"]


class DagProfile:
    """Per-DAG tables of the interfering-workload bound.

    ``ci[d]`` is the carry-in workload of a window of length d = 0..span:
    per vertex max{C_k - max(L - S_k - d, 0), 0} with S_k the full-WCET ASAP
    start.  The `WorkCurve` and the carry-out table of each processor count
    are built on first use.  A `Dag` owns its profile (`Dag.profile`), so
    the profile keeps no reference back to it and the carry-out lookup takes
    the DAG as an argument.  Concurrent first uses may build a table twice;
    both builds are equal.
    """

    def __init__(self, dag):
        starts = np.array(dag.starts, dtype=np.int64)
        wcets = np.array(dag.wcets, dtype=np.int64)
        try:
            ci = np.arange(dag.span + 1, dtype=np.int64)[:, None]
            overhang = np.maximum(dag.span - starts[None, :] - ci, 0)
            self.ci = np.maximum(wcets[None, :] - overhang, 0).sum(axis=1)
        except (ValueError, MemoryError):  # numpy refuses span-sized tables
            raise ValidationError(
                "span", f"span {dag.span} is too long for the workload tables") from None
        self.curve = None
        self.co = {}

    def carry_out(self, dag, m):
        """min(carry-out optimum, m*len), capped at work, for lengths 0..span."""
        table = self.co.get(m)
        if table is None:
            if self.curve is None:
                self.curve = WorkCurve(dag)
            caps = m * np.arange(dag.span + 1, dtype=np.int64)
            table = np.minimum(np.minimum(self.curve.values(), caps), dag.work)
            self.co[m] = table
        return table


def carry_in_workload(task, ci_len) -> int:
    """Workload of the last ci_len time units of the full-WCET ASAP schedule;
    the whole job (work C) fits once ci_len >= span."""
    if ci_len < 0:
        raise ValueError("ci_len must be non-negative")
    if ci_len >= task.span:
        return task.work
    return int(task.dag.profile.ci[ci_len])


def melani_workload(task, delta, r_i, m) -> int:
    """Full-parallelism baseline bound: the interferer's jobs run perfectly
    parallel on all m processors.  The window delta + r_i - C/m is scaled by
    m, so floor(jobs*C + min(C, m*rem)) is exact in integers."""
    if delta < 0:
        return 0
    base = m * (delta + r_i) - task.work
    if base < 0:
        return 0
    jobs, rem = divmod(base, m * task.period)
    return jobs * task.work + min(task.work, rem)


def interfering_workload(task, delta, r_i, m) -> int:
    """Upper bound on the workload an interferer puts in a window of length
    delta, given its own response bound r_i.

    Maximizes over the number s of releases inside the window: s-1 jobs
    contribute their whole work, the last release contributes carry-out
    workload, and a job released before the window contributes carry-in
    workload; with both end jobs present their window lengths share a
    budget of delta + r_i - s*T.  The densest pattern (s = floor((delta -
    span + r_i)/T)) reproduces the body-count / window-split formula; the
    sparser terms cover placements where a job is exposed to (more of) the
    window alone, which can exceed the dense bound when the task is wider
    than the processor count.

    The carry-out bound is the exact optimum capped at m*co_len.  Every
    addend is capped at min(work, m * window-part) and the result at
    m * delta.  The bound is non-decreasing in delta.
    """
    if delta <= 0:
        return 0
    C, L, T = task.work, task.span, task.period
    ci_table = task.dag.profile.ci
    co_table = task.dag.profile.carry_out(task.dag, m)

    def ci_term(ci):
        w = int(ci_table[ci]) if ci <= L else C
        return min(w, C, m * ci)

    def co_term(co):
        return int(co_table[co]) if co <= L else min(C, m * co)

    def split_peak(budget):
        """max carry-in + carry-out over window lengths summing to budget."""
        if budget <= 0:
            return 0
        if budget > 2 * L:
            # beyond the span both bounds saturate at the work, so only the
            # concave cap line min(C, m*ci) + min(C, m*co) binds; its maximum
            # sits at the balanced split (inside [L, budget-L] here), and
            # sweeping either end below L never beats it (the workload values
            # stay below the cap line there)
            half = budget // 2
            return min(C, m * half) + min(C, m * (budget - half))
        cis = np.arange(0, budget + 1, dtype=np.int64)
        cos = budget - cis
        ci_vals = np.where(cis <= L, ci_table[np.minimum(cis, L)], C)
        ci_vals = np.minimum(ci_vals, m * cis)
        co_vals = np.where(cos <= L, co_table[np.minimum(cos, L)], C)
        co_vals = np.minimum(np.minimum(co_vals, C), m * cos)
        return int((ci_vals + co_vals).max())

    best = ci_term(delta)  # no release inside the window at all
    s = 1
    while True:
        head = delta - (s - 1) * T   # window left of the s-th release at worst
        base = (s - 1) * C
        if head <= 0 or base >= m * delta:
            break
        cand = base + co_term(head)
        budget = delta + r_i - s * T
        if budget > 0:
            cand = max(cand, base + split_peak(budget))
        best = max(best, cand)
        s += 1
    return min(best, m * delta)
