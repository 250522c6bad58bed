"""Interfering-workload bounds for a higher-priority DAG task.

For an analysis window of length delta, an interfering task contributes
whole jobs inside the window, a carry-in job (tail of a job released before
the window) and a carry-out job (head of a job released inside it).
Carry-in workload follows from the full-WCET unrestricted ASAP schedule of
one job; carry-out workload is bounded by the exact optimum from
`carryout`.  Both are tabulated, capped at min(work, m*len), once per DAG
and processor count m in the DAG's `DagProfile`, when a term first reads
them (past the span both are the cap).  The total bound
maximizes over the number of releases inside the window and, for each
count, over the carry-in/carry-out split of the window.  The baseline
`melani_workload` is computed in integers scaled by the processor count.
"""

from __future__ import annotations

import numpy as np

from .carryout import WorkCurve
from .errors import ValidationError

__all__ = ["DagProfile", "melani_workload", "interfering_workload"]


class DagProfile:
    """Per-DAG tables of the interfering-workload bound.

    Per processor count m, built when a workload term first reads it, a
    pair of int64 tables over window lengths d = 0..span: min(carry-in
    workload, m*d) and min(carry-out optimum, m*d).  Neither workload
    exceeds the work, so both are capped at min(work, m*d).  Every m shares
    the `WorkCurve`.  A `Dag` owns its profile (`Dag.profile`), so `tables`
    takes the DAG as an argument.  Concurrent first uses may build a pair
    twice; both are equal.
    """

    def __init__(self):
        self.curve = None
        self.pairs = {}

    def tables(self, dag, m):
        """The (carry-in, carry-out) table pair at m processors."""
        pair = self.pairs.get(m)
        if pair is None:
            if self.curve is None:
                self.curve = WorkCurve(dag)
            length = dag.span
            starts = np.array(dag.starts, dtype=np.int64)
            finishes = starts + np.array(dag.wcets, dtype=np.int64)
            try:
                # min(m, work) gives the same caps and keeps them in int64
                caps = min(m, dag.work) * np.arange(length + 1, dtype=np.int64)
                # from d-1 to d the carry-in workload rises by the number of
                # vertices whose [S, S+C) holds span-d: count, then sum twice
                slopes = (np.bincount(length - finishes + 1, minlength=length + 2)
                          - np.bincount(length - starts + 1, minlength=length + 2))
                carry_in = np.minimum(slopes.cumsum().cumsum()[:length + 1], caps)
                carry_out = np.minimum(self.curve.values(), caps)
            except (ValueError, MemoryError):  # numpy refuses span-sized tables
                raise ValidationError(
                    "span", f"span {length} is too long for the workload tables") from None
            pair = self.pairs[m] = (carry_in, carry_out)
        return pair


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


def _split_peak(dag, m, budget):
    """max carry-in + carry-out over window lengths summing to budget, read
    from the DAG's table pair at m; lengths past the span L take min(C, m*len)."""
    C, L = dag.work, dag.span
    if budget <= 0:
        return 0
    if budget > 2 * L:
        # beyond the span both bounds saturate at the work, so only the
        # concave cap line min(C, m*ci) + min(C, m*co) binds; its maximum
        # sits at the balanced split (inside [L, budget-L] here), and
        # sweeping either end below L never beats it (the workload values
        # stay below the cap line there); no table is read
        half = budget // 2
        return min(C, m * half) + min(C, m * (budget - half))
    ci_table, co_table = dag.profile.tables(dag, m)
    if budget <= L:
        return int((ci_table[:budget + 1] + co_table[budget::-1]).max())
    tail = np.minimum(min(m, C) * np.arange(L + 1, budget + 1, dtype=np.int64), C)
    ci_ext = np.concatenate((ci_table, tail))
    co_ext = np.concatenate((co_table, tail))
    return int((ci_ext + co_ext[::-1]).max())


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
    m * delta.  Each end term is one lookup in the profile's table pair of
    this m, with min(C, m*len) past the span, and `_split_peak` adds the
    pair over all splits of a budget in one slice sum.  Only the carry-in
    term at delta <= span, a carry-out head <= span and a split budget in
    (0, 2*span] read the pair, so an interferer whose terms read none never
    builds it.  The bound is non-decreasing in delta.
    """
    if delta <= 0:
        return 0
    dag, C, L, T = task.dag, task.work, task.span, task.period
    # no release inside the window at all
    best = int(dag.profile.tables(dag, m)[0][delta]) if delta <= L else min(C, m * delta)
    s = 1
    while True:
        head = delta - (s - 1) * T   # window left of the s-th release at worst
        base = (s - 1) * C
        if head <= 0 or base >= m * delta:
            break
        cand = base + (int(dag.profile.tables(dag, m)[1][head]) if head <= L
                       else min(C, m * head))
        budget = delta + r_i - s * T
        if budget > 0:
            cand = max(cand, base + _split_peak(dag, m, budget))
        best = max(best, cand)
        s += 1
    return min(best, m * delta)
