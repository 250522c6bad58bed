"""Interfering-workload bounds for a higher-priority DAG task.

For an analysis window of length delta, an interfering task contributes
whole jobs inside the window, a carry-in job (tail of a job released before
the window) and a carry-out job (head of a job released inside it).
Carry-in workload follows from the full-WCET unrestricted ASAP schedule of
one job; carry-out workload is bounded by the exact optimum from
`carryout`.  Both are tabulated over window lengths 0..span, capped at
min(work, m*len), by `_tables` (past the span both are the cap).  The
tables live in a dict that the caller passes to `interfering_workload`:
`rta.schedulability_test` owns one per analysis, so the tables are built
once per DAG and m when a term of that analysis first reads them, and are
freed when it returns.  The total bound maximizes over the number of
releases inside the window and, for each count, over the carry-in/carry-out
split of the window.  The baseline `melani_workload` is computed in
integers scaled by the processor count.
"""

from __future__ import annotations

import numpy as np

from .carryout import WorkCurve, _ramp_sum
from .errors import ValidationError

__all__ = ["melani_workload", "interfering_workload"]


def _tables(dag, m):
    """A new (carry-in, carry-out) pair of int64 tables over window lengths
    d = 0..span at m processors: min(carry-in workload, m*d) and
    min(carry-out optimum, m*d).  Neither workload exceeds the work, so
    both are capped at min(work, m*d).
    """
    length = dag.span
    curve = WorkCurve(dag)
    wcets = np.array(dag.wcets, dtype=np.int64)
    finishes = np.array(dag.starts, dtype=np.int64) + wcets
    try:
        # min(m, work) gives the same caps and keeps them in int64
        caps = min(m, dag.work) * np.arange(length + 1, dtype=np.int64)
        # a vertex finishing at F puts min(C, max(0, d - (span - F))) of
        # its work in the last d units of the full-WCET ASAP schedule
        carry_in = np.minimum(_ramp_sum(length - finishes, wcets, length + 1), caps)
        carry_out = np.minimum(curve.values(), caps)
    except (ValueError, MemoryError):  # numpy refuses span-sized tables
        raise ValidationError(
            "span", f"span {length} is too long for the workload tables") from None
    return carry_in, carry_out


def _pair(tables, dag, m):
    """The DAG's `_tables` pair at m, kept in `tables` under (id(dag), m)
    from its first read on.  Tasks sharing a DAG share the pair, and each
    entry holds its DAG, so no key outlives the DAG whose id it is."""
    entry = tables.get((id(dag), m))
    if entry is None:
        entry = tables[id(dag), m] = (*_tables(dag, m), dag)
    return entry


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


def _split_peak(dag, m, budget, tables):
    """max carry-in + carry-out over window lengths summing to budget, read
    from the DAG's table pair at m in `tables`; lengths past the span L
    take min(C, m*len)."""
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
    ci_table, co_table, _ = _pair(tables, dag, m)
    if budget <= L:
        return int((ci_table[:budget + 1] + co_table[budget::-1]).max())
    tail = np.minimum(min(m, C) * np.arange(L + 1, budget + 1, dtype=np.int64), C)
    ci_ext = np.concatenate((ci_table, tail))
    co_ext = np.concatenate((co_table, tail))
    return int((ci_ext + co_ext[::-1]).max())


def interfering_workload(task, delta, r_i, m, tables=None) -> int:
    """Upper bound on the workload an interferer puts in a window of length
    delta, given its own response bound r_i.  `tables` is the dict in which
    the DAG's table pair at m is kept between calls (see `_pair`); without
    one, the call builds the pair only if a term reads it, and drops it.

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
    m * delta.  Each end term is one lookup in the `_tables` pair of this
    m, with min(C, m*len) past the span, and `_split_peak` adds the
    pair over all splits of a budget in one slice sum.  Only the carry-in
    term at delta <= span, a carry-out head <= span and a split budget in
    (0, 2*span] read the pair, so an interferer whose terms read none never
    builds it.  The bound is non-decreasing in delta.
    """
    if delta <= 0:
        return 0
    dag, C, L, T = task.dag, task.work, task.span, task.period
    if tables is None:
        tables = {}
    # no release inside the window at all
    best = int(_pair(tables, dag, m)[0][delta]) if delta <= L else min(C, m * delta)
    s = 1
    while True:
        head = delta - (s - 1) * T   # window left of the s-th release at worst
        base = (s - 1) * C
        if head <= 0 or base >= m * delta:
            break
        cand = base + (int(_pair(tables, dag, m)[1][head]) if head <= L
                       else min(C, m * head))
        budget = delta + r_i - s * T
        if budget > 0:
            cand = max(cand, base + _split_peak(dag, m, budget, tables))
        best = max(best, cand)
        s += 1
    return min(best, m * delta)
