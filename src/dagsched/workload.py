"""Interfering-workload bounds for a higher-priority DAG task.

For an analysis window of length delta, an interfering task contributes
whole jobs inside the window, a carry-in job (tail of a job released before
the window) and a carry-out job (head of a job released inside it).
Carry-in workload follows from the full-WCET unrestricted ASAP schedule of
one job; carry-out workload is bounded by the exact optimum from
`carryout`.  Both are sums of ramps, one per vertex (its ASAP finish sets
where it starts) and one per work-curve penalty drop, so `_tables`
tabulates both over window lengths 0..span in one `carryout._ramp_sums`
pass, as the two rows of one int64 array, and caps them at min(work,
m*len) at once (past the span both are the cap).  The tables live in a
dict that the caller passes to `interfering_workload`:
`rta.schedulability_test` owns one per analysis, so the tables are built
once per DAG and m when a term of that analysis first reads them, and are
freed when it returns.  The total bound is the largest of three closed-form
terms: the densest release pattern with its carry-out head, the same
pattern with a carry-in/carry-out split of the window, and the pattern one
release sparser with its split (every sparser pattern is dominated, see
`interfering_workload`).  The split lemma at `_split_peak` confines each
split's search to lengths within the span, so a bound costs the same
however many interferer periods its window spans.  The baseline
`melani_workload` is computed in integers scaled by the processor count.
"""

from __future__ import annotations

import numpy as np

from .carryout import WorkCurve, _ramp_sums
from .errors import ValidationError

__all__ = ["melani_workload", "interfering_workload"]


def _tables(dag, m):
    """A new int64 array whose two rows are the carry-in and carry-out
    tables over window lengths d = 0..span at m processors: min(carry-in
    workload, m*d) and min(carry-out optimum, m*d).  Neither workload
    exceeds the work, so one `np.minimum` caps the one `_ramp_sums` pass
    that tabulates both at min(work, m*d).
    """
    length, starts = dag.span, dag.starts
    # a vertex starting at S and finishing at F puts min(C, max(0, d - (span
    # - F))) of its work in the last d units of the full-WCET ASAP schedule:
    # a ramp from span - F to span - S
    carry_in = ([length - s - c for s, c in zip(starts, dag.wcets)],
                [length - s for s in starts])
    curve = WorkCurve(dag)
    try:
        # min(m, work) gives the same caps and keeps them in int64
        caps = min(m, dag.work) * np.arange(length + 1, dtype=np.int64)
        tables = _ramp_sums([carry_in, curve.ramps()], length + 1)
    except (ValueError, MemoryError):  # numpy refuses span-sized tables
        raise ValidationError(
            "span", f"span {length} is too long for the workload tables") from None
    return np.minimum(tables, caps, out=tables)


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
    """max carry-in + carry-out over window lengths summing to a positive
    budget, read from the DAG's table pair at m in `tables`.

    Split lemma.  Extend both capped tables past the span L by min(C,
    m*len): h the carry-out table, f the carry-in table.
    (i) h is concave: the optimum is the minimum of the lines phi*d +
        penalty(phi) (`carryout.WorkCurve`), which past L is C, and h is
        its minimum with the line m*d.
    (ii) f <= h: the last d units of the full-WCET ASAP schedule, reversed
        in time, are a schedule of the reversed DAG inside [0, d), and the
        optimum does not change when every edge is reversed; past L, and at
        L itself, both are min(C, m*len).
    For a split (a, b) of the budget B, f(a) + h(b) <= h(a) + h(b), and
    concavity lets any pair (x, B - x) between a and b do at least as well.
    At B <= 2L, a split with one length past L is beaten by (L, B - L),
    whose value is h(L) + h(B - L) by (ii); so only lengths in [max(0,
    B - L), min(B, L)] need a look, one slice of each table.  At B > 2L,
    the balanced split has both lengths at least L, so f = h there and it
    wins without a table read.
    """
    C, L = dag.work, dag.span
    if budget > 2 * L:
        half = budget // 2
        return min(C, m * half) + min(C, m * (budget - half))
    ci_table, co_table, _ = _pair(tables, dag, m)
    lo = max(0, budget - L)
    hi = budget - lo  # min(budget, L): both lengths run over [lo, hi]
    return int((ci_table[lo:hi + 1] + co_table[lo:hi + 1][::-1]).max())


def interfering_workload(task, delta, r_i, m, tables=None) -> int:
    """Upper bound on the workload an interferer puts in a window of length
    delta, given its own response bound r_i.  `tables` is the dict in which
    the DAG's table pair at m is kept between calls (see `_pair`); without
    one, the call builds the pair only if a term reads it, and drops it.

    A pattern of s >= 1 releases inside the window holds s-1 body jobs,
    base = (s-1)*C.  Its last release adds the carry-out h(head) over the
    head = delta - (s-1)*T left of it; or a job released before the window
    adds carry-in too, and the two end jobs share a budget of delta + r_i -
    s*T (`_split_peak`).  A window with no release at all holds at most the
    carry-in f(delta), which the s = 1 carry-out term h(delta) matches or
    beats (f <= h, see `_split_peak`), so it has no term of its own.

    Dominance.  A pattern needs head > 0 and base < m*delta, so the densest
    one has s* = 1 + jobs releases, jobs = min(floor((delta-1)/T),
    floor((m*delta-1)/C)) (the first term alone when C = 0).  Every end
    term is capped at C (carry-out) or 2C (split), and s+2 releases add
    exactly 2C of body work, so every s <= s*-2 loses to s+2.  At s*-1 the
    carry-out term is at most C, which the extra body job of s* matches;
    only its split, with budget + T, can win.  That leaves three terms:
    base + h(head) and base + split(budget) at s*, and base - C +
    split(budget + T) at s*-1 when jobs >= 1.

    The carry-out bound is the exact optimum capped at m*len.  Every addend
    is capped at min(work, m * window-part) and the result at m * delta.
    The carry-out term is one lookup in the `_tables` pair of this m, with
    min(C, m*len) past the span.  Only a head <= span and a split budget in
    (0, 2*span] read the pair, so an interferer whose terms read none never
    builds it.  The bound is non-decreasing in delta.
    """
    if delta <= 0:
        return 0
    dag, C, L, T = task.dag, task.work, task.span, task.period
    if tables is None:
        tables = {}
    jobs = (delta - 1) // T if C == 0 else min((delta - 1) // T, (m * delta - 1) // C)
    head, base, budget = delta - jobs * T, jobs * C, delta + r_i - (jobs + 1) * T
    best = base + (int(_pair(tables, dag, m)[1][head]) if head <= L else min(C, m * head))
    if budget > 0:
        best = max(best, base + _split_peak(dag, m, budget, tables))
    if jobs and budget + T > 0:
        best = max(best, base - C + _split_peak(dag, m, budget + T, tables))
    return min(best, m * delta)
