"""Property tests of the facts a `Dag` derives once, its profile tables, its
work curve and the interfering-workload bound."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dagsched.carryout import WorkCurve
from dagsched.dag import Dag, DagTask
from dagsched.rta import seed_bound
from dagsched.taskgen import GenConfig, gen_dag
from dagsched.workload import _tables, interfering_workload, melani_workload
from test_workload import schedule_tail


@st.composite
def shuffled_dags(draw):
    """WCETs and an edge list over a random vertex ranking (so ids are not
    topologically sorted), in random order and with duplicates."""
    n = draw(st.integers(1, 9))
    wcets = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    rank = draw(st.permutations(range(n)))
    pairs = [(rank[i], rank[j]) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * len(pairs))) if pairs else []
    return wcets, edges


@settings(max_examples=100, deadline=None, derandomize=True)
@given(shuffled_dags())
def test_derived_facts_and_profile(case):
    wcets, edges = case
    dag = Dag(wcets, edges)
    n = len(wcets)
    # on a fresh DAG the flow walks the constructor's successor lists, in
    # edge order with repeats, and finds the sources and sinks itself
    fresh_penalties = WorkCurve(dag).penalties
    assert not {"succs", "preds", "sinks"} & vars(dag).keys()
    preds = [{a for a, b in edges if b == v} for v in range(n)]

    # a topological order: a permutation in which every edge points forward
    place = {v: i for i, v in enumerate(dag.order)}
    assert sorted(dag.order) == list(range(n))
    assert all(place[a] < place[b] for a, b in edges)
    assert dag.edges == tuple(sorted(set(edges)))
    assert dag.preds == tuple(tuple(sorted(p)) for p in preds)
    assert dag.succs == tuple(tuple(sorted({b for a, b in edges if a == v})) for v in range(n))

    starts = [0] * n
    for _ in range(n):  # relax every edge until the longest distances settle
        for a, b in edges:
            starts[b] = max(starts[b], starts[a] + wcets[a])
    length = max(s + c for s, c in zip(starts, wcets))
    assert (dag.work, dag.span, list(dag.starts)) == (sum(wcets), length, starts)

    tails = [schedule_tail(dag, starts, d) for d in range(length + 1)]
    # no window of length d holds more than d units of one vertex, so at
    # m >= n the cap m*d never binds
    assert _tables(dag, max(n, 1))[0].tolist() == tails
    # `succs` has been read, so the flow now walks its sorted lists
    assert WorkCurve(dag).penalties == fresh_penalties
    pens = list(enumerate(fresh_penalties))
    envelope = [min(phi * d + pen for phi, pen in pens) for d in range(length + 1)]
    for m in (1, 2, 3, 16):
        carry_in, carry_out = _tables(dag, m)
        assert carry_in.tolist() == [min(tail, m * d) for d, tail in enumerate(tails)]
        assert carry_out.tolist() == [
            min(env, m * d, dag.work) for d, env in enumerate(envelope)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(shuffled_dags())
def test_work_curve_values_concave(case):
    dag = Dag(*case)
    vals = WorkCurve(dag).values().tolist()
    assert len(vals) == dag.span + 1
    assert vals[0] == 0 and vals[-1] == dag.work
    steps = [b - a for a, b in zip(vals, vals[1:])]
    assert all(step >= 0 for step in steps)
    assert all(a >= b for a, b in zip(steps, steps[1:]))


def paper_scale_dag(seed):
    return gen_dag(GenConfig(n_range=(10, 20)), np.random.default_rng(seed))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(shuffled_dags().map(lambda case: Dag(*case)),
                 st.integers(0, 2**32).map(paper_scale_dag)))
def test_penalty_drops_never_increase(dag):
    # `WorkCurve.values` sums one ramp per drop, which equals the lower
    # envelope of the lines phi*delta + penalty(phi) only while the drops
    # never increase
    penalties = WorkCurve(dag).penalties
    drops = [a - b for a, b in zip(penalties, penalties[1:])]
    assert all(a >= b for a, b in zip(drops, drops[1:])), penalties
    assert drops[:1] == ([dag.span] if dag.span else [])


@st.composite
def workload_queries(draw):
    """A task, a processor count, window lengths in increasing order and
    every response bound of the task from its seed bound to its deadline."""
    dag = Dag(*draw(shuffled_dags()))
    m = draw(st.integers(1, 6))
    lowest = max(dag.span + -(-(dag.work - dag.span) // m), 1)  # the seed bound
    deadline = draw(st.integers(lowest, lowest + 10))
    task = DagTask(dag, deadline, draw(st.integers(deadline, deadline + 4)))
    deltas = sorted(draw(st.sets(st.integers(0, 3 * task.period), min_size=2, max_size=5)))
    return task, m, deltas, range(seed_bound(task, m), deadline + 1)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(workload_queries())
def test_interfering_workload_monotone_and_capped(query):
    task, m, deltas, bounds = query
    tables = {}
    grid = [[interfering_workload(task, delta, r_i, m, tables) for r_i in bounds]
            for delta in deltas]
    for delta, row in zip(deltas, grid):
        assert all(w <= min(m * delta, melani_workload(task, delta, r_i, m))
                   for r_i, w in zip(bounds, row))
        assert row == sorted(row)  # non-decreasing in r_i
    for lower, upper in zip(grid, grid[1:]):
        assert all(a <= b for a, b in zip(lower, upper))  # and in delta


# Dominance lemma: for r_i >= seed_bound(task, m), and C <= m*T (in the
# analysis T >= D >= r_i, so this follows), each interferer's term obeys
# interfering_workload <= melani_workload.  Write g(B) for melani's value
# at B = m*(delta + r_i) - C: 0 if B < 0, else floor(B / mT)*C +
# min(C, B mod mT).  g is non-decreasing, g(B + k*mT) = g(B) + k*C and
# g(B) >= min(C, B) for B >= 0.  Every table entry and every length past
# the span is at most min(C, m*len).  Now m*r_i >= m*seed_bound >= C, so
# B >= m*delta >= 0, and each candidate of interfering_workload is covered:
# - no release in the window: ci(delta) <= min(C, m*delta) <= min(C, B) <= g(B);
# - s releases, carry-out head h = delta - (s-1)T > 0: B - (s-1)mT = m*h +
#   m*r_i - C >= m*h, so g(B) >= (s-1)C + min(C, m*h) >= (s-1)C + co(h);
# - s releases, split budget b = delta + r_i - sT > 0 into lengths x + y = b:
#   B' = B - (s-1)mT = m*b + mT - C >= m*b.  If m*b >= C, g(B') = C +
#   g(m*b - C) >= min(2C, m*b); else g(B') = min(C, B') >= m*b.  Either
#   bounds min(C, m*x) + min(C, m*y), so g(B) >= (s-1)C + ci(x) + co(y).
# The final cap at m*delta only lowers the maximum.  The step that needs the
# seed bound is m*r_i >= C: below it melani's window delta + r_i - C/m is
# shorter than delta, and the first two candidates can beat it.  With this
# lemma "ilp never loses to melani" holds for every task set, since every
# fixed-point iterate starts at its seed bound and melani_workload does not
# decrease in r_i.

@st.composite
def dominance_queries(draw):
    """A task with T >= D >= its seed bound, a processor count, a window
    and a response bound from the seed bound to two periods past it."""
    dag = Dag(*draw(shuffled_dags()))
    m = draw(st.integers(1, 6))
    lowest = max(dag.span + -(-(dag.work - dag.span) // m), 1)
    deadline = draw(st.integers(lowest, lowest + 10))
    task = DagTask(dag, deadline, draw(st.integers(deadline, deadline + 4)))
    seed = seed_bound(task, m)
    return (task, m, draw(st.integers(0, 4 * task.period)),
            draw(st.integers(seed, seed + 2 * task.period)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(dominance_queries())
def test_interfering_workload_dominated_by_melani_above_the_seed_bound(query):
    task, m, delta, r_i = query
    assert interfering_workload(task, delta, r_i, m) <= melani_workload(task, delta, r_i, m)


def test_dominance_fails_below_the_seed_bound():
    # one 4-unit vertex on one processor, seed bound 4: at r_i = 3 melani's
    # window 1 + 3 - 4 is empty, while the carry-in alone puts 1 unit in it
    task = DagTask(Dag([4], []), 4, 4)
    assert seed_bound(task, 1) == 4
    assert interfering_workload(task, 1, 3, 1) == 1
    assert melani_workload(task, 1, 3, 1) == 0
    assert interfering_workload(task, 1, 4, 1) <= melani_workload(task, 1, 4, 1)
