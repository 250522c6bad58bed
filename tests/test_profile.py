"""Property tests of the facts a `Dag` derives once, its profile tables and
its work curve."""

from hypothesis import given, settings
from hypothesis import strategies as st

from dagsched.carryout import WorkCurve
from dagsched.dag import Dag
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
    preds = [{a for a, b in edges if b == v} for v in range(n)]

    # smallest ready id first
    placed, order = set(), []
    while len(order) < n:
        v = min(v for v in range(n) if v not in placed and preds[v] <= placed)
        order.append(v)
        placed.add(v)
    assert list(dag.order) == order

    starts = [0] * n
    for _ in range(n):  # relax every edge until the longest distances settle
        for a, b in edges:
            starts[b] = max(starts[b], starts[a] + wcets[a])
    length = max(s + c for s, c in zip(starts, wcets))
    assert (dag.work, dag.span, list(dag.starts)) == (sum(wcets), length, starts)

    profile = dag.profile
    assert [int(v) for v in profile.ci] == [
        schedule_tail(dag, starts, d) for d in range(length + 1)]
    pens = list(enumerate(WorkCurve(dag).penalties))
    envelope = [min(phi * d + pen for phi, pen in pens) for d in range(length + 1)]
    for m in (1, 2, 3, 16):
        assert [int(v) for v in profile.carry_out(dag, m)] == [
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
