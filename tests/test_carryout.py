"""Carry-out workload optimum: model, exact solver, oracle and work curve."""

import heapq
import sys
import threading
from dataclasses import replace
from math import inf

import numpy as np
import pytest

from conftest import curve_obj, random_dag
from dagsched import carryout
from dagsched.carryout import (
    A, X, WorkCurve, _cover_penalties, asap_window_workload, brute_force_oracle,
    build_model, export_model, solve_exact, trim_to_window, verify_assignment,
)
from dagsched.dag import Dag, DagTask, normalize_source_sink, span, work
from dagsched.workload import DagProfile, interfering_workload
from dagsched.errors import (
    OracleLimitError, PathExplosionError, SolverLimitError, ValidationError,
)
from dagsched.instances import antimonotone_task


def fork_5_5():
    return Dag([0, 5, 5, 0], [(0, 1), (0, 2), (1, 3), (2, 3)])


class TestOracle:
    def test_single_vertex(self):
        assert brute_force_oracle(Dag([5], []), 3) == 3

    def test_chain_window_two(self):
        # X=(0,4) or X=(2,4) both place exactly 2 units inside the window
        assert brute_force_oracle(Dag([3, 4], [(0, 1)]), 2) == 2

    def test_all_zero_wcets(self):
        assert brute_force_oracle(Dag([0, 0], [(0, 1)]), 4) == 0

    def test_guard(self):
        with pytest.raises(OracleLimitError):
            brute_force_oracle(Dag([9] * 10, []), 1)


class TestBuildModel:
    def test_requires_normalized(self):
        with pytest.raises(ValidationError):
            build_model(Dag([1, 1], []), 1)
        for delta in (2.7, True):  # and an integer window
            with pytest.raises(ValidationError):
                build_model(Dag([5], []), delta)

    def test_single_vertex_structure(self):
        model = build_model(Dag([5], []), 3)
        assert sorted(model.variables) == ["A0", "M0", "S0", "W0", "X0"]
        assert model.objective.tolist() == [0, 1, 0, 0, 0]  # W0 only
        assert model.ub[X] == 5
        assert model.variables[A:] == ["A0"] and model.ub[A:].tolist() == [1]

    def test_chain_edge_constraint(self):
        model = build_model(Dag([3, 4], [(0, 1)]), 5)
        binaries = A * model.n
        assert model.variables[binaries:] == ["A0", "A1"]
        assert model.ub[binaries:].tolist() == [1, 1]
        i = model.row_names.index("prec_0_1")
        assert {model.variables[j]: model.coeffs[i, j]
                for j in np.flatnonzero(model.coeffs[i])} == {"S1": 1, "S0": -1, "X0": -1}
        assert model.geq[i] and model.rhs[i] == 0

    def test_values_beyond_int64_rejected(self):
        with pytest.raises(ValidationError):
            build_model(Dag([2**61, 2**61], [(0, 1)]), 1)

    def test_path_form_explodes_on_ladder(self):
        wcets = [1]
        edges = []
        for _ in range(20):
            a, b = len(wcets), len(wcets) + 1
            lasts = [a - 2, a - 1] if len(wcets) > 1 else [0]
            wcets += [1, 1]
            for p in lasts:
                edges += [(p, a), (p, b)]
        wcets.append(1)
        snk = len(wcets) - 1
        edges += [(snk - 2, snk), (snk - 1, snk)]
        dag = Dag(wcets, edges)
        with pytest.raises(PathExplosionError):
            build_model(dag, 2, formulation="path-enumerated")


class TestSolveExact:
    def test_single_vertex(self):
        model = build_model(Dag([5], []), 3)
        res = solve_exact(model)
        assert res.objective == 3 == brute_force_oracle(Dag([5], []), 3)

    def test_chain(self):
        dag = Dag([3, 4], [(0, 1)])
        res = solve_exact(build_model(dag, 5))
        assert res.objective == 5 == brute_force_oracle(dag, 5)

    def test_delta_zero(self, rng):
        for _ in range(5):
            dag = normalize_source_sink(random_dag(rng))
            assert solve_exact(build_model(dag, 0)).objective == 0

    def test_fork(self):
        res = solve_exact(build_model(fork_5_5(), 3))
        assert res.objective == 6

    def test_reference_anti_monotone_scenario(self):
        # all-WCET ASAP workload 4 in a window of 3, but the optimum is 7
        task = antimonotone_task()
        dag = normalize_source_sink(task.dag)
        assert asap_window_workload(dag, list(dag.wcets), 3) == 4
        assert brute_force_oracle(dag, 3) == 7
        res = solve_exact(build_model(dag, 3))
        assert res.objective >= 7
        assert res.objective == 7

    def test_missed_witness_refused(self, monkeypatch):
        # every witness valued 0 leaves the A-complete bounds above the
        # incumbent, so the search must refuse rather than return 0
        monkeypatch.setattr(carryout, "asap_window_workload", lambda *args: 0)
        dag = normalize_source_sink(antimonotone_task().dag)
        with pytest.raises(SolverLimitError, match="witness not recovered"):
            solve_exact(build_model(dag, 3))

    def test_matches_oracle_on_random_instances(self, rng):
        for _ in range(60):
            dag = normalize_source_sink(random_dag(rng, n_max=5))
            delta = int(rng.integers(0, span(dag) + 2))
            res = solve_exact(build_model(dag, delta))
            assert res.objective == brute_force_oracle(dag, delta)
            verify_assignment(build_model(dag, delta), res.assignment)

    def test_big_m_semantics_on_assignments(self, rng):
        # A=0 forces W=0; A=1 keeps W within the window headroom
        for _ in range(30):
            dag = normalize_source_sink(random_dag(rng, n_max=5, wcet_min=1))
            delta = int(rng.integers(0, span(dag) + 1))
            res = solve_exact(build_model(dag, delta))
            for entry in res.assignment.values():
                if entry["A"] == 0:
                    assert entry["W"] == 0
                else:
                    assert entry["W"] <= delta - entry["S"]

    def test_formulation_equivalence(self, rng):
        for _ in range(25):
            dag = normalize_source_sink(random_dag(rng, n_max=5))
            delta = int(rng.integers(0, span(dag) + 1))
            edge = solve_exact(build_model(dag, delta, "edge-recursive"))
            path = solve_exact(build_model(dag, delta, "path-enumerated"))
            assert edge.objective == path.objective


# the capacity of the uncapped arcs of the reference flows
INF_CAP = 10**9


def bellman_ford_penalties(dag):
    """Min-cost cover penalties of a normalized DAG by successive shortest
    paths with a full Bellman-Ford over the residual network per
    augmentation."""
    n = dag.n
    source, sink = dag.sources[0], dag.sinks[0]
    graph = [[] for _ in range(2 * n)]
    arcs = []  # [to, cap, cost]

    def add_arc(u, v, cap, cost):
        graph[u].append(len(arcs))
        arcs.append([v, cap, cost])
        graph[v].append(len(arcs))
        arcs.append([u, 0, -cost])

    for v in range(n):
        add_arc(2 * v, 2 * v + 1, 1, -dag.wcets[v])
        add_arc(2 * v, 2 * v + 1, INF_CAP, 0)
    for a, b in dag.edges:
        add_arc(2 * a + 1, 2 * b, INF_CAP, 0)

    s, t = 2 * source, 2 * sink + 1
    penalties = [dag.work]
    for _ in range(dag.work + 2):
        dist = [None] * (2 * n)
        parent = [-1] * (2 * n)
        dist[s] = 0
        for _ in range(2 * n):
            changed = False
            for u in range(2 * n):
                if dist[u] is None:
                    continue
                for aid in graph[u]:
                    to, cap, cost = arcs[aid]
                    if cap > 0 and (dist[to] is None or dist[u] + cost < dist[to]):
                        dist[to] = dist[u] + cost
                        parent[to] = aid
                        changed = True
            if not changed:
                break
        if dist[t] is None or dist[t] >= 0:
            break
        node = t
        while node != s:
            aid = parent[node]
            arcs[aid][1] -= 1
            arcs[aid ^ 1][1] += 1
            node = arcs[aid ^ 1][0]
        penalties.append(penalties[-1] + dist[t])
    return penalties


def reference_cover_penalties(dag):
    """Cover penalties by successive shortest paths on the DAG itself, with
    one Dijkstra per augmentation from the first one on, and no stop before
    an augmentation that costs nothing."""
    n = dag.n
    s, t = 2 * n, 2 * n + 1  # vertex split: node 2v = in, 2v+1 = out
    graph = [[] for _ in range(2 * n + 2)]
    head, cap, cost = [], [], []

    def add_arc(u, v, capacity, c):
        graph[u].append(len(head))
        graph[v].append(len(head) + 1)
        head.extend((v, u))
        cap.extend((capacity, 0))
        cost.extend((c, -c))

    for v in range(n):
        add_arc(2 * v, 2 * v + 1, 1, -dag.wcets[v])
        add_arc(2 * v, 2 * v + 1, INF_CAP, 0)
        if not dag.preds[v]:
            add_arc(s, 2 * v, INF_CAP, 0)
        if not dag.succs[v]:
            add_arc(2 * v + 1, t, INF_CAP, 0)
    for a, b in dag.edges:
        add_arc(2 * a + 1, 2 * b, INF_CAP, 0)

    pot = [-x for start, c in zip(dag.starts, dag.wcets) for x in (start, start + c)]
    pot += [0, -dag.span]
    penalties = [dag.work]
    for _ in range(dag.work + 2):
        dist = [inf] * (2 * n + 2)
        parent = [-1] * (2 * n + 2)
        dist[s] = 0
        heap = [(0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for aid in graph[u]:
                if cap[aid]:
                    to = head[aid]
                    nd = d + pot[u] + cost[aid] - pot[to]
                    if nd < dist[to]:
                        dist[to] = nd
                        parent[to] = aid
                        heapq.heappush(heap, (nd, to))
        path_cost = dist[t] + pot[t]
        if path_cost >= 0:
            break
        pot = [p + d for p, d in zip(pot, dist)]
        node = t
        while node != s:
            aid = parent[node]
            cap[aid] -= 1
            cap[aid ^ 1] += 1
            node = head[aid ^ 1]
        penalties.append(penalties[-1] + path_cost)
    return penalties


class TestWorkCurve:
    def test_penalties_match_reference(self, rng):
        for k in range(120):
            n_max = (6, 20, 60)[k % 3]
            dag = normalize_source_sink(random_dag(
                rng, n_max=n_max, wcet_max=(3, 50)[k % 2], p=float(rng.uniform(0.05, 0.5))))
            assert _cover_penalties(dag) == bellman_ford_penalties(dag)

    def test_penalties_match_dijkstra_reference(self, rng):
        # the critical-path first augmentation and the stop at penalty 0
        # change no penalty; the DAGs include empty ones, zero WCETs, span
        # 0 and several sources and sinks
        shapes = [0, 0, 0, 0]  # empty, span 0, zero WCETs, several ends
        for k in range(2000):
            n = int(rng.integers(0, (4, 10, 24)[k % 3] + 1))
            wcets = [int(w) for w in rng.integers(0, (2, 9, 60)[k % 3], n)]
            if k % 5 == 0:
                wcets = [w * int(rng.integers(0, 2)) for w in wcets]
            p = float(rng.uniform(0.0, 0.6))
            edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
            dag = Dag(wcets, edges)
            shapes[0] += n == 0
            shapes[1] += n > 0 and dag.span == 0
            shapes[2] += 0 in wcets
            shapes[3] += len(dag.sources) > 1 and len(dag.sinks) > 1
            assert _cover_penalties(dag) == reference_cover_penalties(dag)
        assert min(shapes) >= 20

    def test_same_penalties_without_normalizing(self, rng):
        # the virtual source and sink of the flow stand in for the dummy
        # vertices of a normalized copy
        checked = 0
        for k in range(150):
            dag = random_dag(rng, n_max=(8, 20)[k % 2], wcet_max=(3, 50)[k % 2],
                             p=float(rng.uniform(0.05, 0.3)))
            if len(dag.sources) < 2 or len(dag.sinks) < 2:
                continue
            assert WorkCurve(dag).penalties == WorkCurve(normalize_source_sink(dag)).penalties
            checked += 1
        assert checked >= 80

    def test_equals_oracle(self, rng):
        for _ in range(150):
            dag = random_dag(rng)
            curve = WorkCurve(dag)
            for delta in {0, 1, span(dag), int(rng.integers(0, span(dag) + 2))}:
                assert curve_obj(curve, delta) == brute_force_oracle(dag, delta)

    def test_concave_increments(self, rng):
        for _ in range(40):
            dag = random_dag(rng, wcet_min=1)
            curve = WorkCurve(dag)
            vals = [curve_obj(curve, d) for d in range(span(dag) + 2)]
            diffs = [b - a for a, b in zip(vals, vals[1:])]
            assert all(d >= 0 for d in diffs)
            assert all(a >= b for a, b in zip(diffs, diffs[1:]))

    def test_saturates_at_span(self, rng):
        for _ in range(20):
            dag = random_dag(rng)
            curve = WorkCurve(dag)
            assert curve_obj(curve, span(dag)) == work(dag)


def carry_out_bound(task, delta_co, m):
    """The analysis's carry-out bound: the DAG profile's table up to the
    span, min(work, m * delta_co) beyond it."""
    if delta_co > task.span:
        return min(task.work, m * delta_co)
    return int(task.dag.profile.tables(task.dag, m)[1][delta_co])


class TestCarryOutBound:
    def test_fork_with_processor_cap(self):
        task = DagTask(fork_5_5(), 6, 6)
        assert carry_out_bound(task, 3, m=1) == 3  # min(6, 3)

    def test_delta_zero(self):
        assert carry_out_bound(antimonotone_task(), 0, 4) == 0

    def test_window_at_least_span(self):
        task = antimonotone_task()
        for m in (1, 2, 16):
            assert carry_out_bound(task, task.span, m) == min(task.work, m * task.span)
            assert carry_out_bound(task, task.span + 7, m) == min(task.work, task.work)

    def test_monotone_and_capped(self, rng):
        task = antimonotone_task()
        for m in (1, 2, 4):
            vals = [carry_out_bound(task, d, m) for d in range(task.span + 3)]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
            assert all(v <= min(task.work, m * d) for d, v in enumerate(vals))

    def test_memoized_per_task(self, monkeypatch):
        builds = []
        init = DagProfile.__init__

        def counting_init(self):
            builds.append(self)
            init(self)

        monkeypatch.setattr(DagProfile, "__init__", counting_init)
        task = antimonotone_task()
        copy = replace(task, deadline=14)
        assert copy.dag is task.dag and copy is not task
        assert interfering_workload(task, 10, 15, 2) == interfering_workload(copy, 10, 15, 2)
        assert task.dag.profile is copy.dag.profile
        assert task.dag.profile.tables(task.dag, 2) is copy.dag.profile.tables(copy.dag, 2)
        assert len(builds) == 1

    def test_concurrent_queries(self):
        task = antimonotone_task()
        out = []

        def worker():
            out.append([interfering_workload(task, d, 15, 2) for d in range(30)])

        threads = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often during the first build
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(out) == 8 and all(o == out[0] for o in out)


# --------------------------------------------------------------------------
# Export formats

def _parse_mps(text):
    """Parse the subset of MPS our writer emits."""
    section = None
    rows = {}
    row_order = []
    cols = {}
    col_order = []
    rhs = {}
    bounds = {}
    maximize = False
    for raw in text.splitlines():
        if not raw.strip():
            continue
        head = raw.split()
        if raw[0] not in (" ", "\t"):  # section headers start in column 1
            section = head[0]
            continue
        if section == "OBJSENSE":
            maximize = head[0] == "MAX"
        elif section == "ROWS":
            sense, name = head
            rows[name] = sense
            if sense != "N":
                row_order.append(name)
        elif section == "COLUMNS":
            if "MARKER" in raw:
                continue
            var, row, coef = head
            cols.setdefault(var, {})[row] = int(coef)
            if var not in col_order:
                col_order.append(var)
        elif section == "RHS":
            _, row, val = head
            rhs[row] = int(val)
        elif section == "BOUNDS":
            kind = head[0]
            var = head[2]
            val = int(head[3]) if len(head) > 3 else None
            bounds.setdefault(var, []).append((kind, val))
    return maximize, rows, row_order, cols, col_order, rhs, bounds


def _solve_mps_with_milp(text):
    """Independent resolve of an exported model via scipy's MILP solver."""
    opt = pytest.importorskip("scipy.optimize")
    maximize, rows, row_order, cols, col_order, rhs, bounds = _parse_mps(text)
    assert maximize
    nvar = len(col_order)
    c = np.zeros(nvar)
    lb = np.zeros(nvar)
    ub = np.full(nvar, np.inf)
    for j, var in enumerate(col_order):
        c[j] = -cols[var].get("OBJ", 0)
        for kind, val in bounds.get(var, []):
            if kind == "BV":
                ub[j] = 1
            elif kind == "UP":
                ub[j] = val
            elif kind == "LO":
                lb[j] = val
            elif kind == "FX":
                lb[j] = ub[j] = val
    A = np.zeros((len(row_order), nvar))
    lo = np.full(len(row_order), -np.inf)
    hi = np.full(len(row_order), np.inf)
    for i, name in enumerate(row_order):
        for j, var in enumerate(col_order):
            A[i, j] = cols[var].get(name, 0)
        b = rhs.get(name, 0)
        if rows[name] == "L":
            hi[i] = b
        else:
            lo[i] = b
    res = opt.milp(
        c, constraints=opt.LinearConstraint(A, lo, hi),
        integrality=np.ones(nvar), bounds=opt.Bounds(lb, ub))
    assert res.status == 0, res.message
    return int(round(-res.fun))


class TestExport:
    def test_lp_text_structure(self):
        text = export_model(build_model(Dag([5], []), 3), fmt="lp")
        assert "Maximize" in text and "obj: W0" in text
        assert "Binaries" in text and "A0" in text

    def test_chain_lp_mentions_edge(self):
        text = export_model(build_model(Dag([3, 4], [(0, 1)]), 5), fmt="lp")
        assert "prec_0_1" in text

    def test_mps_cross_solver_equality(self, rng):
        for k in range(13):
            dag = normalize_source_sink(random_dag(rng, n_max=4, wcet_min=1))
            delta = 0 if k == 12 else int(rng.integers(0, span(dag) + 1))
            model = build_model(dag, delta)
            internal = solve_exact(model).objective
            external = _solve_mps_with_milp(export_model(model, fmt="mps"))
            assert internal == external

    def test_mps_reference_instance(self):
        dag = normalize_source_sink(antimonotone_task().dag)
        model = build_model(dag, 3)
        assert _solve_mps_with_milp(export_model(model, fmt="mps")) == 7


class TestTrim:
    def test_trim_fits_window(self, rng):
        for _ in range(50):
            dag = random_dag(rng)
            delta = int(rng.integers(0, span(dag) + 2))
            x = [int(rng.integers(0, c + 1)) for c in dag.wcets]
            trimmed = trim_to_window(dag, x, delta)
            # trimmed schedule lies inside the window, value never drops
            assert sum(trimmed) == asap_window_workload(dag, trimmed, delta)
            assert sum(trimmed) >= asap_window_workload(dag, x, delta)
