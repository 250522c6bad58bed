"""Carry-out workload optimum: model, exact solver, oracle and work curve."""

import heapq
import sys
import threading
import tracemalloc
from dataclasses import replace
from math import inf, prod

import numpy as np
import pytest

from conftest import curve_obj, random_dag
from dagsched import carryout, rta
from dagsched.carryout import (
    A, X, WorkCurve, _cover_penalties, brute_force_oracle,
    build_model, export_model, solve_exact, trim_to_window, verify_assignment,
)
from dagsched.dag import (
    Dag, DagTask, TaskSet, asap_start_times, count_paths, normalize_source_sink, source_paths,
    span, work,
)
from dagsched.workload import _tables, interfering_workload
from dagsched.errors import (
    OracleLimitError, PathExplosionError, SolverLimitError, ValidationError,
)
from dagsched.instances import antimonotone_task
from dagsched.taskgen import GenConfig, gen_dag


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
        for delta in (2.7, True, -1):  # and a non-negative integer window
            with pytest.raises(ValidationError) as err:
                build_model(Dag([5], []), delta)
            assert err.value.rule == "delta"

    def test_unknown_formulation_rejected(self):
        with pytest.raises(ValidationError, match="unknown formulation") as err:
            build_model(Dag([5], []), 3, "bogus")
        assert err.value.rule == "formulation"

    def test_single_vertex_structure(self):
        model = build_model(Dag([5], []), 3)
        assert sorted(model.variables) == ["A0", "M0", "S0", "W0", "X0"]
        assert model.objective == [0, 1, 0, 0, 0]  # W0 only
        assert model.ub[X] == 5
        assert model.variables[A:] == ["A0"] and model.ub[A:] == [1]

    def test_chain_edge_constraint(self):
        model = build_model(Dag([3, 4], [(0, 1)]), 5)
        binaries = A * model.n
        assert model.variables[binaries:] == ["A0", "A1"]
        assert model.ub[binaries:] == [1, 1]
        i = model.row_names.index("prec_0_1")
        assert {model.variables[j]: coef
                for j, coef in model.rows[i]} == {"S1": 1, "S0": -1, "X0": -1}
        assert model.geq[i] and model.rhs[i] == 0

    def test_zero_coefficients_dropped(self):
        # span 0 and window 0 zero the A terms of c8a and c8b
        model = build_model(Dag([0], []), 0)
        assert [[model.variables[j] for j, _ in row] for row in model.rows] == [
            ["W0", "X0"], ["W0", "M0"], ["M0", "S0"], ["M0"]]

    def test_values_beyond_int64_kept_exact(self):
        # the model holds Python ints, so it builds, exports and solves
        # exactly past 64 bits: the big-M row reads delta + span
        dag = Dag([2**61, 2**61], [(0, 1)])
        for delta in (1, 2**61 + 5, 2**63):
            model = build_model(dag, delta)
            text = export_model(model, "lp")
            assert f" c8a_0: {dag.span} A0 + 1 M0 + 1 S0 <= {delta + dag.span}\n" in text
            assert f" {delta + dag.span}\n" in export_model(model, "mps")
            res = solve_exact(model)
            assert res.objective == min(delta, dag.work)
            verify_assignment(model, res.assignment)

    def test_memory_grows_linearly_in_a_chain(self):
        # a chain's edge-recursive model has five rows per vertex of at most
        # three terms each, about 2 KB per vertex with the row names, so
        # quadrupling n about quadruples the peak (a dense rows x 5n int64
        # matrix would take 200 B * n^2 and grow sixteenfold)
        peaks = []
        for n in (500, 2000):
            dag = Dag([1] * n, [(v, v + 1) for v in range(n - 1)])
            build_model(dag, 5)  # reads the DAG's lazy facts first
            tracemalloc.start()
            try:
                build_model(dag, 5)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 5 * peaks[0], peaks
        assert peaks[1] < 3000 * 2000, peaks

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
        assert sum(trim_to_window(dag, dag.wcets, 3)) == 4
        assert brute_force_oracle(dag, 3) == 7
        res = solve_exact(build_model(dag, 3))
        assert res.objective >= 7
        assert res.objective == 7

    def test_missed_witness_refused(self, monkeypatch):
        # every witness valued 0 leaves the floored LP bound above the best
        # witness, so the solver must refuse rather than return 0
        monkeypatch.setattr(carryout, "trim_to_window", lambda dag, x, delta: [0] * dag.n)
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


class TestVerifyAssignment:
    # the chain 3 -> 4 at window 5; its columns in order are X0 X1 W0 W1 S0
    # S1 M0 M1 A0 A1, its rows c2_0 c6_0 c8a_0 c8b_0, the same for vertex 1,
    # then prec_0_1
    def _zeros(self):
        return {a: dict.fromkeys("XWSMA", 0) for a in range(2)}

    def _rejection(self, assignment):
        model = build_model(Dag([3, 4], [(0, 1)]), 5)
        verify_assignment(model, self._zeros())  # all zero is feasible
        with pytest.raises(AssertionError) as err:
            verify_assignment(model, assignment)
        return str(err.value)

    def test_first_column_out_of_bounds(self):
        asg = self._zeros()
        asg[1]["X"], asg[0]["M"] = 9, -1  # X1 comes before M0
        assert self._rejection(asg) == "X1 = 9 violates bounds [0, 4]"

    def test_non_binary_activation(self):
        asg = self._zeros()
        asg[0]["A"], asg[1]["A"] = 0.5, 2  # A0 lies within [0, 1] and comes first
        assert self._rejection(asg) == "binary A0 = 0.5"

    def test_first_violated_row(self):
        asg = self._zeros()
        asg[0]["X"] = 3  # S1 - S0 - X0 >= 0 fails
        assert self._rejection(asg) == "constraint prec_0_1 violated: -3 >= 0"
        asg[0]["W"] = 1  # W0 <= M0 fails first; W0 <= X0 holds
        assert self._rejection(asg) == "constraint c6_0 violated: 1 <= 0"


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

    def test_penalties_match_references_on_shaped_dags(self, rng):
        # shapes whose searches differ: layered (edges between consecutive
        # layers only), fork-join, an antichain, a long unit chain, a
        # complete DAG and generated DAGs, with zero WCETs and several
        # sources and sinks; the small ones also against Bellman-Ford
        def wcets(n):
            return [int(w) * int(rng.random() < 0.8) for w in rng.integers(1, 40, n)]

        def layered(layers, width, p):
            edges = [(k * width + i, (k + 1) * width + j) for k in range(layers - 1)
                     for i in range(width) for j in range(width) if rng.random() < p]
            return Dag(wcets(layers * width), edges)

        def fork_join(stages, width):
            edges = []
            for k in range(stages):  # join vertex k * (width + 1) forks to the next width
                join, nxt = k * (width + 1), (k + 1) * (width + 1)
                edges += [e for v in range(join + 1, nxt) for e in ((join, v), (v, nxt))]
            return Dag(wcets(stages * (width + 1) + 1), edges)

        small = [layered(4, 3, 0.5), layered(3, 5, 0.3), fork_join(3, 3), Dag(wcets(9), []),
                 Dag(wcets(8), [(a, b) for a in range(8) for b in range(a + 1, 8)])]
        small += [gen_dag(GenConfig(n_range=(5, 12)), rng) for _ in range(6)]
        large = [layered(6, 8, 0.3), layered(10, 4, 0.2), fork_join(6, 6), Dag(wcets(60), []),
                 Dag([1] * 1100, [(v, v + 1) for v in range(1099)]),
                 Dag(wcets(30), [(a, b) for a in range(30) for b in range(a + 1, 30)])]
        large += [gen_dag(GenConfig(n_range=(n, n), edge_prob=p), rng)
                  for n, p in ((20, 0.2), (45, 0.1), (80, 0.05), (120, 0.02))]
        assert any(len(d.sources) > 1 and len(d.sinks) > 1 and 0 in d.wcets for d in small)
        for dag in small + large:
            assert _cover_penalties(dag) == reference_cover_penalties(dag)
        for dag in map(normalize_source_sink, small):
            assert _cover_penalties(dag) == bellman_ford_penalties(dag)

    def test_penalties_end_at_0_and_every_drop_is_at_least_1(self, rng):
        # while the penalty is positive, forward moves alone make a path
        # through an uncovered vertex of positive WCET C that costs at most
        # -C, so the flow stops only at 0 and `values` needs no last penalty
        def wcets(n):
            return [int(w) * int(rng.random() < 0.7) for w in rng.integers(1, 40, n)]

        layered = Dag(wcets(24), [(k * 6 + i, (k + 1) * 6 + j) for k in range(3)
                                  for i in range(6) for j in range(6) if rng.random() < 0.4])
        fork_join = Dag(wcets(13), [e for v in range(1, 12) for e in ((0, v), (v, 12))])
        dags = [Dag([], []), Dag([0, 0, 0], [(0, 1), (0, 2)]), Dag([0] * 6, []),
                Dag([1] * 1100, [(v, v + 1) for v in range(1099)]), Dag([3] * 300, []),
                Dag(wcets(20), [(a, b) for a in range(20) for b in range(a + 1, 20)]),
                layered, fork_join]
        generated = [gen_dag(GenConfig(n_range=(n, n), edge_prob=p), rng)
                     for n, p in ((1, 0.2), (10, 0.2), (20, 0.2), (45, 0.1), (120, 0.02))]
        dags += generated + [Dag(wcets(d.n), d.edges) for d in generated]
        assert sum(0 < d.work and 0 in d.wcets for d in dags) >= 5
        for dag in dags:
            penalties = _cover_penalties(dag)
            assert penalties[0] == dag.work and penalties[-1] == 0
            assert all(a - b >= 1 for a, b in zip(penalties, penalties[1:]))
            if dag.work:
                assert penalties[0] - penalties[1] == dag.span

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

    @staticmethod
    def _mixed_dags(rng):
        """Random small DAGs with zero WCETs, and generated desk- and
        paper-scale DAGs."""
        for k in range(90):
            if k % 3 == 0:
                yield random_dag(rng, n_max=8, wcet_max=5)
            else:
                yield gen_dag(GenConfig(**({"n_range": (10, 20)} if k % 3 == 2 else {})), rng)

    def test_same_values_with_every_edge_reversed(self, rng):
        # the most work whose makespan fits in d does not depend on the
        # edges' direction, so the curve also bounds the work a job does in
        # the last d units before it finishes
        for dag in self._mixed_dags(rng):
            reversed_dag = Dag(dag.wcets, [(b, a) for a, b in dag.edges])
            assert WorkCurve(reversed_dag).values().tolist() == WorkCurve(dag).values().tolist()

    def test_uncapped_carry_in_below_the_curve(self, rng):
        # at m >= n the carry-in table is the uncapped work of the full-WCET
        # ASAP schedule in its last d units; those pieces keep precedence
        # within d units, so the curve, the most such work, bounds it
        for dag in self._mixed_dags(rng):
            carry_in = _tables(dag, max(dag.n, 1))[0]
            assert (carry_in <= WorkCurve(dag).values()).all()


def carry_out_bound(task, delta_co, m):
    """The analysis's carry-out bound: the `_tables` carry-out table up to the
    span, min(work, m * delta_co) beyond it."""
    if delta_co > task.span:
        return min(task.work, m * delta_co)
    return int(_tables(task.dag, m)[1][delta_co])


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
        # tasks sharing a DAG share one table pair, so one work curve, per
        # table dict; each analysis has its own dict, and builds its own
        builds = []
        init = WorkCurve.__init__

        def counting_init(self, dag):
            builds.append(self)
            init(self, dag)

        monkeypatch.setattr(WorkCurve, "__init__", counting_init)
        task = antimonotone_task()
        copy = replace(task, deadline=14)
        assert copy.dag is task.dag and copy is not task
        tables = {}
        assert (interfering_workload(task, 10, 15, 2, tables)
                == interfering_workload(copy, 10, 15, 2, tables))
        assert len(builds) == len(tables) == 1
        # both interfere with the lowest task, at windows the tables cover
        ts = TaskSet([task, copy, DagTask(Dag([2, 2], [(0, 1)]), 40, 40)], 3)
        for analyses in (1, 2):
            report = rta.schedulability_test(ts)
            assert report.bounds == [10, 14, 13] and report.iterations == [0, 2, 3]
            assert len(builds) == 1 + analyses

    def test_concurrent_queries(self):
        # threads sharing one table dict: a first read in two threads at once
        # may build the pair twice, and both pairs are equal
        task, tables = antimonotone_task(), {}
        out = []

        def worker():
            out.append([interfering_workload(task, d, 15, 2, tables) for d in range(30)])

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
        assert len(out) == 8 and all(o == out[0] for o in out) and len(tables) == 1


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

    def test_unknown_format_rejected(self):
        with pytest.raises(ValidationError, match="unknown export format") as err:
            export_model(build_model(Dag([5], []), 3), fmt="xml")
        assert err.value.rule == "format"

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


def test_paper_scale_routes_agree():
    # solve_exact, the work curve and scipy's MILP on the exported MPS agree
    # on normalized paper-scale DAGs (n = 10-20), windows 1 and span // 10
    # included, and every witness satisfies the model
    rng = np.random.default_rng(19)
    pairs = 0
    for _ in range(3):
        dag = normalize_source_sink(gen_dag(GenConfig(n_range=(10, 20)), rng))
        curve = WorkCurve(dag).values()
        for delta in sorted({1, dag.span // 10, dag.span // 2, dag.span}):
            model = build_model(dag, delta)
            res = solve_exact(model)
            verify_assignment(model, res.assignment)
            external = _solve_mps_with_milp(export_model(model, fmt="mps"))
            assert res.objective == curve[delta] == external
            pairs += 1
    assert pairs == 12


class TestTrim:
    def test_trim_fits_window(self, rng):
        # entry v is min(x_v, max(delta - S_v, 0)) with S the ASAP starts of
        # x, zero WCETs included, and the trimmed schedule ends by delta
        for _ in range(50):
            dag = random_dag(rng)
            x = [int(rng.integers(0, c + 1)) for c in dag.wcets]
            starts = asap_start_times(dag, x)
            for delta in range(span(dag) + 3):
                trimmed = trim_to_window(dag, x, delta)
                assert trimmed == [min(xv, max(delta - sv, 0)) for xv, sv in zip(x, starts)]
                finishes = map(sum, zip(asap_start_times(dag, trimmed), trimmed))
                assert max(finishes) <= delta


def test_readers_of_order_agree_under_two_orders():
    # each DAG is built from its edge list sorted and reversed: the
    # constructor's Kahn pass then takes a vertex's successors in opposite
    # orders, so `order` differs, and no reader of it may tell
    rng = np.random.default_rng(29)
    built = differ = oracles = 0
    for fields, count in (({"n_range": (3, 6), "wcet_range": (1, 3), "edge_prob": 0.4}, 12),
                          ({}, 4), ({"n_range": (10, 20)}, 4)):
        for _ in range(count):
            dag = normalize_source_sink(gen_dag(GenConfig(**fields), rng))
            zeroed = [0 if v % 3 == 0 else w for v, w in enumerate(dag.wcets)]
            for wcets in (dag.wcets, zeroed):
                one, two = Dag(wcets, dag.edges), Dag(wcets, dag.edges[::-1])
                built += 1
                differ += one.order != two.order
                x = [int(rng.integers(0, c + 1)) for c in wcets]
                assert asap_start_times(one, x) == asap_start_times(two, x)
                assert count_paths(one) == count_paths(two)
                assert source_paths(one) == source_paths(two)
                for delta in range(one.span + 2):
                    assert trim_to_window(one, x, delta) == trim_to_window(two, x, delta)
                if one.n > 10:  # the exact solves take about 0.1 s each here
                    continue
                small = prod(c + 1 for c in wcets) <= 10**4
                for delta in sorted({1, one.span // 2}):
                    a, b = (solve_exact(build_model(d, delta)) for d in (one, two))
                    assert (a.objective, a.assignment) == (b.objective, b.assignment)
                    if small:
                        assert brute_force_oracle(one, delta) == brute_force_oracle(two, delta) \
                            == a.objective
                        oracles += 1
    assert built == 40 and differ >= 30 and oracles >= 40
