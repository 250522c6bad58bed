"""Task-model structure, DAG algorithms and serialization."""

import heapq
import json
import sys
import threading

import numpy as np
import pytest

from conftest import diamond, random_dag
from dagsched import dag as dag_module
from dagsched import rta, sim, workload
from dagsched.carryout import WorkCurve, trim_to_window
from dagsched.cli import ExperimentSpec, run_experiment
from dagsched.dag import (
    Dag, DagTask, TaskSet, asap_start_times, count_paths, load_taskset,
    normalize_source_sink, save_taskset, source_paths, span, taskset_from_dict,
    taskset_to_dict, work,
)
from dagsched.errors import PathExplosionError, ValidationError
from dagsched.instances import antimonotone_task
from dagsched.taskgen import GenConfig, assign_priorities_dm, gen_dag, gen_taskset

LAZY_FACTS = ("edges", "preds", "succs", "sources", "sinks")


def eager_facts(wcets, edges):
    """The facts of a valid input as `Dag` computed them in its constructor
    before they were built on first read: the sorted edge set, ascending
    adjacency, and the ASAP starts and span that a Kahn pass (smallest ready
    id first) accumulates."""
    n = len(wcets)
    edges = tuple(sorted(set(edges)))
    preds = [[] for _ in range(n)]
    succs = [[] for _ in range(n)]
    for a, b in edges:
        preds[b].append(a)
        succs[a].append(b)
    indeg = [len(p) for p in preds]
    heap = [v for v in range(n) if indeg[v] == 0]
    starts, length = [0] * n, 0
    while heap:
        v = heapq.heappop(heap)
        finish = starts[v] + wcets[v]
        length = max(length, finish)
        for b in succs[v]:
            starts[b] = max(starts[b], finish)
            indeg[b] -= 1
            if indeg[b] == 0:
                heapq.heappush(heap, b)
    return {"edges": edges, "preds": tuple(map(tuple, preds)),
            "succs": tuple(map(tuple, succs)), "starts": tuple(starts), "span": length}


class TestValidate:
    def test_single_vertex_valid(self):
        Dag([3], [])

    @pytest.mark.parametrize("build", [
        lambda: Dag([2.7], []),
        lambda: Dag([True], []),
        lambda: Dag([1, 1], [(0.9, 1)]),
        lambda: Dag([1, 1], [(0, True)]),
        lambda: DagTask(Dag([3], []), 5.5, 10),
        lambda: TaskSet([DagTask(Dag([3], []), 5, 10)], 2.0),
    ], ids=["fractional-wcet", "boolean-wcet", "fractional-endpoint", "boolean-endpoint",
            "fractional-deadline", "fractional-processors"])
    def test_non_integer_rejected(self, build):
        with pytest.raises(ValidationError):
            build()

    def test_numpy_integers_stored_as_int(self):
        dag = Dag(np.array([2, 3], dtype=np.int32), [(np.int64(0), np.int64(1))])
        assert dag.wcets == (2, 3) and dag.edges == ((0, 1),)
        assert all(type(x) is int for x in dag.wcets + dag.edges[0])
        doc = taskset_to_dict(TaskSet([DagTask(dag, 10, 10)], 1))
        assert json.loads(json.dumps(doc)) == doc

    def test_two_cycle_rejected(self):
        with pytest.raises(ValidationError) as err:
            Dag([1, 1], [(0, 1), (1, 0)])
        assert err.value.rule == "cycle"

    def test_dangling_edge_rejected(self):
        with pytest.raises(ValidationError) as err:
            Dag([1, 1], [(0, 5)])
        assert err.value.rule == "dangling-edge"

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError) as err:
            Dag([1, 1], [(1, 1)])
        assert err.value.rule == "self-loop"

    def test_negative_wcet_rejected(self):
        with pytest.raises(ValidationError):
            Dag([-1], [])

    @pytest.mark.parametrize("wcets, edges, rule", [
        ([1, 2, 3], [(0, 1, 2)], "edge"),
        ([1, 2, 3], [5], "edge"),
        ([1, 2], None, "edge"),
        (None, [], "wcet"),
    ], ids=["edge-triple", "edge-scalar", "edges-none", "wcets-none"])
    def test_malformed_argument_rejected(self, wcets, edges, rule):
        with pytest.raises(ValidationError) as err:
            Dag(wcets, edges)
        assert err.value.rule == rule

    @pytest.mark.parametrize("wcets, edges, rule", [
        ([-1, 1], [(0, 5)], "wcet"),
        ([1.5, 1], [(0, 1, 2)], "wcet"),
        ([1, 1], [(0, 1), (1, 0), (0, 5)], "dangling-edge"),
        ([1, 1], [(0, 5), (0, 1, 2)], "dangling-edge"),
        ([1, 1], [(0, 1, 2), (0, 5)], "edge"),
        ([1, 1], [(1, 0), (0, 1), (1, 1)], "self-loop"),
        ([1, 1, 1], [(0, 1), (1, 0), (2, 2.5)], "edge"),
    ], ids=["wcet-then-dangling", "wcet-then-edge", "cycle-then-dangling",
            "dangling-then-edge", "edge-then-dangling", "cycle-then-self-loop",
            "cycle-then-edge"])
    def test_first_broken_rule_reported(self, wcets, edges, rule):
        with pytest.raises(ValidationError) as err:
            Dag(wcets, edges)
        assert err.value.rule == rule


class TestLazyFacts:
    def test_built_only_when_read(self):
        dag = Dag([1, 2, 3], [(1, 2), (0, 1), (0, 2), (0, 1)])
        assert not set(LAZY_FACTS) & vars(dag).keys()
        assert (dag.work, dag.span, dag.starts) == (6, 6, (0, 1, 3))
        assert vars(dag)["order"] == (0, 1, 2)  # the constructor's pass keeps it
        assert dag.edges == ((0, 1), (0, 2), (1, 2))
        assert vars(dag).keys() & set(LAZY_FACTS) == {"edges", "succs"}
        assert dag.preds == ((), (0,), (0, 1))
        assert set(LAZY_FACTS) - {"sources", "sinks"} <= vars(dag).keys()

    def test_same_facts_as_eager_constructor(self, rng):
        # generated DAGs, the same with zero WCETs, their normalized forms,
        # and small random DAGs with repeated edges
        inputs = []
        for fields in ({}, {"n_range": (10, 20)}, {"n_range": (1, 4), "edge_prob": 0.0},
                       {"n_range": (5, 30), "edge_prob": 0.6}):
            for _ in range(40):
                dag = gen_dag(GenConfig(**fields), rng)
                zeroed = Dag([0 if v % 3 == 0 else w for v, w in enumerate(dag.wcets)],
                             dag.edges)
                inputs += [(d.wcets, d.edges) for d in (dag, zeroed)]
                inputs += [(d.wcets, d.edges) for d in map(normalize_source_sink, (dag, zeroed))]
        for _ in range(200):
            dag = random_dag(rng, n_max=8)
            inputs.append((dag.wcets, list(dag.edges) * 2 + list(dag.edges[::-1])))
        for wcets, edges in inputs:
            dag, expect = Dag(wcets, edges), eager_facts(wcets, edges)
            assert {name: getattr(dag, name) for name in expect} == expect
            # any topological order: a permutation in which every edge points forward
            place = {v: i for i, v in enumerate(dag.order)}
            assert sorted(dag.order) == list(range(dag.n))
            assert all(place[a] < place[b] for a, b in edges)

    def test_concurrent_first_reads(self, rng):
        # from Python 3.12 on, cached_property holds no lock: threads that read a
        # fact first at once each run its getter, so every getter must give the
        # same result when run again; the threads also call the getters directly
        # so that a getter that works only once fails on every Python.  Half the
        # threads build work curves first, which walk the successor lists that
        # `succs` replaces when another thread reads it first
        inputs = [(d.wcets, d.edges) for d in (gen_dag(GenConfig(), rng) for _ in range(30))]
        dags = [Dag(*i) for i in inputs]
        expect = [[getattr(Dag(*i), name) for name in LAZY_FACTS] for i in inputs]
        penalties = [WorkCurve(Dag(*i)).penalties for i in inputs]
        getters = [getattr(Dag, name).func for name in LAZY_FACTS]
        barrier, out, curves, errors = threading.Barrier(4), [], [], []

        def worker(curves_first):
            try:
                barrier.wait()
                if curves_first:
                    curves.append([WorkCurve(d).penalties for d in dags])
                out.append([[getattr(d, name) for name in LAZY_FACTS] for d in dags])
                out.append([[get(d) for get in getters] for d in dags])
                if not curves_first:
                    curves.append([WorkCurve(d).penalties for d in dags])
            except Exception as exc:  # reported by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(k % 2,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often during the first reads
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(out) == 8 and all(o == expect for o in out)
        assert len(curves) == 4 and all(c == penalties for c in curves)

    def test_curve_analysis_and_simulation_build_no_edge_list(self):
        # the work curve, the response-time test and the simulator with its
        # audit and interference read the adjacency, never `edges`
        cfg = GenConfig(n_range=(5, 15), wcet_range=(1, 20))
        ts = assign_priorities_dm(gen_taskset(2.0, 4, cfg, np.random.default_rng(11)))
        dags = [task.dag for task in ts.tasks]
        for dag in dags:
            WorkCurve(dag)
        rta.schedulability_test(ts)
        res = sim.simulate(ts, ts.processors, 2 * max(t.period for t in ts.tasks),
                           release_policy="sporadic", exec_policy="random",
                           rng=np.random.default_rng(12))
        sim.audit_trace(res)
        for job in res.jobs:
            if job.completion is not None:
                sim.interference_by_task(res, job, sim.extract_critical_chain(res, job))
        assert res.jobs and all("edges" not in vars(dag) for dag in dags)

    def test_preds_equal_the_edge_derived_tuples(self, rng):
        # generated DAGs, and small random ones given each edge twice and reversed
        inputs = [(d.wcets, d.edges) for d in (gen_dag(GenConfig(n_range=(1, 40)), rng)
                                               for _ in range(60))]
        for _ in range(100):
            dag = random_dag(rng, n_max=10)
            inputs.append((dag.wcets, list(dag.edges) * 2 + list(dag.edges[::-1])))
        for wcets, edges in inputs:
            dag = Dag(wcets, edges)
            preds = [[] for _ in range(dag.n)]
            for a, b in Dag(wcets, edges).edges:
                preds[b].append(a)
            assert dag.preds == tuple(map(tuple, preds))
            assert "edges" not in vars(dag)

    def test_sweep_builds_adjacency_only_for_dags_with_tables(self, monkeypatch):
        built, tabled = [], set()  # `built` keeps every DAG, so ids stay unique
        init, build = dag_module.Dag.__init__, workload._tables

        def recording_init(self, wcets, edges):
            init(self, wcets, edges)
            built.append(self)

        monkeypatch.setattr(dag_module.Dag, "__init__", recording_init)
        monkeypatch.setattr(workload, "_tables", lambda d, m: tabled.add(id(d)) or build(d, m))
        run_experiment(ExperimentSpec(sets_per_point=20, seed=0, zero_timing=True))
        assert 0 < len(tabled) < len(built)
        for d in built:
            facts = vars(d).keys() & set(LAZY_FACTS)
            assert id(d) in tabled or not facts


class TestNormalize:
    def test_two_sources_one_sink(self):
        dag = Dag([1, 2, 3], [(0, 2), (1, 2)])
        norm = normalize_source_sink(dag)
        assert norm.n == 4  # one dummy source, no dummy sink
        assert (dag.sources, dag.sinks) == ((0, 1), (2,))
        assert (norm.sources, norm.sinks) == ((3,), (2,))
        assert norm.wcets[3] == 0

    def test_chain_unchanged(self):
        dag = Dag([2, 3], [(0, 1)])
        assert normalize_source_sink(dag) is dag

    def test_preserves_work_and_span(self):
        dag = Dag([2, 2, 2, 2, 2], [(0, 3), (1, 3), (2, 4)])  # 3 sources, 2 sinks
        assert work(dag) == 10 and span(dag) == 4
        norm = normalize_source_sink(dag)
        assert work(norm) == 10 and span(norm) == span(dag)

    def test_preserves_original_start_times(self, rng):
        for _ in range(50):
            dag = random_dag(rng)
            norm = normalize_source_sink(dag)
            s_orig = asap_start_times(dag, list(dag.wcets))
            s_norm = asap_start_times(norm, list(norm.wcets))
            assert s_norm[:dag.n] == s_orig


class TestWorkSpan:
    def test_reference_task_aggregates(self):
        # six-subtask reference instance: work 13, span 8
        task = antimonotone_task()
        assert task.work == 13
        assert task.span == 8

    def test_single_vertex(self):
        assert work(Dag([5], [])) == 5
        assert span(Dag([5], [])) == 5

    def test_diamond(self):
        dag = diamond((1, 2, 3, 1))
        assert work(dag) == 7
        assert span(dag) == 5  # 1 + max(2, 3) + 1

    def test_chain_span(self):
        assert span(Dag([2, 3, 4], [(0, 1), (1, 2)])) == 9

    def test_span_at_most_work(self, rng):
        for _ in range(100):
            dag = random_dag(rng)
            assert span(dag) <= work(dag)
            assert dag.sources == tuple(v for v in range(dag.n) if not dag.preds[v])
            assert dag.sinks == tuple(v for v in range(dag.n) if not dag.succs[v])


class TestAsap:
    def test_chain(self):
        assert asap_start_times(Dag([3, 4], [(0, 1)]), [3, 4]) == [0, 3]

    def test_diamond_max_rule(self):
        dag = diamond((0, 2, 5, 1))
        starts = asap_start_times(dag, [0, 2, 5, 1])
        assert starts[3] == 5

    def test_all_zero_exec(self, rng):
        for _ in range(20):
            dag = random_dag(rng)
            assert asap_start_times(dag, [0] * dag.n) == [0] * dag.n

    def test_exec_above_wcet_rejected(self):
        # also a wrong length, a non-integer or bool entry, a negative one and
        # no iterable (None and 5 raised TypeError), through `trim_to_window` too
        dag = Dag([3, 4], [(0, 1)])
        for x in ([9, 4], [-2, 4], [1], [1, 2, 3], [1.5, 2], [True, 2], [2.0, 2], None, 5):
            for call in (lambda: asap_start_times(dag, x), lambda: trim_to_window(dag, x, 5)):
                with pytest.raises(ValidationError) as err:
                    call()
                assert err.value.rule == "exec"
        with pytest.raises(ValidationError, match="exec time 4 of vertex 0"):
            asap_start_times(Dag([3], []), [4])
        assert asap_start_times(dag, [np.int64(3), 4]) == [0, 3]

    def test_critical_path_endpoint(self, rng):
        # max over vertices of (start + wcet) recovers the span
        for _ in range(100):
            dag = random_dag(rng)
            starts = asap_start_times(dag, list(dag.wcets))
            assert max(s + c for s, c in zip(starts, dag.wcets)) == span(dag)


def walked_paths(dag, v):
    """The source-to-v paths of a recursive walk back from v, each
    predecessor in ascending order: the order `source_paths` keeps."""
    if not dag.preds[v]:
        return [(v,)]
    return [path + (v,) for p in dag.preds[v] for path in walked_paths(dag, p)]


class TestPaths:
    def test_chain_single_path(self):
        dag = Dag([1, 1, 1], [(0, 1), (1, 2)])
        assert source_paths(dag)[2] == [(0, 1, 2)]

    def test_diamond_two_paths(self):
        dag = normalize_source_sink(diamond())
        assert sorted(source_paths(dag)[3]) == [(0, 1, 3), (0, 2, 3)]

    def test_layered_explosion(self):
        # 2-wide x 20-layer ladder: 2^20 paths exceeds the default cap
        wcets, edges = [1], []
        for layer in range(20):
            a, b = len(wcets), len(wcets) + 1
            wcets += [1, 1]
            prev = a - 1 if layer == 0 else None
            lasts = [a - 2, a - 1] if layer > 0 else [0]
            for p in lasts:
                edges += [(p, a), (p, b)]
        wcets.append(1)
        snk = len(wcets) - 1
        edges += [(snk - 2, snk), (snk - 1, snk)]
        dag = Dag(wcets, edges)
        assert count_paths(dag)[snk] == 2 ** 20
        with pytest.raises(PathExplosionError, match=f"paths to vertex {snk};"):
            source_paths(dag)

    def test_path_distances_match_asap(self, rng):
        # longest path-sum (excluding the endpoint) equals the ASAP start
        for _ in range(40):
            dag = normalize_source_sink(random_dag(rng, n_max=5))
            starts = asap_start_times(dag, list(dag.wcets))
            for v, paths in enumerate(source_paths(dag)):
                dists = [sum(dag.wcets[u] for u in path[:-1]) for path in paths]
                assert max(dists) == starts[v]

    def test_same_paths_in_the_same_order_as_a_recursive_walk(self):
        rng = np.random.default_rng(61)
        for k in range(120):
            fields = {"n_range": (10, 20)} if k % 3 == 0 else {}
            dag = normalize_source_sink(gen_dag(GenConfig(**fields), rng))
            paths = source_paths(dag)
            assert [len(p) for p in paths] == count_paths(dag)
            assert paths == [walked_paths(dag, v) for v in range(dag.n)]

    def test_long_chain_needs_no_recursion(self):
        # deeper than the interpreter's recursion limit
        n = sys.getrecursionlimit() + 200
        paths = source_paths(Dag([1] * n, [(v, v + 1) for v in range(n - 1)]))
        assert paths[-1] == [tuple(range(n))]
        assert [len(p) for p in paths] == [1] * n


class TestTaskTypes:
    def test_constrained_deadline_enforced(self):
        with pytest.raises(ValidationError):
            DagTask(Dag([5], []), deadline=4, period=10)   # span > deadline
        with pytest.raises(ValidationError):
            DagTask(Dag([5], []), deadline=12, period=10)  # deadline > period

    def test_non_positive_counts_rejected(self):
        with pytest.raises(ValidationError, match="positive"):
            DagTask(Dag([0], []), deadline=0, period=0)
        with pytest.raises(ValidationError, match="positive"):
            TaskSet([antimonotone_task()], 0)

    @pytest.mark.parametrize("m", [-1, 2.5, True])
    def test_bad_processor_count_rejected(self, m):
        with pytest.raises(ValidationError) as info:
            TaskSet([antimonotone_task()], m)
        assert info.value.rule == "processors"

    @pytest.mark.parametrize("tasks", [None, [5], "ab", [antimonotone_task(), None]],
                             ids=["none", "int-task", "string", "none-task"])
    def test_malformed_tasks_rejected(self, tasks):
        with pytest.raises(ValidationError) as info:
            TaskSet(tasks, 2)
        assert info.value.rule == "tasks"

    @pytest.mark.parametrize("dag", [None, [1, 2], (Dag([1], []),)],
                             ids=["none", "wcet-list", "tuple"])
    def test_malformed_dag_rejected(self, dag):
        with pytest.raises(ValidationError) as info:
            DagTask(dag, 5, 5)
        assert info.value.rule == "dag"

    def test_equal_dags_hash_equal(self):
        # `edges` is sorted with no duplicates, so the input's edge order,
        # a repeated edge and numpy WCETs change neither equality nor hash
        dag = Dag([1, 2, 3, 4], [(0, 1), (0, 2), (1, 3), (2, 3)])
        same = [Dag([1, 2, 3, 4], [(2, 3), (1, 3), (0, 2), (0, 1)]),
                Dag([1, 2, 3, 4], [(0, 1), (0, 1), (1, 3), (0, 2), (2, 3), (1, 3)]),
                Dag(np.array([1, 2, 3, 4]), [(np.int64(0), 1), (0, 2), (1, 3), (2, 3)])]
        for other in same:
            assert other == dag and hash(other) == hash(dag)
        others = [Dag([1, 2, 3, 5], dag.edges), Dag([1, 2, 3, 4], dag.edges[1:])]
        assert len({dag, *same, *others}) == 3

    def test_derived_fields(self):
        task = antimonotone_task()
        assert (task.work, task.span) == (13, 8)
        assert task.work / task.period <= task.work / task.span


class TestJson:
    def test_round_trip_identity(self, rng, tmp_path):
        tasks = []
        for idx in range(4):
            dag = random_dag(rng, wcet_min=1)
            length = span(dag)
            tasks.append(DagTask(dag, length + 5, length + 9))
        ts = TaskSet(tasks, 4)
        path = tmp_path / "ts.json"
        save_taskset(ts, path)
        loaded = load_taskset(path)
        assert taskset_to_dict(loaded) == taskset_to_dict(ts)
        # a second round trip is byte-identical
        path2 = tmp_path / "ts2.json"
        save_taskset(loaded, path2)
        assert path.read_text() == path2.read_text()

    def test_schema_errors(self):
        with pytest.raises(ValidationError):
            taskset_from_dict({"tasks": [{}]})
        with pytest.raises(ValidationError):
            taskset_from_dict({"tasks": [{"period": 5}], "processors": 1})
