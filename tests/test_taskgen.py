"""Random task and task-set generation."""

from itertools import combinations, compress

import numpy as np
import pytest

from dagsched import rta
from dagsched.dag import Dag, DagTask, TaskSet, span, taskset_to_dict, work
from dagsched.errors import ValidationError
from dagsched.taskgen import (
    MAX_VERTICES, GenConfig, UTIL_TOL, _draw_deadline, _fit_period, assign_priorities_dm,
    gen_dag, gen_task, gen_taskset,
)


def reference_gen_dag(config, rng):
    """`gen_dag` with one scalar draw per edge and a connectivity fix-up that
    links the latest usable vertex of the merged prefix to each next
    component's earliest vertex, components sorted by earliest position.
    Returns the WCETs and the edge set."""
    n = int(rng.integers(config.n_range[0], config.n_range[1] + 1))
    order = [int(v) for v in rng.permutation(n)]
    pos = {v: i for i, v in enumerate(order)}
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < config.edge_prob:
                edges.append((order[i], order[j]))
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in edges:
        parent[find(a)] = find(b)
    comps = {}
    for v in range(n):
        comps.setdefault(find(v), []).append(v)
    groups = sorted(comps.values(), key=lambda vs: min(pos[v] for v in vs))
    merged = groups[0]
    for nxt in groups[1:]:
        head = min(nxt, key=lambda v: pos[v])
        tail = max((v for v in merged if pos[v] < pos[head]), key=lambda v: pos[v])
        edges.append((tail, head))
        merged = merged + nxt
    wcets = [int(w) for w in rng.integers(config.wcet_range[0],
                                          config.wcet_range[1] + 1, size=n)]
    return tuple(wcets), tuple(sorted(set(edges)))


def kept_gen_dag(config, rng):
    """`gen_dag` as it was before union-find: one bit-mask flood from each
    component's earliest position h, which gets the link (h - 1, h)."""
    n = int(rng.integers(config.n_range[0], config.n_range[1] + 1))
    order = rng.permutation(n).tolist()
    hits = (rng.random(n * (n - 1) // 2) < config.edge_prob).tolist()
    pairs = list(compress(combinations(range(n), 2), hits))
    adj = [0] * n
    for i, j in pairs:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    seen = 0
    for h in range(n):
        if seen >> h & 1:
            continue
        if h:
            pairs.append((h - 1, h))
        seen |= 1 << h
        stack = [h]
        while stack:
            new = adj[stack.pop()] & ~seen
            seen |= new
            while new:
                low = new & -new
                stack.append(low.bit_length() - 1)
                new ^= low
    edges = [(order[i], order[j]) for i, j in pairs]
    wcets = rng.integers(config.wcet_range[0], config.wcet_range[1] + 1, size=n).tolist()
    return Dag(wcets, edges)


def reference_gen_taskset(total_util, m, config, rng):
    """`gen_taskset`'s loop with one append per branch and no stop check.
    Returns the tasks and the number of tasks that absorbed half a gap."""
    tol = UTIL_TOL * total_util
    tasks = []
    cum = 0.0
    absorbed = 0
    while cum < total_util - tol:
        gap = total_util - cum
        dag = gen_dag(config, rng)
        task = gen_task(dag, config, rng)
        util = task.work / task.period
        if cum + util < total_util - tol:
            tasks.append(task)
            cum += util
            continue
        period = _fit_period(task.work, task.span, gap)
        if abs(task.work / period - gap) <= tol:
            deadline = _draw_deadline(rng, task.span, period)
            task = DagTask(task.dag, deadline, period)
            tasks.append(task)
            cum += task.work / task.period
            break
        absorbed += 1
        period = _fit_period(task.work, task.span, gap / 2)
        deadline = _draw_deadline(rng, task.span, period)
        task = DagTask(task.dag, deadline, period)
        tasks.append(task)
        cum += task.work / task.period
    return tasks, absorbed


def task_key(task):
    return task.dag.wcets, task.dag.edges, task.deadline, task.period


class TestGenDag:
    @pytest.mark.parametrize("fields", [
        {}, {"n_range": (10, 20)}, {"n_range": (1, 1)}, {"n_range": (30, 60)},
        {"edge_prob": 0.0}, {"edge_prob": 1.0}, {"wcet_range": (1, 1)},
    ], ids=["default", "n-10-20", "n-1", "n-30-60", "edge-prob-0", "edge-prob-1", "wcet-1"])
    def test_matches_reference(self, fields):
        cfg = GenConfig(**fields)
        for seed in range(300):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            dag = gen_dag(cfg, rng)
            assert (dag.wcets, dag.edges) == reference_gen_dag(cfg, ref_rng)
            assert rng.random() == ref_rng.random()  # same number of draws


    @pytest.mark.parametrize("fields", [
        {}, {"n_range": (10, 20)}, {"n_range": (1, 1)}, {"edge_prob": 0.0},
        {"edge_prob": 1.0}, {"n_range": (30, 60), "edge_prob": 0.05},
    ], ids=["desk", "paper", "n-1", "edge-prob-0", "edge-prob-1", "n-30-60-sparse"])
    def test_same_dags_as_kept_flood_fill(self, fields):
        cfg = GenConfig(**fields)
        rng, kept_rng = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(400):
            assert gen_dag(cfg, rng) == kept_gen_dag(cfg, kept_rng)
        assert rng.random() == kept_rng.random()  # the same draws

    @pytest.mark.parametrize("field, most, text", [
        ("n_range", MAX_VERTICES, str(MAX_VERTICES)), ("wcet_range", 2**63 - 1, r"2\^63 - 1"),
    ], ids=["n_range", "wcet_range"])
    def test_ranges_past_int64_refused(self, field, most, text):
        # numpy draws both ends as int64s, so 2^63 - 1 is the largest end;
        # a vertex count stops at MAX_VERTICES, well below it
        assert getattr(GenConfig(**{field: (1, most)}), field) == (1, most)
        for pair in ((1, 2**63), (2**63, 2**63), (1, 10**20)):
            with pytest.raises(ValidationError, match=rf"{field} must be .* \[1, {text}\]"):
                GenConfig(**{field: pair})

    def test_numpy_range_ends_kept_as_ints(self):
        cfg = GenConfig(n_range=[np.int64(3), np.int64(5)],
                        wcet_range=(np.uint64(1), np.int64(2**63 - 1)))
        assert cfg.n_range == (3, 5) and cfg.wcet_range == (1, 2**63 - 1)
        assert all(type(x) is int for x in cfg.n_range + cfg.wcet_range)

    @pytest.mark.parametrize("n", [MAX_VERTICES + 1, 2**62, 2**63 - 1])
    def test_vertex_count_past_the_bound_refused(self, n):
        # the edge draws grow as n^2, so a range that could draw more than
        # MAX_VERTICES vertices is refused when the config is made, before
        # any draw; the bound itself is drawn
        for pair in ((n, n), (1, n)):
            with pytest.raises(ValidationError, match=rf"n_range must be .* \[1, {MAX_VERTICES}\]") \
                    as err:
                GenConfig(n_range=pair)
            assert err.value.rule == "config"
        assert gen_dag(GenConfig(n_range=(MAX_VERTICES, MAX_VERTICES), edge_prob=0.0),
                       np.random.default_rng(0)).n == MAX_VERTICES

    def test_full_probability_gives_complete_dag(self, rng):
        cfg = GenConfig(edge_prob=1.0, n_range=(5, 5), seed=0)
        dag = gen_dag(cfg, rng)
        assert len(dag.edges) == 10  # all forward pairs of the ordering

    def test_zero_probability_gives_spanning_tree(self, rng):
        cfg = GenConfig(edge_prob=0.0, n_range=(4, 4), seed=0)
        dag = gen_dag(cfg, rng)
        assert len(dag.edges) == 3  # minimum edges for weak connectivity

    def test_determinism(self):
        cfg = GenConfig(seed=7, n_range=(5, 9))
        a = gen_dag(cfg, cfg.rng())
        b = gen_dag(cfg, cfg.rng())
        assert a == b

    def test_connected_and_acyclic(self, rng):
        cfg = GenConfig(n_range=(3, 12), seed=0)
        for _ in range(200):
            dag = gen_dag(cfg, rng)
            Dag(dag.wcets, dag.edges)  # acyclic, well-formed
            # weak connectivity via union-find over undirected edges
            parent = list(range(dag.n))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for a, b in dag.edges:
                parent[find(a)] = find(b)
            assert len({find(v) for v in range(dag.n)}) == 1


class TestGenTask:
    def test_sequential_chain_range(self, rng):
        cfg = GenConfig(edge_prob=1.0, n_range=(3, 3), wcet_range=(4, 4), seed=0)
        for _ in range(40):
            dag = gen_dag(cfg, rng)
            assert work(dag) == span(dag)  # complete order = chain
            task = gen_task(dag, cfg, rng)
            assert task.period >= task.work
            assert task.span <= task.deadline <= task.period

    def test_determinism(self):
        cfg = GenConfig(seed=13)
        a = gen_task(gen_dag(cfg, cfg.rng()), cfg, cfg.rng())
        b = gen_task(gen_dag(cfg, cfg.rng()), cfg, cfg.rng())
        assert a.dag == b.dag and (a.deadline, a.period) == (b.deadline, b.period)

    def test_parameter_ranges_bulk(self, rng):
        cfg = GenConfig(n_range=(5, 10), seed=0)
        for _ in range(2000):
            dag = gen_dag(cfg, rng)
            task = gen_task(dag, cfg, rng)
            assert task.span <= task.deadline <= task.period
            util = task.work / task.period
            assert util <= task.work / task.span + 1e-9
            # rounding the period can undershoot beta by at most one time unit
            assert util >= cfg.beta * (1 - 1 / task.period) - 1e-9


class TestGenTaskset:
    def test_minimum_utilization_single_task(self):
        cfg = GenConfig(seed=2)
        ts = gen_taskset(cfg.beta, 4, cfg)
        assert len(ts.tasks) == 1

    def test_total_utilization_tolerance(self):
        for seed in range(30):
            cfg = GenConfig(n_range=(5, 10), beta=0.2, seed=seed)
            ts = gen_taskset(8.0, 16, cfg)
            total = sum(t.work / t.period for t in ts.tasks)
            assert abs(total - 8.0) <= UTIL_TOL * 8.0

    def test_determinism(self):
        cfg = GenConfig(seed=21)
        a = gen_taskset(4.0, 8, cfg)
        b = gen_taskset(4.0, 8, cfg)
        assert taskset_to_dict(a) == taskset_to_dict(b)

    def test_utilization_above_processors_refused(self):
        # no such set is feasible; 1e300 would keep appending tasks forever
        cfg = GenConfig(seed=3)
        assert sum(t.work / t.period for t in gen_taskset(4.0, 4, cfg).tasks) <= 4.0 * (1 + UTIL_TOL)
        for util in (4.001, 1e300):
            with pytest.raises(ValidationError) as err:
                gen_taskset(util, 4, cfg)
            assert err.value.rule == "util"

    @pytest.mark.parametrize("util, m, rule", [
        ("2", 4, "util"), (None, 4, "util"), (True, 4, "util"), (float("nan"), 4, "util"),
        (0.5, 0, "processors"), (0.5, -1, "processors"), (0.5, 4.5, "processors"),
        (0.5, True, "processors"), (0.5, "4", "processors"), (1e-320, 4, "util"),
        (5e-324, 4, "util"),
    ])
    def test_bad_arguments_refused_before_the_first_draw(self, util, m, rule):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ValidationError) as err:
            gen_taskset(util, m, GenConfig(), rng)
        assert err.value.rule == rule
        assert "exceeds" not in str(err.value)
        assert rng.bit_generator.state == state

    def test_smallest_utilization_with_float_periods(self):
        # periods stay below 2 * 10 * 100 / (1e-3 * util), finite at 1e-300
        cfg = GenConfig(seed=6)
        ts = gen_taskset(1e-300, 4, cfg)
        assert abs(sum(t.work / t.period for t in ts.tasks) - 1e-300) <= UTIL_TOL * 1e-300
        with pytest.raises(ValidationError, match="too small for a float period"):
            gen_taskset(1e-305, 4, cfg)

    def test_numpy_processor_count_draws_the_same_set(self):
        cfg = GenConfig(seed=4)
        ts = gen_taskset(3.0, np.int64(4), cfg)
        assert type(ts.processors) is int
        assert taskset_to_dict(ts) == taskset_to_dict(gen_taskset(3.0, 4, cfg))


    def test_stop_cuts_at_the_first_stopping_task(self):
        """On seeded (util, m, config) draws, `stop` sees the full set's
        tasks in order, in their final form, and the result is None iff one
        of them stops it; otherwise the set is the full set.  The full set
        equals the reference loop's, with the same next draw."""
        master = np.random.default_rng(20240811)
        cut = absorbed = last_doomed = 0
        for seed in range(600):
            m = int(master.integers(1, 17))
            util = float(master.uniform(0.05, 1.0)) * m
            lo = int(master.integers(1, 9))
            wcet_lo = int(master.integers(1, 50))
            cfg = GenConfig(edge_prob=float(master.uniform(0, 1)),
                            n_range=(lo, lo + int(master.integers(0, 6))),
                            wcet_range=(wcet_lo, wcet_lo + int(master.integers(0, 100))),
                            beta=float(master.uniform(0.05, 1)))
            ref_rng = np.random.default_rng(seed)
            ref_tasks, ref_absorbed = reference_gen_taskset(util, m, cfg, ref_rng)
            full_rng = np.random.default_rng(seed)
            full = gen_taskset(util, m, cfg, full_rng)
            assert list(map(task_key, full.tasks)) == list(map(task_key, ref_tasks))
            assert full.processors == m
            assert full_rng.integers(1 << 62) == ref_rng.integers(1 << 62)

            def doomed(task):
                return rta.seed_bound(task, m) > task.deadline

            first = next((k for k, t in enumerate(full.tasks) if doomed(t)), None)
            seen = []
            result = gen_taskset(util, m, cfg, np.random.default_rng(seed),
                                 stop=lambda t: seen.append(task_key(t)) or doomed(t))
            if first is None:
                assert list(map(task_key, result.tasks)) == list(map(task_key, full.tasks))
                assert seen == list(map(task_key, full.tasks))
            else:
                assert result is None
                assert seen == list(map(task_key, full.tasks[:first + 1]))
                cut += 1
                last_doomed += first == len(full.tasks) - 1
            absorbed += ref_absorbed > 0
        # both outcomes, the absorbing branch and a crossing task that is
        # itself the first doomed task all occur
        assert 100 < cut < 500 and absorbed > 10 and last_doomed > 10


class TestDeadlineMonotonic:
    def _mk(self, deadlines):
        tasks = [DagTask(Dag([1], []), d, d + 10) for d in deadlines]
        return TaskSet(tasks, 2)

    def test_sorts_by_deadline(self):
        ts = assign_priorities_dm(self._mk([30, 10, 20]))
        assert [t.deadline for t in ts.tasks] == [10, 20, 30]

    def test_stable_ties(self):
        ts = self._mk([10, 10, 5])
        first, second = ts.tasks[0], ts.tasks[1]
        out = assign_priorities_dm(ts)
        assert out.tasks[1].dag is first.dag   # original order kept among ties
        assert out.tasks[2].dag is second.dag

    def test_single_task(self):
        ts = assign_priorities_dm(self._mk([7]))
        assert len(ts.tasks) == 1
