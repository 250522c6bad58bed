"""Fixed-point response-time bounds and the schedulability test."""

import gc
import types

import numpy as np
import pytest

from dagsched import rta, sim, workload
from dagsched.dag import Dag, DagTask, TaskSet
from dagsched.errors import ValidationError
from dagsched.instances import antimonotone_task
from dagsched.taskgen import GenConfig, assign_priorities_dm, gen_taskset


def two_task_set():
    """Hand-derived fixed point (m=1).

    High: single vertex C=4, T=D=10 -> bound 4 (its seed).
    Low:  chain (3,3), C=L=6, T=D=20.  Iterates: R0=6; W_high(6) with
    q=0 exposes one whole job, W=4 -> R1=10; W_high(10): gamma=4, every
    split yields 4 -> R2=10 fixed.  Simulation confirms response 10 is
    reached (release together, the chain runs [4,10)).
    """
    high = DagTask(Dag([4], []), 10, 10)
    low = DagTask(Dag([3, 3], [(0, 1)]), 20, 20)
    return TaskSet([high, low], 1)


class TestResponseTimeBound:
    def test_highest_priority_is_seed(self):
        # C=13, L=8, m=2 -> 8 + ceil(5/2) = 11
        task = antimonotone_task(deadline=15, period=20)
        ts = TaskSet([task], 2)
        rep = rta.schedulability_test(ts, method="ilp")
        assert rep.bounds == [11]
        assert rep.schedulable

    def test_sequential_task_alone(self):
        task = DagTask(Dag([3, 3], [(0, 1)]), 10, 10)  # C = L = 6
        for m in (1, 2, 8):
            rep = rta.schedulability_test(TaskSet([task], m), method="ilp")
            assert rep.bounds == [6]

    @pytest.mark.parametrize("method", rta.METHODS)
    def test_two_task_fixed_point(self, method):
        rep = rta.schedulability_test(two_task_set(), method=method)
        assert rep.bounds == [4, 10]
        assert rep.schedulable

    def test_two_task_simulation_confirms(self):
        ts = two_task_set()
        res = sim.simulate(ts, 1, 60, release_policy="periodic", exec_policy="wcet")
        worst = {}
        for t_idx, _, resp in res.response_times():
            worst[t_idx] = max(worst.get(t_idx, 0), resp)
        assert worst[1] <= 10
        assert worst[1] == 10  # the bound is tight here


class TestSchedulabilityTest:
    def test_coarse_interferer_over_a_long_window(self):
        # a period-10 chain of two unit vertices above a fork of three
        # vertices of WCET 10^7 (span 2*10^7, work 3*10^7) on 2 processors:
        # each interfering window spans millions of periods, and the bound's
        # cost does not grow with that count
        k = 10 ** 7
        high = DagTask(Dag([1, 1], [(0, 1)]), 10, 10)
        low = DagTask(Dag([k, k, k], [(0, 1), (0, 2)]), 3 * k, 3 * k)
        rep = rta.schedulability_test(TaskSet([high, low], 2), method="ilp")
        assert rep.bounds == [2, 27777778] and rep.schedulable

    def test_seed_exceeding_deadline_rejected_at_init(self):
        # span <= deadline (type invariant) but seed = span + (C-span)/m > D
        task = DagTask(Dag([5, 5], []), 6, 10)  # C=10, L=5, m=1 -> seed 10 > 6
        rep = rta.schedulability_test(TaskSet([task], 1), method="ilp")
        assert not rep.schedulable
        assert rep.failed_at == 0
        assert rep.iterations == [0]
        assert rep.to_dict()["bounds"] == ["exceeded"]

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError, match="method must be one of"):
            rta.schedulability_test(two_task_set(), method="bogus")
        with pytest.raises(ValidationError) as err:
            rta.schedulability_test(two_task_set(), method=None)
        assert err.value.rule == "method"

    @pytest.mark.parametrize("m", [0, 2.5, -1, True], ids=["zero", "float", "negative", "bool"])
    @pytest.mark.parametrize("method", rta.METHODS)
    def test_explicit_processor_count_checked_like_a_task_set(self, m, method):
        # the rule of TaskSet.processors: m=0 used to divide by zero, and
        # 2.5, -1 and True gave bounds
        with pytest.raises(ValidationError) as info:
            rta.schedulability_test(two_task_set(), method=method, m=m)
        assert info.value.rule == "processors"

    def test_explicit_processor_count_may_be_a_numpy_integer(self):
        ts = two_task_set()
        got = rta.schedulability_test(ts, m=np.int64(2))
        assert got.processors == 2 and type(got.processors) is int
        assert got.bounds == rta.schedulability_test(ts, m=2).bounds

    def test_single_feasible_task(self):
        task = DagTask(Dag([5, 5], []), 10, 10)  # seed on m=2: 5 + ceil(5/2)=8
        rep = rta.schedulability_test(TaskSet([task], 2), method="ilp")
        assert rep.schedulable and rep.bounds == [8]

    def test_empty_taskset_vacuously_schedulable(self):
        rep = rta.schedulability_test(TaskSet([], 4), method="ilp")
        assert rep.schedulable and rep.bounds == []

    def test_schedulable_iff_no_task_failed(self):
        # the verdict is read from failed_at, so the two cannot disagree
        failed = rta.AnalysisReport("ilp", 1, [4, None], [0, 1], failed_at=1)
        assert not failed.schedulable and failed.verdict == "unschedulable"
        assert failed.to_dict()["bounds"] == [4, "exceeded"]
        assert rta.AnalysisReport("ilp", 1, [4, 10], [0, 2]).schedulable
        rep = rta.schedulability_test(two_task_set())
        assert rep.schedulable and rep.failed_at is None and "schedulable" not in vars(rep)

    def test_no_table_outlives_the_analysis(self, monkeypatch):
        # every object reachable from the task set, types, modules and
        # functions left out, after an analysis that built tables
        built = []
        build = workload._tables
        monkeypatch.setattr(workload, "_tables", lambda dag, m: built.append(m) or build(dag, m))
        cfg = GenConfig(n_range=(3, 6), seed=9)
        ts = assign_priorities_dm(gen_taskset(3.0, 4, cfg))
        rta.schedulability_test(ts, method="ilp")
        assert built
        seen, stack, arrays = set(), [ts], []
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(
                    obj, (type, types.ModuleType, types.FunctionType)):
                continue
            seen.add(id(obj))
            arrays += [obj] if isinstance(obj, np.ndarray) else []
            stack.extend(gc.get_referents(obj))
        assert len(seen) > 10 * len(ts.tasks) and not arrays
        assert not any(hasattr(task.dag, "profile") for task in ts.tasks)

    def test_determinism(self):
        cfg = GenConfig(n_range=(3, 6), seed=9)
        ts = assign_priorities_dm(gen_taskset(3.0, 4, cfg))
        a = rta.schedulability_test(ts, method="ilp").to_dict()
        b = rta.schedulability_test(ts, method="ilp").to_dict()
        a.pop("wall_time_s"), b.pop("wall_time_s")
        assert a == b

    def test_report_fields(self):
        rep = rta.schedulability_test(two_task_set(), method="melani")
        doc = rep.to_dict()
        assert doc["verdict"] == "schedulable"
        assert doc["bounds"] == [4, 10]
        assert len(doc["iterations"]) == 2

    def test_bounds_at_least_seed(self, rng):
        cfg = GenConfig(n_range=(3, 7), seed=5)
        for i in range(20):
            local = np.random.default_rng(np.random.SeedSequence((5, i)))
            ts = assign_priorities_dm(gen_taskset(2.5, 4, cfg, local))
            rep = rta.schedulability_test(ts, method="ilp")
            for task, bound in zip(ts.tasks, rep.bounds):
                if bound is not None:
                    assert bound >= rta.seed_bound(task, 4)

    def test_iteration_budget(self, rng):
        # termination within D - seed + 1 iterations per task
        cfg = GenConfig(n_range=(3, 7), seed=6)
        for i in range(15):
            local = np.random.default_rng(np.random.SeedSequence((6, i)))
            ts = assign_priorities_dm(gen_taskset(3.0, 4, cfg, local))
            rep = rta.schedulability_test(ts, method="ilp")
            for task, iters in zip(ts.tasks, rep.iterations):
                # an init-rejected task never iterates; otherwise each
                # iteration raises the bound by at least one time unit
                budget = max(task.deadline - rta.seed_bound(task, 4) + 2, 0)
                assert iters <= budget


class TestDominance:
    def test_ilp_bounds_never_worse(self, rng):
        cfg = GenConfig(n_range=(3, 8), seed=11)
        for i in range(60):
            local = np.random.default_rng(np.random.SeedSequence((11, i)))
            m = int(local.integers(2, 17))
            util = float(local.uniform(0.5, 0.45 * m))
            ts = assign_priorities_dm(gen_taskset(util, m, cfg, local))
            ri = rta.schedulability_test(ts, method="ilp")
            rm = rta.schedulability_test(ts, method="melani")
            if rm.schedulable:
                assert ri.schedulable
            for bi, bm in zip(ri.bounds, rm.bounds):
                if bi is not None and bm is not None:
                    assert bi <= bm
