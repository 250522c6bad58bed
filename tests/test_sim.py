"""Discrete-event G-FP simulator, critical chains and interference."""

import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from operator import itemgetter

import numpy as np
import pytest

from conftest import interference_scenario, random_dag
import dagsched
from dagsched import sim
from dagsched.dag import Dag, DagTask, TaskSet, span
from dagsched.errors import SimulationError
from dagsched.instances import antimonotone_task
from dagsched.taskgen import GenConfig, assign_priorities_dm, gen_taskset


def single_task_set(task, m):
    return TaskSet([task], m)


def reference_audit(res):
    """The quadratic audit: rebuilds the running and waiting sets from every
    segment and every subtask at each event point."""
    by_proc = {}
    for seg in res.segments:
        by_proc.setdefault(seg[0], []).append(seg)
    for proc, segs in by_proc.items():
        segs.sort(key=lambda s: s[4])
        for a, b in zip(segs, segs[1:]):
            assert a[5] <= b[4], f"processor {proc} overlaps: {a} / {b}"

    job_map = {(j.task_index, j.job_index): j for j in res.jobs}
    for seg in res.segments:
        _, task, jnum, v, start, _ = seg
        job = job_map[(task, jnum)]
        ready = job.subtask_ready[v]
        assert ready is not None and start >= ready, \
            f"segment {seg} starts before readiness {ready}"
        dag = res.taskset.tasks[task].dag
        for p in dag.preds[v]:
            comp = job.subtask_completion[p]
            assert comp is not None and start >= comp, \
                f"segment {seg} starts before predecessor {p} completes"

    points = sorted({s[4] for s in res.segments} | {s[5] for s in res.segments}
                    | {j.release for j in res.jobs})
    m = res.processors

    def rank(job, v):
        return (job.task_index, job.release, job.job_index, v)

    for lo, hi in zip(points, points[1:]):
        running = {(task, jnum, v)
                   for _, task, jnum, v, start, end in res.segments
                   if start <= lo and end >= hi}
        waiting = []
        for job in res.jobs:
            if job.release > lo:
                continue
            for v in range(len(job.exec_times)):
                ready = job.subtask_ready[v]
                comp = job.subtask_completion[v]
                if ready is not None and ready <= lo and (comp is None or comp > lo):
                    if job.exec_times[v] > 0 and (job.task_index, job.job_index, v) not in running:
                        waiting.append(rank(job, v))
        if waiting:
            assert len(running) == m, \
                f"work conservation violated in [{lo},{hi}): {len(running)} running"
            worst_running = max(rank(job_map[(ti, ji)], v) for ti, ji, v in running)
            assert worst_running < min(waiting), \
                f"priority inversion in [{lo},{hi})"


# Kept versions of the critical chain (a maximum over all completions per
# vertex), the blocked intervals (a scan of all the job's segments per chain
# subtask) and the audit (a check per predecessor per segment): `sim`'s
# versions must give the same results and messages.
_START = itemgetter(4)


def kept_extract_critical_chain(sim, job):
    """Chain of subtask ids rebuilt through last-completing predecessors.

    Ties among equal completion times break toward the lowest subtask id.
    """
    if job.completion is None:
        raise SimulationError("job did not complete within the trace")
    dag = sim.taskset.tasks[job.task_index].dag
    comp = job.subtask_completion
    last = min(v for v in range(dag.n) if comp[v] == max(comp))
    chain = [last]
    while dag.preds[chain[0]]:
        preds = dag.preds[chain[0]]
        best = max(comp[p] for p in preds)
        chain.insert(0, min(p for p in preds if comp[p] == best))
    return chain


def kept_blocked_intervals(sim, job, chain):
    """Intervals where the current critical subtask is ready but not running."""
    comp = job.subtask_completion
    cur = job.release
    blocked = []
    for v in chain:
        if job.subtask_ready[v] != cur:
            raise SimulationError("chain/trace mismatch: ready times do not chain")
        for _, _, _, subtask, start, end in job.segments:
            if subtask == v:
                if start > cur:
                    blocked.append((cur, start))
                cur = end
        if cur < comp[v]:
            blocked.append((cur, comp[v]))
        cur = comp[v]
    if cur != job.completion:
        raise SimulationError("chain/trace mismatch: chain does not end the job")
    return blocked


def kept_audit_trace(sim) -> None:
    """Check work conservation, precedence and priority rules on a trace.

    Raises AssertionError on the first violation.
    """
    by_proc = {}
    for seg in sim.segments:
        by_proc.setdefault(seg[0], []).append(seg)
    for proc, segs in by_proc.items():
        segs.sort(key=_START)
        for a, b in zip(segs, segs[1:]):
            if a[5] > b[4]:
                raise AssertionError(f"processor {proc} overlaps: {a} / {b}")

    # rank numbers: the jobs in rank order (task index, job index), computed
    # once per job, each followed by its subtask ids; a smaller number is a
    # higher rank, and a number names one subtask of one job
    tasks = sim.taskset.tasks
    job_map = {(j.task_index, j.job_index): j for j in sim.jobs}
    base, number = {}, 0
    for key in sorted(job_map):
        base[key] = number
        number += len(job_map[key].exec_times)

    spans = []  # (start, end, rank number) of every segment
    for seg in sim.segments:
        _, task, jnum, v, start, end = seg
        key = (task, jnum)
        job = job_map[key]
        ready = job.subtask_ready[v]
        if ready is None or start < ready:
            raise AssertionError(f"segment {seg} starts before readiness {ready}")
        for p in tasks[task].dag.preds[v]:
            comp = job.subtask_completion[p]
            if comp is None or start < comp:
                raise AssertionError(f"segment {seg} starts before predecessor {p} completes")
        spans.append((start, end, base[key] + v))

    # priority correctness + work conservation between event points, in one
    # sweep that keeps the running segments and the ready subtasks
    points = sorted({s[0] for s in spans} | {s[1] for s in spans}
                    | {j.release for j in sim.jobs})
    spans.sort(key=itemgetter(0))
    readies = sorted(((max(job.release, r), job.subtask_completion[v], base[key] + v)
                      for key, job in job_map.items() for v, r in enumerate(job.subtask_ready)
                      if r is not None and job.exec_times[v] > 0),
                     key=itemgetter(0))
    live, ready = [], []
    i = j = 0
    n_spans, n_readies = len(spans), len(readies)
    for lo, hi in zip(points, points[1:]):
        while i < n_spans and spans[i][0] <= lo:
            live.append(spans[i])
            i += 1
        while j < n_readies and readies[j][0] <= lo:
            ready.append(readies[j])
            j += 1
        live = [s for s in live if s[1] > lo]
        ready = [e for e in ready if e[1] is None or e[1] > lo]
        running = {s[2] for s in live}
        waiting = [e[2] for e in ready if e[2] not in running]
        if waiting:
            if len(running) != sim.processors:
                raise AssertionError(
                    f"work conservation violated in [{lo},{hi}): {len(running)} running")
            if not max(running) < min(waiting):
                raise AssertionError(f"priority inversion in [{lo},{hi})")


def reference_draw_exec(task, task_index, job_index, policy, rng):
    """One job's execution times, one scalar draw per subtask for "random"."""
    wcets = task.dag.wcets
    if isinstance(policy, dict):
        times = policy.get((task_index, job_index), wcets)
    elif policy == "wcet":
        times = wcets
    elif policy == "random":
        times = tuple(int(rng.integers(0, w + 1)) for w in wcets)
    else:
        raise SimulationError(f"unknown execution policy {policy!r}")
    times = tuple(int(x) for x in times)
    if len(times) != task.dag.n or any(not 0 <= x <= w for x, w in zip(times, wcets)):
        raise SimulationError("execution times must lie in [0, WCET] per subtask")
    return times


class ReferenceActiveJob:
    __slots__ = ("job", "dag", "remaining", "pending", "ready", "left")

    def __init__(self, job, dag):
        self.job = job
        self.dag = dag
        self.remaining = list(job.exec_times)
        self.pending = [len(dag.preds[v]) for v in range(dag.n)]
        self.ready = set()
        self.left = dag.n

    def complete(self, v, now, newly_ready):
        self.job.subtask_completion[v] = now
        self.ready.discard(v)
        self.left -= 1
        for b in self.dag.succs[v]:
            self.pending[b] -= 1
            if self.pending[b] == 0:
                self.job.subtask_ready[b] = now
                newly_ready.append(b)

    def admit_ready(self, vs, now):
        """Mark subtasks ready; zero-length ones complete instantly."""
        stack = list(vs)
        while stack:
            v = stack.pop()
            if self.remaining[v] == 0:
                more = []
                self.complete(v, now, more)
                stack.extend(more)
            else:
                self.ready.add(v)
        if self.left == 0:
            self.job.completion = now


def reference_simulate(taskset, m, horizon, release_policy="periodic",
                       exec_policy="wcet", rng=None):
    """The rebuild-and-sort simulator: draws each job's execution times at
    its release and ranks every ready subtask of every active job at every
    event."""
    release_map = sim._release_times(taskset, horizon, release_policy, rng)
    releases = sorted(
        (time, idx, j)
        for idx, times in release_map.items()
        for j, time in enumerate(times))

    jobs = []
    segments = []
    active = []
    ptr = 0
    if not releases:
        return sim.SimResult(taskset, m, horizon, segments, jobs)
    t = releases[0][0]

    while True:
        while ptr < len(releases) and releases[ptr][0] == t:
            _, idx, jnum = releases[ptr]
            ptr += 1
            task = taskset.tasks[idx]
            exec_times = reference_draw_exec(task, idx, jnum, exec_policy, rng)
            job = sim.Job(idx, jnum, t, t + task.deadline, exec_times,
                          subtask_ready=[None] * task.dag.n,
                          subtask_completion=[None] * task.dag.n)
            jobs.append(job)
            state = ReferenceActiveJob(job, task.dag)
            sources = [v for v in range(task.dag.n) if not task.dag.preds[v]]
            for v in sources:
                job.subtask_ready[v] = t
            state.admit_ready(sources, t)
            if state.left:
                active.append(state)

        ranked = []
        for state in active:
            for v in state.ready:
                ranked.append((state.job.task_index, state.job.release,
                               state.job.job_index, v, state))
        ranked.sort(key=lambda r: r[:4])
        running = ranked[:m]

        next_release = releases[ptr][0] if ptr < len(releases) else None
        if not running:
            if next_release is None:
                break
            t = next_release
            continue
        t_next = t + min(state.remaining[v] for *_, v, state in running)
        if next_release is not None:
            t_next = min(t_next, next_release)
        dt = t_next - t

        finished = []
        for slot, (_, _, _, v, state) in enumerate(running):
            seg = (slot, state.job.task_index, state.job.job_index, v, t, t_next)
            segments.append(seg)
            state.job.segments.append(seg)
            state.remaining[v] -= dt
            if state.remaining[v] == 0:
                finished.append((state, v))
        for state, v in finished:
            newly = []
            state.complete(v, t_next, newly)
            state.admit_ready(newly, t_next)
            if state.left == 0:
                active.remove(state)
        t = t_next

    return sim.SimResult(taskset, m, horizon, segments, jobs)


def job_facts(res):
    return [(j.task_index, j.job_index, j.release, j.abs_deadline, j.exec_times,
             j.subtask_ready, j.subtask_completion, j.completion, j.segments)
            for j in res.jobs]


def with_segments(res, segments):
    return sim.SimResult(res.taskset, res.processors, res.horizon, segments, res.jobs)


def random_mixes(seeds):
    """Simulated traces of small random task sets under every policy mix,
    some of them overloaded: a set of utilization above 2 on 2 processors."""
    for seed in seeds:
        cfg = GenConfig(n_range=(3, 6), wcet_range=(1, 9), seed=seed)
        rng = np.random.default_rng(seed)
        util, m = float(rng.uniform(1.0, 3.0)), int(rng.integers(2, 5))
        # gen_taskset refuses a utilization above its processor count
        tasks = gen_taskset(util, 3, cfg, rng).tasks
        ts = assign_priorities_dm(TaskSet(tasks, m))
        horizon = 2 * max(t.period for t in ts.tasks)
        for release in ("periodic", "sporadic"):
            for policy in ("wcet", "random"):
                yield sim.simulate(ts, ts.processors, horizon,
                                   release_policy=release, exec_policy=policy,
                                   rng=np.random.default_rng(seed + 1))


class TestSimulate:
    def test_unrestricted_processors_give_span(self):
        task = antimonotone_task(deadline=15, period=20)
        res = sim.simulate(single_task_set(task, 6), 6, 40)
        job = res.jobs[0]
        assert job.response == task.span

    def test_sequential_chain_on_one_processor(self):
        task = DagTask(Dag([3, 4, 2], [(0, 1), (1, 2)]), 9, 9)
        res = sim.simulate(single_task_set(task, 1), 1, 18)
        assert res.jobs[0].response == task.work

    def test_horizon_too_small_rejected(self):
        task = antimonotone_task(deadline=15, period=20)
        with pytest.raises(SimulationError):
            sim.simulate(single_task_set(task, 2), 2, 10)

    def test_sporadic_gaps_at_least_period(self, rng):
        task = antimonotone_task(deadline=15, period=20)
        res = sim.simulate(single_task_set(task, 2), 2, 200,
                           release_policy="sporadic", rng=rng)
        rel = [j.release for j in res.jobs]
        assert all(b - a >= task.period for a, b in zip(rel, rel[1:]))

    def test_random_exec_within_wcets(self, rng):
        task = antimonotone_task(deadline=15, period=20)
        res = sim.simulate(single_task_set(task, 2), 2, 100,
                           exec_policy="random", rng=rng)
        for job in res.jobs:
            assert all(0 <= x <= w for x, w in zip(job.exec_times, task.dag.wcets))

    def test_matches_reference_simulator(self):
        # m from 1 to 16, every release and execution policy, and a third of
        # the sets with every third WCET zeroed
        cfg = GenConfig(n_range=(2, 8), wcet_range=(1, 12))
        zero_wcets = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            m = 1 + seed % 16
            ts = assign_priorities_dm(gen_taskset(float(rng.uniform(0.3, 0.4 * m + 0.5)),
                                                  m, cfg, rng))
            if seed % 3 == 0:
                ts = TaskSet([replace(t, dag=Dag([0 if v % 3 == 0 else w
                                                  for v, w in enumerate(t.dag.wcets)],
                                                 t.dag.edges))
                              for t in ts.tasks], m)
                zero_wcets += 1
            release = ("periodic", "sporadic")[seed % 2]
            policy = ("random", "random", "wcet")[seed % 3]
            horizon = 2 * max(t.period for t in ts.tasks)
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sim.simulate(ts, m, horizon, release, policy, got_rng)
            want = reference_simulate(ts, m, horizon, release, policy, want_rng)
            assert got.segments == want.segments
            assert all(type(seg) is tuple and len(seg) == 6
                       and all(type(x) is int for x in seg) for seg in got.segments)
            assert job_facts(got) == job_facts(want)
            assert got_rng.integers(2**62) == want_rng.integers(2**62)
        assert zero_wcets > 60

    def test_scripted_releases_respect_the_period(self):
        task = DagTask(Dag([2, 3], [(0, 1)]), 10, 10)
        with pytest.raises(SimulationError, match="violate the period"):
            sim.simulate(single_task_set(task, 1), 1, 30, release_policy={0: [9, 0]})
        res = sim.simulate(single_task_set(task, 1), 1, 30, release_policy={0: [10, 0]})
        assert [j.release for j in res.jobs] == [0, 10]

    @pytest.mark.parametrize("m, policies, message", [
        (1, {"release_policy": "bursty"}, "unknown release policy"),
        (1, {"exec_policy": "bogus"}, "unknown execution policy"),
        (0, {}, "at least one processor"),
        (2.5, {}, "integer count"),
        (1, {"release_policy": {0: [2.5]}}, r"integers in \[0, horizon\)"),
        (1, {"release_policy": {0: [-5]}}, r"integers in \[0, horizon\)"),
        (1, {"release_policy": {0: [100]}}, r"integers in \[0, horizon\)"),
        (1, {"release_policy": {0: [30]}}, r"integers in \[0, horizon\)"),
        (1, {"release_policy": {5: [0]}}, "task outside the set"),
        (1, {"release_policy": {"0": [0]}}, "task outside the set"),
    ], ids=["release-policy", "exec-policy", "no-processors", "float-processors",
            "float-release", "negative-release", "release-past-horizon", "release-at-horizon",
            "unknown-task", "string-task"])
    def test_bad_run_settings_rejected(self, m, policies, message):
        task = DagTask(Dag([2, 3], [(0, 1)]), 10, 10)
        with pytest.raises(SimulationError, match=message):
            sim.simulate(single_task_set(task, 1), m, 30, **policies)

    def test_exec_times_outside_wcet_rejected(self):
        task = DagTask(Dag([2, 3], [(0, 1)]), 10, 10)
        for times in ((0, 4), (-1, 0), (1,), (1, 2, 3), (2.7, 3.9), (True, 3)):
            with pytest.raises(SimulationError, match=r"\[0, WCET\]"):
                sim.simulate(single_task_set(task, 1), 1, 10, exec_policy={(0, 0): times})

    def test_zero_exec_job_completes_at_release(self):
        task = DagTask(Dag([2, 3], [(0, 1)]), 10, 10)
        res = sim.simulate(single_task_set(task, 1), 1, 10,
                           exec_policy={(0, 0): (0, 0)})
        assert res.jobs[0].completion == res.jobs[0].release


class TestCriticalChain:
    def test_sequential_chain_is_whole_chain(self):
        task = DagTask(Dag([3, 4, 2], [(0, 1), (1, 2)]), 9, 9)
        res = sim.simulate(single_task_set(task, 1), 1, 18)
        assert sim.extract_critical_chain(res, res.jobs[0]) == [0, 1, 2]

    def test_fork_join_longer_branch(self):
        dag = Dag([1, 2, 5, 1], [(0, 1), (0, 2), (1, 3), (2, 3)])
        task = DagTask(dag, 10, 10)
        res = sim.simulate(single_task_set(task, 2), 2, 20)
        assert sim.extract_critical_chain(res, res.jobs[0]) == [0, 2, 3]

    def test_incomplete_job_rejected(self):
        job = sim.Job(0, 0, 0, 10, (1,), subtask_ready=[0],
                      subtask_completion=[None])
        task = DagTask(Dag([1], []), 10, 10)
        res = sim.SimResult(TaskSet([task], 1), 1, 10, [], [job])
        with pytest.raises(SimulationError):
            sim.extract_critical_chain(res, job)

    def test_same_chain_and_blocked_intervals_as_kept_versions(self):
        # on every job of the random mixes, and on each job's chain with its
        # first subtask dropped, which the blocked intervals must refuse
        # with the same message
        def outcome(fn, *args):
            try:
                return fn(*args)
            except SimulationError as exc:
                return str(exc)

        checked = refused = 0
        for res in random_mixes(range(12)):
            for job in res.jobs:
                chain = outcome(sim.extract_critical_chain, res, job)
                assert chain == outcome(kept_extract_critical_chain, res, job)
                if isinstance(chain, str):
                    continue
                for c in (chain, chain[1:]):
                    got = outcome(sim._blocked_intervals, res, job, c)
                    assert got == outcome(kept_blocked_intervals, res, job, c)
                    refused += isinstance(got, str)
                checked += 1
        assert checked > 100 and refused > 50

    def test_scripted_scenario_chain_and_interference(self):
        ts, m, releases, execs, k = interference_scenario()
        res = sim.simulate(ts, m, 120, release_policy=releases, exec_policy=execs)
        job = next(j for j in res.jobs if j.task_index == k)
        chain = sim.extract_critical_chain(res, job)
        assert chain == [0, 2, 4, 5]
        assert job.response == 14
        assert sim.critical_interference(res, job, chain) == 7
        assert sim._blocked_intervals(res, job, chain) == [
            (0, 2), (4, 5), (7, 9), (11, 13)]
        per_task = sim.interference_by_task(res, job, chain)
        assert sum(per_task.values()) == m * 7
        sim.audit_trace(res)


class TestInterference:
    def test_isolated_job_no_interference(self):
        task = antimonotone_task(deadline=15, period=20)
        res = sim.simulate(single_task_set(task, 8), 8, 40)
        job = res.jobs[0]
        chain = sim.extract_critical_chain(res, job)
        assert sim.critical_interference(res, job, chain) == 0

    def test_chain_mismatch_rejected(self):
        task = DagTask(Dag([3, 4, 2], [(0, 1), (1, 2)]), 9, 9)
        res = sim.simulate(single_task_set(task, 1), 1, 18)
        with pytest.raises(SimulationError):
            sim.critical_interference(res, res.jobs[0], [0, 2])

    def test_interference_identity_and_decomposition(self):
        # m * I_k equals the summed per-task processor time, exactly, and the
        # response decomposes into chain execution plus interference
        jobs_checked = 0
        for res in random_mixes(range(12)):
            m = res.processors
            for job in res.jobs:
                if job.completion is None:
                    continue
                chain = sim.extract_critical_chain(res, job)
                total = sim.critical_interference(res, job, chain)
                per_task = sim.interference_by_task(res, job, chain)
                assert sum(per_task.values()) == m * total
                assert sum(job.exec_times[v] for v in chain) + total == job.response
                jobs_checked += 1
        assert jobs_checked > 100

    def test_intra_task_bound_in_isolation(self):
        # chain length + I_kk/m <= span + (work - span)/m for a task alone
        rng = np.random.default_rng(5)
        for _ in range(25):
            dag = random_dag(rng, n_max=6, wcet_max=5, wcet_min=1)
            task = DagTask(dag, span(dag) + 20, span(dag) + 20)
            for m in (1, 2, 3):
                res = sim.simulate(single_task_set(task, m), m,
                                   2 * task.period, exec_policy="random",
                                   rng=np.random.default_rng(m))
                for job in res.jobs:
                    chain = sim.extract_critical_chain(res, job)
                    own = sim.interference_by_task(res, job, chain)[0]
                    lhs = sum(job.exec_times[v] for v in chain) + Fraction(own, m)
                    rhs = task.span + Fraction(task.work - task.span, m)
                    assert lhs <= rhs


class TestAudit:
    def test_random_traces_pass(self):
        rng = np.random.default_rng(31)
        for seed in range(8):
            cfg = GenConfig(n_range=(3, 6), wcet_range=(1, 9), seed=seed)
            local = np.random.default_rng(seed)
            ts = assign_priorities_dm(gen_taskset(2.0, 3, cfg, local))
            res = sim.simulate(ts, 3, 2 * max(t.period for t in ts.tasks),
                               release_policy="sporadic", exec_policy="random",
                               rng=local)
            sim.audit_trace(res)

    @staticmethod
    def _chain_trace(m=1):
        task = DagTask(Dag([3, 4, 2], [(0, 1), (1, 2)]), 9, 9)
        return sim.simulate(single_task_set(task, m), m, 9)

    def test_rejects_processor_overlap(self):
        res = self._chain_trace()
        proc, task, jnum, v, _, end = res.segments[0]
        bad = with_segments(res, res.segments + [(proc, task, jnum, v, end - 1, end + 1)])
        with pytest.raises(AssertionError, match="overlaps"):
            sim.audit_trace(bad)

    @pytest.mark.parametrize("ids", [(0, 0, -1), (0, 0, 3), (0, 5, 0), (1, 0, 0)])
    def test_rejects_segment_naming_no_simulated_subtask(self, ids):
        # subtask -1 must not read as the job's last subtask through
        # negative indexing, and an unknown job must not end in a KeyError
        res = self._chain_trace()
        last = res.segments[-1]
        bad = with_segments(res, res.segments[:-1] + [last[:1] + ids + last[4:]])
        with pytest.raises(AssertionError, match="names no subtask of a simulated job"):
            sim.audit_trace(bad)

    def test_rejects_segment_before_ready(self):
        res = self._chain_trace()
        res.jobs[0].subtask_ready[1] += 1
        with pytest.raises(AssertionError, match="before readiness"):
            sim.audit_trace(res)

    def test_rejects_segment_before_predecessor_completes(self):
        res = self._chain_trace()
        res.jobs[0].subtask_completion[0] += 1
        with pytest.raises(AssertionError, match="before predecessor 0 completes"):
            sim.audit_trace(res)

    def test_rejects_idle_processor_while_subtask_waits(self):
        task = DagTask(Dag([2, 2], []), 10, 10)
        res = sim.simulate(single_task_set(task, 2), 2, 10)
        assert len(res.segments) == 2
        with pytest.raises(AssertionError, match="work conservation"):
            sim.audit_trace(with_segments(res, res.segments[:1]))

    def test_rejects_priority_inversion(self):
        one = DagTask(Dag([2], []), 10, 10)
        res = sim.simulate(TaskSet([one, one], 1), 1, 10)
        high, low = res.segments
        assert (high[1], low[1]) == (0, 1)
        swapped = [low[:4] + high[4:], high[:4] + low[4:]]
        with pytest.raises(AssertionError, match="priority inversion"):
            sim.audit_trace(with_segments(res, swapped))

    def test_same_verdict_as_reference_on_mutated_traces(self):
        # kinds 0-3 mutate a segment, kinds 4-7 the record of a segment's
        # job: a subtask's ready time (4) or completion time (5) shifted by
        # 1..3 either way, one of them dropped (6), or its execution time
        # zeroed (7); the audit must give the reference's verdict and the
        # kept audit's message
        rng = np.random.default_rng(47)
        verdicts = {True: 0, False: 0}
        violations = ("overlaps", "before readiness", "before predecessor",
                      "work conservation", "priority inversion")
        seen = set()
        for res in random_mixes(range(12)):
            for _ in range(15):
                segs = list(res.segments)
                i = int(rng.integers(len(segs)))
                kind = int(rng.integers(8))
                jobs = res.jobs
                if kind == 0:
                    del segs[i]
                elif kind == 1:
                    d = int(rng.choice([-3, -2, -1, 1, 2, 3]))
                    _, _, _, _, start, end = segs[i]
                    segs[i] = segs[i][:4] + (start + d, end + d)
                elif kind == 2:
                    segs[i] = (int(rng.integers(res.processors)),) + segs[i][1:]
                elif kind == 3:
                    segs.append((int(rng.integers(res.processors)),) + segs[i][1:])
                else:
                    jobs = self._mutated_jobs(res, segs[i], kind, rng)
                bad = sim.SimResult(res.taskset, res.processors, res.horizon, segs, jobs)
                expect = self._passes(reference_audit, bad)
                assert self._passes(sim.audit_trace, bad) == expect
                message = self._message(sim.audit_trace, bad)
                assert message == self._message(kept_audit_trace, bad)
                assert (message is None) == expect
                verdicts[expect] += 1
                seen.update(v for v in violations if v in (message or ""))
        assert verdicts[True] > 20 and verdicts[False] > 100
        assert seen == set(violations)

    @staticmethod
    def _mutated_jobs(res, seg, kind, rng):
        """res.jobs with a copy of seg's job whose record is mutated."""
        _, task, jnum, _, _, _ = seg
        k = next(k for k, j in enumerate(res.jobs) if (j.task_index, j.job_index) == (task, jnum))
        job = res.jobs[k]
        job = replace(job, subtask_ready=list(job.subtask_ready),
                      subtask_completion=list(job.subtask_completion))
        v = int(rng.integers(len(job.exec_times)))
        if kind == 7:
            job.exec_times = job.exec_times[:v] + (0,) + job.exec_times[v + 1:]
        elif kind == 6:  # ready or completion time dropped
            (job.subtask_ready, job.subtask_completion)[int(rng.integers(2))][v] = None
        else:
            times = job.subtask_ready if kind == 4 else job.subtask_completion
            if times[v] is not None:
                times[v] += int(rng.choice([-3, -2, -1, 1, 2, 3]))
        return res.jobs[:k] + [job] + res.jobs[k + 1:]

    @staticmethod
    def _message(audit, res):
        try:
            audit(res)
        except AssertionError as exc:
            return str(exc)
        return None

    @staticmethod
    def _passes(audit, res):
        try:
            audit(res)
        except AssertionError:
            return False
        return True

    def test_rejects_overlap_under_optimize_flag(self):
        # the checks raise explicitly, so they hold when asserts are stripped
        code = (
            "from dagsched import sim\n"
            "from dagsched.dag import Dag, DagTask, TaskSet\n"
            "task = DagTask(Dag([3, 4], [(0, 1)]), 9, 9)\n"
            "res = sim.simulate(TaskSet([task], 1), 1, 9)\n"
            "res.segments.append(res.segments[0][:4] + (1, res.segments[0][5]))\n"
            "sim.audit_trace(res)\n")
        src = os.path.dirname(os.path.dirname(dagsched.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert "AssertionError: processor 0 overlaps" in proc.stderr
