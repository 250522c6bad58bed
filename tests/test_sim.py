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


NEVER = float("inf")  # the time of a missing ready or completion time


def reference_audit(res):
    """The quadratic audit: rebuilds the running and waiting sets from every
    segment and every subtask at each event point."""
    # the record: a job completes with its last subtask, a subtask is ready
    # at its job's release (no predecessors) or when its last predecessor
    # completes, and a zero-time subtask completes when it is ready
    for job in res.jobs:
        preds = res.taskset.tasks[job.task_index].dag.preds
        comp = [NEVER if c is None else c for c in job.subtask_completion]
        for v, (ready, x) in enumerate(zip(job.subtask_ready, job.exec_times)):
            ready = NEVER if ready is None else ready
            assert ready == max((comp[p] for p in preds[v]), default=job.release)
            assert x > 0 or comp[v] == ready
        assert (NEVER if job.completion is None else job.completion) == max(
            comp, default=job.release)

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

    # the schedule certificate: per subtask, its segments do not overlap one
    # another, their lengths sum to its execution time, and the last one
    # ends at its completion
    for job in res.jobs:
        for v, x in enumerate(job.exec_times):
            own = sorted((seg for seg in res.segments
                          if seg[1:4] == (job.task_index, job.job_index, v)),
                         key=lambda s: s[4])
            for a, b in zip(own, own[1:]):
                assert a[5] <= b[4], f"subtask runs twice at once: {a} / {b}"
            assert sum(end - start for *_, start, end in own) == x
            if x > 0:
                assert own[-1][5] == job.subtask_completion[v]

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
# vertex), the blocked intervals (a scan of all the trace's segments per chain
# subtask) and the audit (a sweep over every event point): `sim`'s versions
# must give the same results and messages.
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
        for _, task, jnum, subtask, start, end in sim.segments:
            if (task, jnum, subtask) == (job.task_index, job.job_index, v):
                if start > cur:
                    blocked.append((cur, start))
                cur = end
        if cur < comp[v]:
            blocked.append((cur, comp[v]))
        cur = comp[v]
    if cur != job.completion:
        raise SimulationError("chain/trace mismatch: chain does not end the job")
    return blocked


def _shown(time):
    return None if time == NEVER else time


def kept_audit_trace(sim) -> None:
    """Check the jobs' record (per job: it completes with its last subtask;
    per subtask: it is ready at its job's release or when its last
    predecessor completes, and completes then if it has no execution time),
    precedence, the schedule certificate (per subtask: its segments sum to
    its execution time, do not overlap one another and end at its
    completion), work conservation and priority rules on a trace.

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

    # the record, job by job in rank order; once every ready time is its
    # predecessors' last completion, a segment that starts before a
    # predecessor completes starts before its readiness
    for key in sorted(job_map):
        job = job_map[key]
        preds = tasks[key[0]].dag.preds
        comp = [NEVER if c is None else c for c in job.subtask_completion]
        for v, (ready, x) in enumerate(zip(job.subtask_ready, job.exec_times)):
            ready = NEVER if ready is None else ready
            expect = max((comp[p] for p in preds[v]), default=job.release)
            if ready != expect:
                raise AssertionError(f"subtask {v} of job {key} is ready at "
                                     f"{_shown(ready)}, not at {_shown(expect)}")
            if x == 0 and comp[v] != ready:
                raise AssertionError(
                    f"subtask {v} of job {key} has no execution time but completes "
                    f"at {_shown(comp[v])}, not at its ready time {_shown(ready)}")
        latest = max(comp, default=job.release)
        if (NEVER if job.completion is None else job.completion) != latest:
            raise AssertionError(f"job {key} completes at {job.completion}, not at its "
                                 f"last subtask's completion {_shown(latest)}")

    spans = []  # (start, end, rank number) of every segment
    for seg in sim.segments:
        _, task, jnum, v, start, end = seg
        key = (task, jnum)
        ready = job_map[key].subtask_ready[v]
        if ready is None or start < ready:
            raise AssertionError(f"segment {seg} starts before readiness {ready}")
        spans.append((start, end, base[key] + v))

    # the certificate, in rank order: first every subtask's total, then for
    # every subtask that runs, its last segment's end and its overlaps
    own = {}
    for seg in sim.segments:
        own.setdefault(seg[1:4], []).append(seg)
    for key in sorted(job_map):
        for v, x in enumerate(job_map[key].exec_times):
            ran = sum(end - start for *_, start, end in own.get(key + (v,), ()))
            if ran != x:
                raise AssertionError(
                    f"subtask {v} of job {key} runs {ran} units, not its execution time {x}")
    for key in sorted(job_map):
        job = job_map[key]
        for v, x in enumerate(job.exec_times):
            if x > 0:
                segs = sorted(own[key + (v,)], key=_START)
                if segs[-1][5] != job.subtask_completion[v]:
                    raise AssertionError(f"segment {segs[-1]} does not end at its "
                                         f"subtask's completion {job.subtask_completion[v]}")
                for a, b in zip(segs, segs[1:]):
                    if a[5] > b[4]:
                        raise AssertionError(f"subtask runs twice at once: {a} / {b}")

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
            job = sim.Job(idx, jnum, t, exec_times,
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
            segments.append((slot, state.job.task_index, state.job.job_index, v, t, t_next))
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
    return [(j.task_index, j.job_index, j.release, j.exec_times,
             j.subtask_ready, j.subtask_completion, j.completion)
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


def loaded_mixes(seeds):
    """Simulated traces of small random task sets whose utilization is near
    or above the processor count m (1 to 3), so that many subtasks wait."""
    for seed in seeds:
        cfg = GenConfig(n_range=(3, 6), wcet_range=(1, 9), seed=seed)
        rng = np.random.default_rng(seed)
        m = 1 + seed % 3
        # gen_taskset refuses a utilization above its processor count
        tasks = gen_taskset(float(rng.uniform(0.9, 1.4)) * m, m + 1, cfg, rng).tasks
        ts = assign_priorities_dm(TaskSet(tasks, m))
        yield sim.simulate(ts, m, 2 * max(t.period for t in ts.tasks),
                           release_policy=("periodic", "sporadic")[seed % 2],
                           exec_policy=("wcet", "random")[seed % 3 > 0],
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
        (1, {"exec_policy": {5: [1, 1]}}, r"no released \(task, job\)"),
        (1, {"exec_policy": {0: [[1, 1]]}}, r"no released \(task, job\)"),
        (1, {"exec_policy": {(0, 7): (1, 1)}}, r"no released \(task, job\)"),
        (1, {"release_policy": {0: 5}}, r"integers in \[0, horizon\)"),
        (1, {"release_policy": {0: [5, "7"]}}, r"integers in \[0, horizon\)"),
        (1, {"exec_policy": {(0, 0): 7}}, r"\[0, WCET\]"),
        # an rng that is not a Generator raised AttributeError, or went unread
        (1, {"rng": 3}, "numpy Generator"),
        (1, {"rng": np.random.RandomState(0)}, "numpy Generator"),
    ], ids=["release-policy", "exec-policy", "no-processors", "float-processors",
            "float-release", "negative-release", "release-past-horizon", "release-at-horizon",
            "unknown-task", "string-task", "exec-bare-key", "exec-task-key",
            "exec-unreleased-job", "release-times-not-iterable", "release-times-mixed-types",
            "exec-times-not-iterable", "rng-int", "rng-random-state"])
    def test_bad_run_settings_rejected(self, m, policies, message):
        task = DagTask(Dag([2, 3], [(0, 1)]), 10, 10)
        with pytest.raises(SimulationError, match=message):
            sim.simulate(single_task_set(task, 1), m, 30, **policies)

    @pytest.mark.parametrize("releases", [{}, {0: []}, {0: [], 1: ()}])
    def test_scripted_releases_of_nothing(self, releases):
        # no job and no segment; scripted execution times would name no job
        ts = TaskSet([DagTask(Dag([2, 3], [(0, 1)]), 10, 10), DagTask(Dag([4], []), 12, 12)], 2)
        res = sim.simulate(ts, 2, 30, release_policy=releases, exec_policy="random")
        assert (res.jobs, res.segments, res.response_times()) == ([], [], [])
        sim.audit_trace(res)
        with pytest.raises(SimulationError, match=r"no released \(task, job\)"):
            sim.simulate(ts, 2, 30, release_policy=releases, exec_policy={(0, 0): (1, 1)})

    def test_empty_task_set_rejected(self):
        with pytest.raises(SimulationError, match="task set is empty"):
            sim.simulate(TaskSet([], 2), 2, 10)

    def test_non_integer_horizon_rejected(self):
        task = DagTask(Dag([2, 3], [(0, 1)]), 10, 10)
        for horizon in (30.5, True):
            with pytest.raises(SimulationError, match="horizon must be an integer"):
                sim.simulate(single_task_set(task, 1), 1, horizon)

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
        job = sim.Job(0, 0, 0, (1,), subtask_ready=[0],
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

    def test_interference_of_incomplete_job_rejected(self):
        job = sim.Job(0, 0, 0, (1,), subtask_ready=[0], subtask_completion=[None])
        res = sim.SimResult(TaskSet([DagTask(Dag([1], []), 10, 10)], 1), 1, 10, [], [job])
        with pytest.raises(SimulationError, match="did not complete"):
            sim.critical_interference(res, job, [0])

    def test_job_segments_read_from_the_trace(self):
        # WCET 2 above WCET 3 on one processor; in the wrapped trace the low
        # job runs [0, 1) and [3, 5), and the high job [1, 3) between them
        one, two = DagTask(Dag([2], []), 10, 10), DagTask(Dag([3], []), 10, 10)
        res = sim.simulate(TaskSet([one, two], 1), 1, 10)
        trace = [(0, 1, 0, 0, 0, 1), (0, 0, 0, 0, 1, 3), (0, 1, 0, 0, 3, 5)]
        res = with_segments(res, trace)
        low = res.jobs[1]
        assert low.task_index == 1 and low.completion == 5
        chain = sim.extract_critical_chain(res, low)
        assert sim._blocked_intervals(res, low, chain) == [(1, 3)]
        assert sim.critical_interference(res, low, chain) == 2
        assert sim.interference_by_task(res, low, chain) == {0: 2, 1: 0}

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
        # subtask 0 recorded as completing at 4 and subtask 1 as ready then,
        # but subtask 1 runs from 3
        res = self._chain_trace()
        res.jobs[0].subtask_ready[1] += 1
        res.jobs[0].subtask_completion[0] += 1
        with pytest.raises(AssertionError, match="before readiness 4"):
            sim.audit_trace(res)

    def test_rejects_segment_before_predecessor_completes(self):
        # subtask 1 runs from 3, but subtask 0 is recorded as completing at
        # 4; the record then names subtask 1 ready before its predecessor
        # completes, and a segment cannot start before its readiness
        res = self._chain_trace()
        res.jobs[0].subtask_completion[0] += 1
        with pytest.raises(AssertionError,
                           match=r"^subtask 1 of job \(0, 0\) is ready at 3, not at 4$"):
            sim.audit_trace(res)

    @staticmethod
    def _two_unit_chain():
        # a chain 0 -> 1 of two 2-unit subtasks on one processor
        task = DagTask(Dag([2, 2], [(0, 1)]), 10, 10)
        res = sim.simulate(single_task_set(task, 1), 1, 10)
        assert res.segments == [(0, 0, 0, 0, 0, 2), (0, 0, 0, 1, 2, 4)]
        assert res.jobs[0].completion == 4
        return res

    def test_rejects_job_completion_before_its_last_subtask(self):
        # a job completion of 3 would certify a response below the true 4
        res = self._two_unit_chain()
        res.jobs[0].completion = 3
        assert res.response_times() == [(0, 0, 3)]
        assert not self._same_as_kept(res)
        assert self._message(sim.audit_trace, res) == \
            "job (0, 0) completes at 3, not at its last subtask's completion 4"

    def test_rejects_ready_time_after_predecessors_complete(self):
        # subtask 1 recorded as ready at 4, two units after its predecessor
        # completes, so the processor's idle [2, 4) hides a waiting subtask
        res = self._two_unit_chain()
        job = replace(res.jobs[0], subtask_ready=[0, 4], subtask_completion=[2, 6],
                      completion=6)
        bad = sim.SimResult(res.taskset, 1, 10, [(0, 0, 0, 0, 0, 2), (0, 0, 0, 1, 4, 6)], [job])
        assert not self._same_as_kept(bad)
        assert self._message(sim.audit_trace, bad) == \
            "subtask 1 of job (0, 0) is ready at 4, not at 2"

    def test_rejects_zero_time_subtask_completing_after_it_is_ready(self):
        # the zero-time middle of a chain 0 -> 1 -> 2 recorded as completing
        # at 5, although it is ready at 2, so subtask 2 waits from 5
        task = DagTask(Dag([2, 0, 2], [(0, 1), (1, 2)]), 10, 10)
        res = sim.simulate(single_task_set(task, 1), 1, 10)
        assert res.segments == [(0, 0, 0, 0, 0, 2), (0, 0, 0, 2, 2, 4)]
        job = replace(res.jobs[0], subtask_ready=[0, 2, 5], subtask_completion=[2, 5, 7],
                      completion=7)
        bad = sim.SimResult(res.taskset, 1, 10, [(0, 0, 0, 0, 0, 2), (0, 0, 0, 2, 5, 7)], [job])
        assert not self._same_as_kept(bad)
        assert self._message(sim.audit_trace, bad) == (
            "subtask 1 of job (0, 0) has no execution time but completes at 5, "
            "not at its ready time 2")

    def test_rejects_idle_processor_while_subtask_waits(self):
        # subtask 1 runs after subtask 0 on processor 0, while processor 1
        # idles in [0, 2)
        task = DagTask(Dag([2, 2], []), 10, 10)
        res = sim.simulate(single_task_set(task, 2), 2, 10)
        first, second = res.segments
        job = replace(res.jobs[0], subtask_completion=[2, 4], completion=4)
        bad = sim.SimResult(res.taskset, 2, 10, [first, (0,) + second[1:4] + (2, 4)], [job])
        with pytest.raises(AssertionError, match=r"work conservation violated in \[0,2\)"):
            sim.audit_trace(bad)

    def test_rejects_priority_inversion(self):
        one = DagTask(Dag([2], []), 10, 10)
        res = sim.simulate(TaskSet([one, one], 1), 1, 10)
        high, low = res.segments
        assert (high[1], low[1]) == (0, 1)
        swapped = [low[:4] + high[4:], high[:4] + low[4:]]
        jobs = [replace(job, subtask_completion=[end], completion=end)
                for job, end in zip(res.jobs, (4, 2))]
        with pytest.raises(AssertionError, match="priority inversion"):
            sim.audit_trace(sim.SimResult(res.taskset, 1, 10, swapped, jobs))

    @classmethod
    def _mutant(cls, res, rng, shifts):
        """res with one mutation: kinds 0-3 mutate a segment (dropped,
        shifted by one of `shifts`, moved to a random processor, or run
        again there), kinds 4-7 the record of a segment's job: a subtask's
        ready time (4) or completion time (5) shifted by 1..3 either way,
        one of them dropped (6), or its execution time zeroed (7); kind 8
        schedules the jobs anew (see `_rescheduled`)."""
        segs, jobs = list(res.segments), res.jobs
        i = int(rng.integers(len(segs)))
        kind = int(rng.integers(9))
        if kind == 0:
            del segs[i]
        elif kind == 1:
            d = int(rng.choice(shifts))
            _, _, _, _, start, end = segs[i]
            segs[i] = segs[i][:4] + (start + d, end + d)
        elif kind == 2:
            segs[i] = (int(rng.integers(res.processors)),) + segs[i][1:]
        elif kind == 3:
            segs.append((int(rng.integers(res.processors)),) + segs[i][1:])
        elif kind == 8:
            other = cls._rescheduled(res, rng)
            segs, jobs = other.segments, other.jobs
        else:
            jobs = cls._mutated_jobs(res, segs[i], kind, rng)
        return sim.SimResult(res.taskset, res.processors, res.horizon, segs, jobs)

    def test_same_verdict_as_reference_on_mutated_traces(self):
        # every kind of `_mutant`; the audit must give the reference's
        # verdict and the kept audit's message
        rng = np.random.default_rng(47)
        verdicts = {True: 0, False: 0}
        violations = ("overlaps", "before readiness", "is ready at",
                      "has no execution time but completes", "last subtask's completion",
                      "not its execution time", "runs twice at once",
                      "does not end at its subtask's completion",
                      "work conservation", "priority inversion")
        seen = set()
        for res in random_mixes(range(12)):
            for _ in range(15):
                bad = self._mutant(res, rng, (-3, -2, -1, 1, 2, 3))
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
    def _rescheduled(res, rng):
        """The jobs of res, with their releases and execution times, as
        `simulate` schedules them with two adjacent tasks' priorities
        swapped, or on one processor fewer, told as a trace of res's task
        set on its m processors: the record is the simulator's own, but
        the schedule breaks the priority or work-conservation rule
        wherever that change matters."""
        order, m = list(range(len(res.taskset.tasks))), res.processors
        if m > 1 and rng.integers(2):
            m -= 1
        else:
            a = int(rng.integers(len(order) - 1))
            order[a], order[a + 1] = order[a + 1], order[a]
        tasks = [res.taskset.tasks[k] for k in order]
        out = sim.simulate(
            TaskSet(tasks, m), m, res.horizon,
            release_policy={new: [j.release for j in res.jobs if j.task_index == old]
                            for new, old in enumerate(order)},
            exec_policy={(new, j.job_index): j.exec_times
                         for new, old in enumerate(order)
                         for j in res.jobs if j.task_index == old})
        segs = [(seg[0], order[seg[1]]) + seg[2:] for seg in out.segments]
        jobs = [replace(j, task_index=order[j.task_index]) for j in out.jobs]
        return sim.SimResult(res.taskset, res.processors, res.horizon, segs, jobs)

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

    @pytest.mark.parametrize("proc", [1, 5, -1])
    def test_rejects_processor_outside_the_count(self, proc):
        # two subtasks at once on one processor's trace: both segments are
        # fine on their own, but the second names no processor of m = 1
        task = DagTask(Dag([2, 2], []), 10, 10)
        res = sim.simulate(single_task_set(task, 2), 2, 10)
        assert res.segments == [(0, 0, 0, 0, 0, 2), (1, 0, 0, 1, 0, 2)]
        segs = [res.segments[0], (proc,) + res.segments[1][1:]]
        bad = sim.SimResult(single_task_set(task, 1), 1, 10, segs, res.jobs)
        with pytest.raises(AssertionError, match=rf"^processor {proc} outside 0\.\.0$"):
            sim.audit_trace(bad)

    def test_rejects_segment_that_ends_before_it_starts(self):
        # a 2-unit subtask run in [0, 2), plus a segment from 4 back to 3
        task = DagTask(Dag([2], []), 10, 10)
        res = sim.simulate(single_task_set(task, 1), 1, 10)
        assert res.segments == [(0, 0, 0, 0, 0, 2)]
        bad = with_segments(res, res.segments + [(0, 0, 0, 0, 4, 3)])
        with pytest.raises(AssertionError,
                           match=r"^segment \(0, 0, 0, 0, 4, 3\) ends before it starts$"):
            sim.audit_trace(bad)

    def test_processor_checked_before_any_other_rule(self):
        res = self._chain_trace()
        first = res.segments[0]
        segs = [first, first[:4] + (first[4] + 1, first[5]), (3,) + res.segments[-1][1:]]
        with pytest.raises(AssertionError, match=r"processor 3 outside 0\.\.0"):
            sim.audit_trace(with_segments(res, segs))
        with pytest.raises(AssertionError, match="processor 0 overlaps"):
            sim.audit_trace(with_segments(res, segs[:2]))

    def test_same_verdict_as_reference_on_loaded_traces(self):
        # utilization near or above m: many subtasks wait, so the priority
        # and work-conservation checks run often; each trace and a few
        # mutations of it get the reference's verdict and the kept audit's
        # message
        rng = np.random.default_rng(53)
        waits = traces = 0
        verdicts = {True: 0, False: 0}
        for res in loaded_mixes(range(9)):
            self._same_as_kept(res)
            waits += sum(job.subtask_completion[v] - max(r, job.release) > x
                         for job in res.jobs for v, (r, x) in enumerate(
                             zip(job.subtask_ready, job.exec_times))
                         if x > 0 and job.subtask_completion[v] is not None)
            traces += 1
            for _ in range(8):
                verdicts[self._same_as_kept(self._mutant(res, rng, (-2, -1, 1, 2)))] += 1
        assert traces == 9 and waits > 150
        assert verdicts[True] > 5 and verdicts[False] > 30

    @staticmethod
    def _same_as_kept(res):
        """Assert the audit's message equals the kept audit's and its verdict
        the reference's; return the verdict."""
        message = TestAudit._message(sim.audit_trace, res)
        assert message == TestAudit._message(kept_audit_trace, res)
        assert (message is None) == TestAudit._passes(reference_audit, res)
        return message is None

    @staticmethod
    def _two_tasks_on_one_processor():
        one = DagTask(Dag([2], []), 10, 10)
        res = sim.simulate(TaskSet([one, one], 1), 1, 10)
        assert res.segments == [(0, 0, 0, 0, 0, 2), (0, 1, 0, 0, 2, 4)]
        return res

    def test_subtask_that_never_completes_is_rejected(self):
        # a subtask that has run its whole execution time has completed, so
        # a trace that records no completion for it certifies nothing
        res = self._two_tasks_on_one_processor()
        for k, seg in enumerate(res.segments):
            jobs = list(res.jobs)
            jobs[k] = replace(jobs[k], subtask_completion=[None], completion=None)
            bad = sim.SimResult(res.taskset, 1, 10, res.segments, jobs)
            assert not self._same_as_kept(bad)
            assert self._message(sim.audit_trace, bad) == \
                f"segment {seg} does not end at its subtask's completion None"

    def test_zero_length_segment_runs_nothing(self):
        task = DagTask(Dag([2, 2], []), 10, 10)
        res = sim.simulate(single_task_set(task, 2), 2, 10)
        first, second = res.segments
        assert self._same_as_kept(with_segments(res, res.segments + [first[:4] + (2, 2)]))
        # subtask 1 given [0, 0) only runs none of its 2 units
        bad = with_segments(res, [first, second[:4] + (0, 0)])
        assert not self._same_as_kept(bad)
        assert self._message(sim.audit_trace, bad) == \
            "subtask 1 of job (0, 0) runs 0 units, not its execution time 2"

    def test_one_subtask_on_two_processors_runs_twice_its_time(self):
        task = DagTask(Dag([2, 2], []), 10, 10)
        res = sim.simulate(single_task_set(task, 2), 2, 10)
        first, second = res.segments
        bad = with_segments(res, [first, second[:3] + first[3:]])
        assert not self._same_as_kept(bad)
        assert self._message(sim.audit_trace, bad) == \
            "subtask 0 of job (0, 0) runs 4 units, not its execution time 2"

    def test_segment_of_zero_execution_subtask_is_rejected(self):
        # the low-priority subtask has no execution time but holds the
        # processor in [0, 2) while the high-priority one waits, or in
        # [2, 4) after it
        res = self._two_tasks_on_one_processor()
        high, low = res.jobs
        low = replace(low, exec_times=(0,), subtask_completion=[0], completion=0)
        late = replace(high, subtask_completion=[4], completion=4)
        for segs, first in (([(0, 1, 0, 0, 0, 2), (0, 0, 0, 0, 2, 4)], late),
                            ([res.segments[0], (0, 1, 0, 0, 2, 4)], high)):
            bad = sim.SimResult(res.taskset, 1, 10, segs, [first, low])
            assert not self._same_as_kept(bad)
            assert self._message(sim.audit_trace, bad) == \
                "subtask 0 of job (1, 0) runs 2 units, not its execution time 0"

    @staticmethod
    def _one_subtask_trace(m):
        task = DagTask(Dag([2], []), 10, 10)
        res = sim.simulate(single_task_set(task, m), m, 10)
        assert res.segments == [(0, 0, 0, 0, 0, 2)]
        return res

    @pytest.mark.parametrize("extra, ran", [((0, 0, 0, 0, 2, 5), 5), ((0, 0, 0, 0, 5, 6), 3)])
    def test_rejects_subtask_run_beyond_its_execution_time(self, extra, ran):
        # a 2-unit subtask run in [0, 2) on one processor, plus one segment
        res = self._one_subtask_trace(1)
        bad = with_segments(res, res.segments + [extra])
        assert not self._same_as_kept(bad)
        assert self._message(sim.audit_trace, bad) == \
            f"subtask 0 of job (0, 0) runs {ran} units, not its execution time 2"

    def test_rejects_subtask_run_ending_after_its_completion(self):
        # its 2 units, but the second one after its recorded completion 2
        res = self._one_subtask_trace(1)
        bad = with_segments(res, [(0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 5, 6)])
        assert not self._same_as_kept(bad)
        assert self._message(sim.audit_trace, bad) == \
            "segment (0, 0, 0, 0, 5, 6) does not end at its subtask's completion 2"

    def test_rejects_subtask_on_two_processors_at_once(self):
        # one unit on each of two processors with completion 1 would
        # certify a response of 1, below the subtask's WCET of 2
        res = self._one_subtask_trace(2)
        job = replace(res.jobs[0], subtask_completion=[1], completion=1)
        segs = [(0, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 1)]
        bad = sim.SimResult(res.taskset, 2, 10, segs, [job])
        assert not self._same_as_kept(bad)
        assert self._message(sim.audit_trace, bad) == \
            "subtask runs twice at once: (0, 0, 0, 0, 0, 1) / (1, 0, 0, 0, 0, 1)"

    def test_empty_trace(self):
        res = self._two_tasks_on_one_processor()
        assert self._same_as_kept(sim.SimResult(res.taskset, 1, 10, [], []))
        # jobs but no segments: the first job's subtask runs none of its time
        bad = with_segments(res, [])
        assert not self._same_as_kept(bad)
        assert self._message(sim.audit_trace, bad) == \
            "subtask 0 of job (0, 0) runs 0 units, not its execution time 2"

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
