"""Discrete-event simulator for preemptive global fixed-priority scheduling.

A task's priority is its index in the task set; at every instant the m
highest-ranked ready subtasks run (rank = task index, then job index, in
release order, then subtask id).  Events happen at integer releases and
completions only.  One sorted ready queue spans all active jobs, an entry
[task, job, subtask, remaining time, job record, pending counts] per ready
subtask, and its first m entries run.  Every job's execution times are
drawn before the run, in release order; the random policy takes one
`rng.integers` call for the whole run.  A subtask drawn with zero execution
time completes the instant it becomes ready without occupying a processor.

The trace holds per-processor execution segments in time order, in one list
and per job: tuples of six ints in ``SEGMENT_FIELDS`` order, (proc, task,
job, subtask, start, end), one per running subtask per step.  Critical
chains are rebuilt by walking last-completing predecessors; critical
interference reads the job's segments grouped by subtask, and its split per
task takes one pass over the segments that overlap the blocked intervals.
`audit_trace` computes once per subtask its rank number and the earliest
start that precedence allows (one comparison per segment), then checks the
schedule in one time sweep, raising `AssertionError` at the first violation.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from itertools import accumulate
from operator import itemgetter

import numpy as np

from .errors import SimulationError, is_integer

# the fields of a trace segment tuple, in order (also the `--trace-out` keys)
SEGMENT_FIELDS = ("proc", "task", "job", "subtask", "start", "end")
_START, _END = itemgetter(4), itemgetter(5)
_REMAINING = itemgetter(3)  # of a ready-queue entry
_NEVER = math.inf  # the time of an event that never happens


@dataclass
class Job:
    task_index: int
    job_index: int
    release: int
    abs_deadline: int
    exec_times: tuple
    subtask_ready: list = field(default_factory=list)
    subtask_completion: list = field(default_factory=list)
    completion: int | None = None
    # this job's segment tuples in time order (simulate appends them as it
    # runs); _blocked_intervals relies on the order
    segments: list = field(default_factory=list)

    @property
    def response(self):
        return None if self.completion is None else self.completion - self.release


@dataclass
class SimResult:
    taskset: object
    processors: int
    horizon: int
    # every segment tuple in time order; one step's segments share
    # [start, end) and steps do not overlap, so interference_by_task may
    # bisect starts and ends
    segments: list
    jobs: list

    def response_times(self):
        return [(j.task_index, j.job_index, j.response)
                for j in self.jobs if j.completion is not None]


_EXEC_RANGE = "execution times must be integers in [0, WCET] per subtask"


def _release_times(taskset, horizon, policy, rng):
    if isinstance(policy, dict):
        if any(not is_integer(k) or not 0 <= k < len(taskset.tasks) for k in policy):
            raise SimulationError("scripted releases name a task outside the set")
        out = {}
        for idx, task in enumerate(taskset.tasks):
            times = list(policy.get(idx, []))
            if not all(is_integer(x) and 0 <= x < horizon for x in times):
                raise SimulationError(
                    f"scripted releases of task {idx} must be integers in [0, horizon)")
            times.sort()
            for a, b in zip(times, times[1:]):
                if b - a < task.period:
                    raise SimulationError(
                        f"scripted releases of task {idx} violate the period")
            out[idx] = times
        return out
    if policy == "periodic":
        return {idx: list(range(0, horizon, t.period))
                for idx, t in enumerate(taskset.tasks)}
    if policy == "sporadic":
        out = {}
        for idx, task in enumerate(taskset.tasks):
            times, t = [], 0
            while t < horizon:
                times.append(t)
                t += task.period + int(rng.integers(0, task.period // 2 + 1))
            out[idx] = times
        return out
    raise SimulationError(f"unknown release policy {policy!r}")


def _exec_times(taskset, releases, policy, rng):
    """Execution times of every released job, in release order.

    ``"random"`` draws each subtask's time uniformly from [0, WCET], in one
    call for the whole run (the same stream as one scalar draw per subtask
    in release order).
    """
    dags = [taskset.tasks[idx].dag for _, idx, _ in releases]
    if isinstance(policy, dict):
        rows = [tuple(policy.get((idx, j), dag.wcets)) for (_, idx, j), dag in zip(releases, dags)]
        for row, dag in zip(rows, dags):
            if len(row) != dag.n or not all(is_integer(x) and 0 <= x <= w
                                            for x, w in zip(row, dag.wcets)):
                raise SimulationError(_EXEC_RANGE)
        return rows
    if policy == "wcet":
        return [dag.wcets for dag in dags]
    if policy == "random":
        flat = rng.integers(0, [w + 1 for dag in dags for w in dag.wcets]).tolist()
        ends = accumulate(dag.n for dag in dags)
        return [tuple(flat[end - dag.n:end]) for end, dag in zip(ends, dags)]
    raise SimulationError(f"unknown execution policy {policy!r}")


def _finish(job, pending, done, now, queue, succs):
    """Complete the subtasks `done` of `job` at `now`, and the job once none
    is left.  A successor whose predecessors have all completed is ready: it
    is queued, or completes at once if it has no execution time.  `pending`
    holds each subtask's count of incomplete predecessors, then the job's
    count of incomplete subtasks."""
    times = job.exec_times
    while done:
        v = done.pop()
        job.subtask_completion[v] = now
        pending[-1] -= 1
        for b in succs[v]:
            pending[b] -= 1
            if not pending[b]:
                job.subtask_ready[b] = now
                if times[b]:
                    insort(queue, [job.task_index, job.job_index, b, times[b], job, pending])
                else:
                    done.append(b)
    if not pending[-1]:
        job.completion = now


def simulate(taskset, m, horizon, release_policy="periodic",
             exec_policy="wcet", rng=None) -> SimResult:
    """Run the task set for `horizon` time units (releases stop at horizon;
    released jobs run to completion).  A dict `release_policy` scripts the
    releases: task index -> integer release times in [0, horizon)."""
    if not is_integer(m) or m <= 0:
        raise SimulationError("need at least one processor, as an integer count")
    if horizon < max(t.period for t in taskset.tasks):
        raise SimulationError("horizon must cover at least the largest period")
    if rng is None:
        rng = np.random.default_rng(0)

    release_map = _release_times(taskset, horizon, release_policy, rng)
    releases = sorted((time, idx, j) for idx, times in release_map.items()
                      for j, time in enumerate(times))
    exec_times = _exec_times(taskset, releases, exec_policy, rng)
    if not releases:
        return SimResult(taskset, m, horizon, [], [])
    releases.append((_NEVER, None, None))  # no release after the last
    # per task, read once: its DAG and a job's initial `pending` counts
    dags = [t.dag for t in taskset.tasks]
    counts = [[len(p) for p in dag.preds] + [dag.n] for dag in dags]

    jobs, segments = [], []
    add_segment = segments.append
    # ready subtasks of all jobs, best first, as [task_index, job_index, v,
    # remaining time, job, pending]; the first three fields are unique, so
    # the rest is never compared
    queue = []
    ptr = 0
    t = next_release = releases[0][0]

    while True:
        while next_release == t:
            _, idx, jnum = releases[ptr]
            dag, times = dags[idx], exec_times[ptr]
            job = Job(idx, jnum, t, t + taskset.tasks[idx].deadline, times,
                      subtask_ready=[None] * dag.n, subtask_completion=[None] * dag.n)
            ptr += 1
            next_release = releases[ptr][0]
            jobs.append(job)
            pending = counts[idx][:]
            for v in dag.sources:
                job.subtask_ready[v] = t
                if times[v]:
                    insort(queue, [idx, jnum, v, times[v], job, pending])
            _finish(job, pending, [v for v in dag.sources if not times[v]], t, queue, dag.succs)

        running = queue[:m]
        if not running:
            if next_release == _NEVER:
                break
            t = next_release
            continue
        dt = min(map(_REMAINING, running))
        if next_release - t < dt:
            dt = next_release - t
        t_next = t + dt

        finished = []
        for slot, entry in enumerate(running):
            task_index, job_index, v, remaining, job, _ = entry
            seg = (slot, task_index, job_index, v, t, t_next)
            add_segment(seg)
            job.segments.append(seg)
            if remaining == dt:
                finished.append(slot)
            else:
                entry[3] = remaining - dt
        # the running entries are the queue's head, so drop the finished
        # ones by position before their successors are queued
        for slot in reversed(finished):
            del queue[slot]
        for slot in finished:
            task_index, _, v, _, job, pending = running[slot]
            _finish(job, pending, [v], t_next, queue, dags[task_index].succs)
        t = t_next

    return SimResult(taskset, m, horizon, segments, jobs)


# --------------------------------------------------------------------------
# Critical chains and critical interference

def extract_critical_chain(sim, job):
    """Chain of subtask ids rebuilt through last-completing predecessors.

    Ties among equal completion times break toward the lowest subtask id.
    """
    if job.completion is None:
        raise SimulationError("job did not complete within the trace")
    preds = sim.taskset.tasks[job.task_index].dag.preds
    comp = job.subtask_completion
    # max returns the first maximal item: the lowest id, as each preds
    # tuple is ascending
    v = comp.index(max(comp))
    chain = [v]
    while preds[v]:
        v = max(preds[v], key=comp.__getitem__)
        chain.append(v)
    chain.reverse()
    return chain


def _blocked_intervals(sim, job, chain):
    """Intervals where the current critical subtask is ready but not running."""
    comp = job.subtask_completion
    runs = {}  # subtask -> its segments' (start, end), in time order
    for _, _, _, v, start, end in job.segments:
        runs.setdefault(v, []).append((start, end))
    cur = job.release
    blocked = []
    for v in chain:
        if job.subtask_ready[v] != cur:
            raise SimulationError("chain/trace mismatch: ready times do not chain")
        for start, end in runs.get(v, ()):
            if start > cur:
                blocked.append((cur, start))
            cur = end
        if cur < comp[v]:
            blocked.append((cur, comp[v]))
        cur = comp[v]
    if cur != job.completion:
        raise SimulationError("chain/trace mismatch: chain does not end the job")
    return blocked


def critical_interference(sim, job, chain) -> int:
    """Total time the job's critical chain is ready but denied a processor."""
    return sum(b - a for a, b in _blocked_intervals(sim, job, chain))


def interference_by_task(sim, job, chain) -> dict:
    """I_{i,k} for every task index i (including the job's own task): task
    i's processor time, summed across processors, while the chain is blocked.
    """
    out = dict.fromkeys(range(len(sim.taskset.tasks)), 0)
    segs = sim.segments
    for a, b in _blocked_intervals(sim, job, chain):
        first = bisect_right(segs, a, key=_END)
        last = bisect_left(segs, b, key=_START)
        for _, task, _, _, start, end in segs[first:last]:
            out[task] += min(end, b) - max(start, a)
    return out


# --------------------------------------------------------------------------
# Trace auditor

def audit_trace(sim) -> None:
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

    # per job, in rank order (task index, job index): its first rank number,
    # then one per subtask id (a smaller number is a higher rank); per
    # subtask the latest of its ready time and its predecessors' completions,
    # the earliest start precedence allows (_NEVER stands for a missing time)
    tasks = sim.taskset.tasks
    job_map = {(j.task_index, j.job_index): j for j in sim.jobs}
    info, readies, number = {}, [], 0
    for key in sorted(job_map):
        job = job_map[key]
        comp = [_NEVER if c is None else c for c in job.subtask_completion]
        release, times = job.release, job.exec_times
        limits = []
        for v, (r, preds) in enumerate(zip(job.subtask_ready, tasks[key[0]].dag.preds)):
            limit = _NEVER if r is None else r
            for p in preds:
                if comp[p] > limit:
                    limit = comp[p]
            limits.append(limit)
            if r is not None and times[v] > 0:
                readies.append((r if r > release else release, comp[v], number + v))
        info[key] = number, limits
        number += len(times)

    spans = []  # (start, end, rank number) of every segment
    for seg in sim.segments:
        _, task, jnum, v, start, end = seg
        entry = info.get((task, jnum))
        if entry is None or not 0 <= v < len(entry[1]):
            raise AssertionError(f"segment {seg} names no subtask of a simulated job")
        first, limits = entry
        if start < limits[v]:
            job = job_map[task, jnum]
            ready = job.subtask_ready[v]
            if ready is None or start < ready:
                raise AssertionError(f"segment {seg} starts before readiness {ready}")
            p = next(p for p in tasks[task].dag.preds[v]
                     if job.subtask_completion[p] is None or start < job.subtask_completion[p])
            raise AssertionError(f"segment {seg} starts before predecessor {p} completes")
        spans.append((start, end, first + v))

    # priority correctness + work conservation between event points, in one
    # sweep that keeps the running segments and the ready subtasks
    points = set(map(_START, sim.segments))
    points.update(map(_END, sim.segments), [j.release for j in sim.jobs])
    points = sorted(points)
    spans.sort(key=itemgetter(0))
    readies.sort(key=itemgetter(0))
    spans.append((_NEVER,))  # stops the scans below
    readies.append((_NEVER,))
    live, ready = [], []
    i = j = 0
    for lo, hi in zip(points, points[1:]):
        while spans[i][0] <= lo:
            live.append(spans[i])
            i += 1
        while readies[j][0] <= lo:
            ready.append(readies[j])
            j += 1
        live = [s for s in live if s[1] > lo]
        ready = [e for e in ready if e[1] > lo]
        running = {s[2] for s in live}
        waiting = [e[2] for e in ready if e[2] not in running]
        if waiting:
            if len(running) != sim.processors:
                raise AssertionError(
                    f"work conservation violated in [{lo},{hi}): {len(running)} running")
            if not max(running) < min(waiting):
                raise AssertionError(f"priority inversion in [{lo},{hi})")
