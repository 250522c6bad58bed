"""Discrete-event simulator for preemptive global fixed-priority scheduling.

A task's priority is its index in the task set; at every instant the m
highest-ranked ready subtasks run (rank = task index, then job index, in
release order, then subtask id).  Events happen at integer releases and
completions only.  One sorted ready queue spans all active jobs: a subtask
enters it when it becomes ready and leaves it when it completes, and the
first m entries run.  Every job's execution times are drawn before the run
starts, in release order; the random policy takes one `rng.integers` call
for the whole run.  A subtask drawn with zero execution time completes the
instant it becomes ready without occupying a processor.

The trace records per-processor execution segments in time order, in one
list and per job.  A segment is a plain tuple of six ints in
``SEGMENT_FIELDS`` order, (proc, task, job, subtask, start, end): one tuple
per running subtask per step, shared by both lists.  Critical chains are
rebuilt by walking last-completing predecessors; critical interference is
read from the job's own segments, and its split per interfering task takes
one pass over the segments that overlap the blocked intervals.
`audit_trace` numbers the ranks once per job, checks a trace in one time
sweep and raises `AssertionError` on the first violation.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from itertools import accumulate
from operator import itemgetter

import numpy as np

from .errors import SimulationError, is_integer

# the fields of a trace segment tuple, in order (also the `--trace-out` keys)
SEGMENT_FIELDS = ("proc", "task", "job", "subtask", "start", "end")
_START, _END = itemgetter(4), itemgetter(5)


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
        if self.completion is None:
            return None
        return self.completion - self.release


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
        out = {}
        for idx, task in enumerate(taskset.tasks):
            times = sorted(policy.get(idx, []))
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
    wcets = [w for dag in dags for w in dag.wcets]
    if isinstance(policy, dict):
        rows = [policy.get((idx, j), dag.wcets) for (_, idx, j), dag in zip(releases, dags)]
        if any(len(row) != dag.n for row, dag in zip(rows, dags)):
            raise SimulationError(_EXEC_RANGE)
        flat = [x for row in rows for x in row]
        if not all(map(is_integer, flat)):
            raise SimulationError(_EXEC_RANGE)
    elif policy == "wcet":
        flat = wcets
    elif policy == "random":
        flat = rng.integers(0, [w + 1 for w in wcets]).tolist()
    else:
        raise SimulationError(f"unknown execution policy {policy!r}")
    if not all(0 <= x <= w for x, w in zip(flat, wcets)):
        raise SimulationError(_EXEC_RANGE)
    ends = accumulate(dag.n for dag in dags)
    return [tuple(flat[end - dag.n:end]) for end, dag in zip(ends, dags)]


class _ActiveJob:
    __slots__ = ("job", "dag", "key", "remaining", "pending", "left")

    def __init__(self, job, dag):
        self.job = job
        self.dag = dag
        self.key = (job.task_index, job.job_index)
        self.remaining = list(job.exec_times)
        self.pending = [len(p) for p in dag.preds]
        self.left = dag.n

    def complete(self, v, now, newly_ready):
        self.job.subtask_completion[v] = now
        self.left -= 1
        for b in self.dag.succs[v]:
            self.pending[b] -= 1
            if self.pending[b] == 0:
                self.job.subtask_ready[b] = now
                newly_ready.append(b)

    def admit_ready(self, vs, now, queue):
        """Queue subtasks that became ready; zero-length ones complete instantly."""
        stack = list(vs)
        while stack:
            v = stack.pop()
            if self.remaining[v] == 0:
                self.complete(v, now, stack)
            else:
                insort(queue, (*self.key, v, self))
        if self.left == 0:
            self.job.completion = now


def simulate(taskset, m, horizon, release_policy="periodic",
             exec_policy="wcet", rng=None) -> SimResult:
    """Run the task set for `horizon` time units (releases stop at horizon;
    released jobs run to completion)."""
    if m <= 0:
        raise SimulationError("need at least one processor")
    if horizon < max(t.period for t in taskset.tasks):
        raise SimulationError("horizon must cover at least the largest period")
    if rng is None:
        rng = np.random.default_rng(0)

    release_map = _release_times(taskset, horizon, release_policy, rng)
    releases = sorted(
        (time, idx, j)
        for idx, times in release_map.items()
        for j, time in enumerate(times))
    exec_times = _exec_times(taskset, releases, exec_policy, rng)

    jobs = []
    segments = []
    # ready subtasks of all jobs as (task_index, job_index, v, state), best
    # first; the first three fields are unique, so state is never compared
    queue = []
    ptr = 0
    if not releases:
        return SimResult(taskset, m, horizon, segments, jobs)
    t = releases[0][0]

    while True:
        while ptr < len(releases) and releases[ptr][0] == t:
            _, idx, jnum = releases[ptr]
            task = taskset.tasks[idx]
            job = Job(idx, jnum, t, t + task.deadline, exec_times[ptr],
                      subtask_ready=[None] * task.dag.n,
                      subtask_completion=[None] * task.dag.n)
            ptr += 1
            jobs.append(job)
            sources = task.dag.sources()
            for v in sources:
                job.subtask_ready[v] = t
            _ActiveJob(job, task.dag).admit_ready(sources, t, queue)

        running = queue[:m]
        next_release = releases[ptr][0] if ptr < len(releases) else None
        if not running:
            if next_release is None:
                break
            t = next_release
            continue
        dt = min(state.remaining[v] for _, _, v, state in running)
        if next_release is not None and next_release - t < dt:
            dt = next_release - t
        t_next = t + dt

        finished = []
        for slot, (task_index, job_index, v, state) in enumerate(running):
            seg = (slot, task_index, job_index, v, t, t_next)
            segments.append(seg)
            state.job.segments.append(seg)
            state.remaining[v] -= dt
            if state.remaining[v] == 0:
                finished.append(slot)
        # the running entries are the queue's head, so drop the finished
        # ones by position before their successors are queued
        for slot in reversed(finished):
            del queue[slot]
        for slot in finished:
            _, _, v, state = running[slot]
            newly = []
            state.complete(v, t_next, newly)
            state.admit_ready(newly, t_next, queue)
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
    dag = sim.taskset.tasks[job.task_index].dag
    comp = job.subtask_completion
    last = min(v for v in range(dag.n) if comp[v] == max(comp))
    chain = [last]
    while dag.preds[chain[0]]:
        preds = dag.preds[chain[0]]
        best = max(comp[p] for p in preds)
        chain.insert(0, min(p for p in preds if comp[p] == best))
    return chain


def _blocked_intervals(sim, job, chain):
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
