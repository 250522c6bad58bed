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

The trace holds per-processor execution segments in time order, in one
list: tuples of six ints in ``SEGMENT_FIELDS`` order, (proc, task, job,
subtask, start, end), one per running subtask per step.  Critical chains
follow last-completing predecessors.  Critical interference reads the
job's own segments among those that start in [release, completion), found
by bisection, so its cost is linear in them; its split per task takes one
pass over the segments that overlap the blocked intervals.

`audit_trace` checks that every segment names a processor in 0..m-1, and
that no processor runs two segments at once, so at most m subtasks run at
any instant.  It checks each job's record: the job completes with its last
subtask, a subtask is ready at the job's release (no predecessors) or when
its last predecessor completes, and a zero-time subtask completes when it
is ready.  It computes once per subtask its rank number; each segment's
start is compared with its subtask's ready time and with the segment's
end, and its length is subtracted from its subtask's execution time.  Per
subtask, the lengths must sum to that time, the segments must not overlap
one another and the last must end at the recorded completion, so a trace
that passes certifies its response times.
The priority and work-conservation rules have something to check only
where a subtask waits: per subtask, its ready interval minus its own
segments, mapped to event points by bisection.  The audit visits just those
points in time order and reads the running subtasks with one bisection per
processor, raising `AssertionError` at the first violation.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from itertools import accumulate
from operator import itemgetter

import numpy as np

from .dag import exec_vector
from .errors import SimulationError, ValidationError, is_integer

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
    exec_times: tuple
    subtask_ready: list = field(default_factory=list)
    subtask_completion: list = field(default_factory=list)
    completion: int | None = None

    @property
    def response(self):
        return None if self.completion is None else self.completion - self.release


@dataclass
class SimResult:
    taskset: object
    processors: int
    horizon: int
    # every segment tuple in time order; one step's segments share
    # [start, end) and steps do not overlap, so _blocked_intervals and
    # interference_by_task may bisect starts and ends
    segments: list
    jobs: list

    def response_times(self):
        return [(j.task_index, j.job_index, j.response)
                for j in self.jobs if j.completion is not None]


def _release_times(taskset, horizon, policy, rng):
    if isinstance(policy, dict):
        if any(not is_integer(k) or not 0 <= k < len(taskset.tasks) for k in policy):
            raise SimulationError("scripted releases name a task outside the set")
        out = {}
        for idx, task in enumerate(taskset.tasks):
            message = f"scripted releases of task {idx} must be integers in [0, horizon)"
            try:  # sorted refuses a non-iterable, and most mixes of types
                times = sorted(policy.get(idx, []))
            except TypeError:
                raise SimulationError(message) from None
            if not all(is_integer(x) and 0 <= x < horizon for x in times):
                raise SimulationError(message)
            for a, b in zip(times, times[1:]):
                if b - a < task.period:
                    raise SimulationError(
                        f"scripted releases of task {idx} violate the period")
            out[idx] = list(map(int, times))
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
        if not policy.keys() <= {(idx, j) for _, idx, j in releases}:
            raise SimulationError("scripted execution times name no released (task, job)")
        try:
            return [exec_vector(dag, policy.get((idx, j), dag.wcets))
                    for (_, idx, j), dag in zip(releases, dags)]
        except ValidationError:  # see `exec_vector`
            raise SimulationError(
                "execution times must be integers in [0, WCET] per subtask") from None
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
    releases: task index -> integer release times in [0, horizon).  A dict
    `exec_policy` scripts execution times: released (task, job) -> times."""
    if not is_integer(m) or m <= 0:
        raise SimulationError("need at least one processor, as an integer count")
    if not taskset.tasks:
        raise SimulationError("the task set is empty: nothing to simulate")
    if not is_integer(horizon) or horizon < max(t.period for t in taskset.tasks):
        raise SimulationError("horizon must be an integer covering at least the largest period")
    m, horizon = int(m), int(horizon)
    if rng is None:
        rng = np.random.default_rng(0)
    elif not isinstance(rng, np.random.Generator):
        raise SimulationError(f"rng must be a numpy Generator or None, got {rng!r}")

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
            job = Job(idx, jnum, t, times,
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
            task_index, job_index, v, remaining, _, _ = entry
            add_segment((slot, task_index, job_index, v, t, t_next))
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
    if job.completion is None:
        raise SimulationError("job did not complete within the trace")
    comp, segs, ti, ji = job.subtask_completion, sim.segments, job.task_index, job.job_index
    lo = bisect_left(segs, job.release, key=_START)
    runs = {}  # subtask -> its segments' (start, end), in time order
    for _, task, jnum, v, start, end in segs[lo:bisect_left(segs, job.completion, lo, key=_START)]:
        if jnum == ji and task == ti:
            runs.setdefault(v, []).append((start, end))
    cur, blocked = job.release, []
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

def _shown(time):
    return None if time == _NEVER else time


def audit_trace(sim) -> None:
    """Check processor ids, the jobs' record (per job: it completes with its
    last subtask; per subtask: it is ready at its job's release or when its
    last predecessor completes, and completes then if it has no execution
    time), precedence, the schedule certificate (per subtask: its segments
    sum to its execution time, do not overlap one another and end at its
    completion), work conservation and priority rules on a trace.

    Raises AssertionError on the first violation, so a trace that passes is
    a valid work-conserving G-FP schedule of its jobs and certifies their
    response times.
    """
    m = sim.processors
    by_proc = {}
    for seg in sim.segments:
        by_proc.setdefault(seg[0], []).append(seg)
    for proc in by_proc:
        if proc not in range(m):
            raise AssertionError(f"processor {proc} outside 0..{m - 1}")
    for proc, segs in by_proc.items():
        segs.sort(key=_START)
        for a, b in zip(segs, segs[1:]):
            if a[5] > b[4]:
                raise AssertionError(f"processor {proc} overlaps: {a} / {b}")

    # per job, in rank order (task index, job index): its record is checked,
    # and it gets its first rank number, then one per subtask id (a smaller
    # number is a higher rank); per subtask its ready time, which the check
    # makes its predecessors' last completion and so the earliest start that
    # precedence allows (_NEVER stands for a missing time); per rank number
    # the execution time its segments have yet to run
    tasks = sim.taskset.tasks
    job_map = {(j.task_index, j.job_index): j for j in sim.jobs}
    info, readies, left, number = {}, [], [], 0
    for key in sorted(job_map):
        job = job_map[key]
        release, times = job.release, job.exec_times
        comp, limits = job.subtask_completion, job.subtask_ready
        if None in comp:
            comp = [_NEVER if c is None else c for c in comp]
        if None in limits:
            limits = [_NEVER if r is None else r for r in limits]
        for v, (ready, preds) in enumerate(zip(limits, tasks[key[0]].dag.preds)):
            if preds:
                expect = comp[preds[0]]
                for p in preds:
                    if comp[p] > expect:
                        expect = comp[p]
            else:
                expect = release
            if ready != expect:
                raise AssertionError(f"subtask {v} of job {key} is ready at "
                                     f"{_shown(ready)}, not at {_shown(expect)}")
            if times[v]:
                if ready != _NEVER:
                    readies.append((ready if ready > release else release, comp[v], number + v))
            elif comp[v] != ready:
                raise AssertionError(
                    f"subtask {v} of job {key} has no execution time but completes "
                    f"at {_shown(comp[v])}, not at its ready time {_shown(ready)}")
        latest = max(comp, default=release)
        if (_NEVER if job.completion is None else job.completion) != latest:
            raise AssertionError(f"job {key} completes at {job.completion}, not at its "
                                 f"last subtask's completion {_shown(latest)}")
        info[key] = number, limits
        left += times
        number += len(times)

    runs = {}  # rank number -> its segments, in trace order
    for seg in sim.segments:
        _, task, jnum, v, start, end = seg
        if end < start:
            raise AssertionError(f"segment {seg} ends before it starts")
        entry = info.get((task, jnum))
        if entry is None or not 0 <= v < len(entry[1]):
            raise AssertionError(f"segment {seg} names no subtask of a simulated job")
        first, limits = entry
        if start < limits[v]:
            raise AssertionError(f"segment {seg} starts before readiness "
                                 f"{_shown(limits[v])}")
        k = first + v
        left[k] -= end - start
        runs.setdefault(k, []).append(seg)
    if any(left):
        k = next(k for k, rest in enumerate(left) if rest)
        key = next(key for key, (first, _) in reversed(info.items()) if first <= k)
        v = k - info[key][0]
        x = job_map[key].exec_times[v]
        raise AssertionError(
            f"subtask {v} of job {key} runs {x - left[k]} units, not its execution time {x}")

    # now every subtask with execution time has segments.  The rules hold in
    # each interval [lo, hi) between consecutive event points, and have
    # something to check only where a subtask waits: ready in
    # [max(ready, release), completion) but running in none of its own
    # segments.  Per event-point index, the highest-ranked waiting subtask:
    points = set(map(_START, sim.segments))
    points.update(map(_END, sim.segments), [j.release for j in sim.jobs])
    points = sorted(points)
    last = len(points) - 1  # the index of the last point, where no interval starts
    waits = {}

    def wait(a, b, number):  # the subtask `number` waits in [a, b)
        for i in range(bisect_left(points, a), min(bisect_left(points, b), last)):
            waits.setdefault(i, number)

    for cur, comp, number in readies:  # in rank order, so setdefault keeps the best
        own = runs[number]
        if len(own) > 1:
            own = sorted(own, key=_START)
        if own[-1][5] != comp:
            raise AssertionError(f"segment {own[-1]} does not end at its subtask's "
                                 f"completion {None if comp == _NEVER else comp}")
        # the last segment ends at the completion, so no wait follows it
        edge = -_NEVER  # the previous segment's end
        for _, _, _, _, start, end in own:
            if start < edge:
                a, b = next((a, b) for a, b in zip(own, own[1:]) if a[5] > b[4])
                raise AssertionError(f"subtask runs twice at once: {a} / {b}")
            if start > cur:
                wait(cur, start, number)
            if end > cur:
                cur = end
            edge = end

    # a processor's segments do not overlap, so the one running at lo, if
    # any, is the last to start by lo
    for i in sorted(waits):
        lo = points[i]
        running = set()
        for lane in by_proc.values():
            k = bisect_right(lane, lo, key=_START)
            if k:
                _, task, jnum, v, _, end = lane[k - 1]
                if end > lo:
                    running.add(info[task, jnum][0] + v)
        if len(running) != m:
            raise AssertionError(
                f"work conservation violated in [{lo},{points[i + 1]}): {len(running)} running")
        if not max(running) < waits[i]:
            raise AssertionError(f"priority inversion in [{lo},{points[i + 1]})")
