"""Seeded random generation of DAG tasks and task sets.

Graphs come from the layered Erdos-Renyi recipe: fix n, draw each forward
edge of a random vertex ordering with probability p (acyclic by
construction) and add a minimum number of forward edges to make the graph
weakly connected.  WCETs are uniform integers; utilization is uniform in
[beta, work/span]; the deadline is a normal draw redrawn until it falls in
[span, period].  Everything is a pure function of (config, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dag import Dag, DagTask, TaskSet
from .errors import ValidationError

UTIL_TOL = 1e-3


@dataclass(frozen=True)
class GenConfig:
    edge_prob: float = 0.2
    n_range: tuple = (10, 20)
    wcet_range: tuple = (1, 100)
    beta: float = 0.1
    seed: int = 0

    def __post_init__(self):
        # edge_prob 0 is allowed as a degenerate probe of the connectivity
        # fix-up (the result is a spanning tree)
        if not 0 <= self.edge_prob <= 1:
            raise ValidationError("config", "edge_prob must be in [0, 1]")
        if not 0 < self.beta <= 1:
            raise ValidationError("config", "beta must be in (0, 1]")
        if self.n_range[0] < 1 or self.n_range[0] > self.n_range[1]:
            raise ValidationError("config", "n_range must be a non-empty positive range")
        if self.wcet_range[0] < 1 or self.wcet_range[0] > self.wcet_range[1]:
            raise ValidationError("config", "wcet_range must be a non-empty positive range")

    def rng(self):
        return np.random.default_rng(np.random.SeedSequence(self.seed))


DESK_SCALE = {"n_range": (5, 10)}
PAPER_SCALE = {"n_range": (10, 20)}


def gen_dag(config, rng) -> Dag:
    """Random weakly-connected DAG per the Erdos-Renyi recipe above."""
    n = int(rng.integers(config.n_range[0], config.n_range[1] + 1))
    order = [int(v) for v in rng.permutation(n)]
    pos = {v: i for i, v in enumerate(order)}
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < config.edge_prob:
                edges.append((order[i], order[j]))

    # connect components with a minimum number of forward edges: walk the
    # components by earliest position, linking the latest usable vertex of
    # the merged prefix to the next component's earliest vertex
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
    return Dag(wcets, edges)


def _draw_deadline(rng, length, period):
    if period == length:
        return length
    mu = (period + length) / 2
    sd = (period - length) / 4
    for _ in range(10_000):
        d = int(round(rng.normal(mu, sd)))
        if length <= d <= period:
            return d
    return int(round(mu))  # unreachable in practice


def gen_task(dag, config, rng) -> DagTask:
    """Attach utilization-driven period and deadline to a DAG."""
    c, length = dag.work, dag.span
    ratio = c / length
    util = ratio if ratio < config.beta else float(rng.uniform(config.beta, ratio))
    period = max(length, int(round(c / util)))
    deadline = _draw_deadline(rng, length, period)
    return DagTask(dag, deadline, period)


def _fit_period(c, length, target_util):
    """Integer period >= length whose utilization best matches the target."""
    ideal = c / target_util
    cands = {max(length, int(np.floor(ideal))), max(length, int(np.ceil(ideal)))}
    return min(cands, key=lambda t: abs(c / t - target_util))


def gen_taskset(total_util, m, config, rng=None) -> TaskSet:
    """Append tasks until the cumulative utilization reaches total_util.

    The crossing task's period is adjusted so the cumulative utilization
    matches total_util within a 1e-3 relative tolerance; if integer periods
    cannot reach the tolerance for the remaining gap, intermediate tasks
    absorb half the gap each until the fit succeeds.
    """
    if total_util <= 0:
        raise ValidationError("util", "total utilization must be positive")
    if rng is None:
        rng = config.rng()
    tol = UTIL_TOL * total_util
    tasks = []
    cum = 0.0
    while cum < total_util - tol:
        gap = total_util - cum
        dag = gen_dag(config, rng)
        task = gen_task(dag, config, rng)
        util = task.work / task.period
        if cum + util < total_util - tol:
            tasks.append(task)
            cum += util
            continue
        # crossing task: adjust its period upward to land on the target
        period = _fit_period(task.work, task.span, gap)
        if abs(task.work / period - gap) <= tol:
            deadline = _draw_deadline(rng, task.span, period)
            task = DagTask(task.dag, deadline, period)
            tasks.append(task)
            cum += task.work / task.period
            break
        # gap too coarse for this DAG: absorb half of it and keep going
        period = _fit_period(task.work, task.span, gap / 2)
        deadline = _draw_deadline(rng, task.span, period)
        task = DagTask(task.dag, deadline, period)
        tasks.append(task)
        cum += task.work / task.period
    return TaskSet(tasks, m)


def assign_priorities_dm(taskset) -> TaskSet:
    """Deadline Monotonic priorities; ties keep generation order (stable)."""
    ordered = sorted(taskset.tasks, key=lambda t: t.deadline)
    tasks = [replace(t, priority=rank) for rank, t in enumerate(ordered)]
    return TaskSet(tasks, taskset.processors)
