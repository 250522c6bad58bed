"""Seeded random generation of DAG tasks and task sets.

Graphs come from the layered Erdos-Renyi recipe: fix n, draw each forward
edge of a random vertex ordering with probability p (acyclic by
construction) and add a minimum number of forward edges to make the graph
weakly connected.  The n(n-1)/2 edge draws are taken in one call, in
row-major order over position pairs i < j (the same stream as one scalar
draw per pair).  The fix-up links position h - 1 to position h for every
h > 0 that is the earliest position of its component: all earlier
positions already form one connected prefix.  Every edge joins an earlier
position to a later one, so the drawn ordering is a topological order:
the `Dag` is built from it and the successor lists directly
(`Dag._from_order`), with no edge list, edge check or Kahn pass; only the
WCETs are checked, their sum below 2^63 as in `Dag`.  WCETs are uniform
integers; utilization is uniform in [beta, work/span]; the deadline is a
normal draw redrawn until it falls in [span, period].  Vertex counts stop at
`MAX_VERTICES`, since the edge draws grow as n^2, and a task set's
utilization at `MAX_TASKS` tasks' worth.  Everything is a pure function of
(config, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, compress

import numpy as np

from .dag import Dag, DagTask, TaskSet
from .errors import ValidationError, is_integer, is_number, require

UTIL_TOL = 1e-3
INT64_MAX = 2**63 - 1
# the largest vertex count a DAG is drawn with: `gen_dag` draws n(n-1)/2
# edge coins, so its time and memory grow as n^2 (`dagsched generate
# --n-range N N` peaked at 44, 46, 82 and 397 MB RSS in 0.1, 0.1, 0.4 and
# 3.8-4.2 s at N = 250, 500, 1,000 and 2,000 on a 2-vCPU Xeon)
MAX_VERTICES = 1000
# the most tasks a set is drawn with, near enough: every drawn task's
# utilization is at least beta/2 (rounding its period costs at most one unit,
# and a period of 1 gives a utilization of at least 1), so `gen_taskset`
# refuses a total above MAX_TASKS * beta / 2, plus the few tasks that absorb
# half a gap; the paper's grid needs 280 (U = 14 at beta 0.1).  At the bound,
# `dagsched generate --util 500 --procs 512 --beta 1 --edge-prob 1` drew 500
# tasks in 0.24 s at 45 MB peak RSS, and `--util 50 --procs 64` (beta 0.1)
# 54 tasks in 0.17 s at 36 MB, in a fresh process on a 2-vCPU Xeon
MAX_TASKS = 1000


@dataclass(frozen=True)
class GenConfig:
    edge_prob: float = 0.2
    n_range: tuple = (5, 10)
    wcet_range: tuple = (1, 100)
    beta: float = 0.1
    seed: int = 0

    def __post_init__(self):
        require(is_number(self.edge_prob), "edge_prob", "a number")
        require(is_number(self.beta), "beta", "a number")
        for name in ("n_range", "wcet_range"):
            value = getattr(self, name)
            require(isinstance(value, (tuple, list)) and len(value) == 2
                    and all(map(is_integer, value)), name, "a pair of integers")
        require(is_integer(self.seed) and self.seed >= 0, "seed", "a non-negative integer")
        # edge_prob 0 is allowed as a degenerate probe of the connectivity
        # fix-up (the result is a spanning tree)
        if not 0 <= self.edge_prob <= 1:
            raise ValidationError("config", "edge_prob must be in [0, 1]")
        if not 0 < self.beta <= 1:
            raise ValidationError("config", "beta must be in (0, 1]")
        # each range's ends are drawn as int64s, both inclusive; kept as a
        # pair of Python ints, so that high + 1 cannot wrap around
        for name, most, text in (("n_range", MAX_VERTICES, str(MAX_VERTICES)),
                                 ("wcet_range", INT64_MAX, "2^63 - 1")):
            low, high = map(int, getattr(self, name))
            if not 1 <= low <= high <= most:
                raise ValidationError(
                    "config", f"{name} must be a non-empty range of integers in [1, {text}]")
            object.__setattr__(self, name, (low, high))

    def rng(self):
        return np.random.default_rng(np.random.SeedSequence(self.seed))


def gen_dag(config, rng) -> Dag:
    """Random weakly-connected DAG per the Erdos-Renyi recipe above."""
    n = int(rng.integers(config.n_range[0], config.n_range[1] + 1))
    order = rng.permutation(n).tolist()
    # one draw per position pair i < j, in row-major order
    hits = (rng.random(n * (n - 1) // 2) < config.edge_prob).tolist()
    pairs = list(compress(combinations(range(n), 2), hits))

    # union-find whose root is the smallest position of its component; each
    # root h > 0 gets the link (h - 1, h): every position before h is connected
    root = list(range(n))
    for i, j in pairs:
        while root[i] != i:
            i = root[i]
        while root[j] != j:
            j = root[j]
        if i < j:
            root[j] = i
        elif j < i:
            root[i] = j
    pairs += [(h - 1, h) for h in range(1, n) if root[h] == h]
    # every pair joins an earlier position to a later one, so the drawn
    # permutation is a topological order and no check is needed
    succ = [[] for _ in range(n)]
    for i, j in pairs:
        succ[order[i]].append(order[j])

    wcets = rng.integers(config.wcet_range[0], config.wcet_range[1] + 1, size=n).tolist()
    return Dag._from_order(wcets, succ, order)


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
    # work/span >= 1 >= beta, so the range is never empty
    util = float(rng.uniform(config.beta, c / length))
    period = max(length, int(round(c / util)))
    deadline = _draw_deadline(rng, length, period)
    return DagTask(dag, deadline, period)


def _fit_period(c, length, target_util):
    """Integer period >= length whose utilization best matches the target."""
    ideal = c / target_util
    cands = {max(length, int(np.floor(ideal))), max(length, int(np.ceil(ideal)))}
    return min(cands, key=lambda t: abs(c / t - target_util))


def gen_taskset(total_util, m, config, rng=None, stop=None) -> TaskSet | None:
    """Append tasks until the cumulative utilization reaches total_util.

    The crossing task's period is adjusted so the cumulative utilization
    matches total_util within a 1e-3 relative tolerance; if integer periods
    cannot reach the tolerance for the remaining gap, intermediate tasks
    absorb half the gap each until the fit succeeds.  A total utilization
    above m is refused: no such set is feasible; so is one above
    MAX_TASKS·beta/2, which would take more than about MAX_TASKS tasks, and
    one too small for a float period: the fit asks for periods below
    2·C/(1e-3·total_util), C the largest work the config allows.  The total
    is read as a float.  `rng` is a numpy Generator (by default the
    config's) and `stop` a callable or None.  If `stop(task)` holds for
    a task in its final form, about to be appended, the set is abandoned
    and the result is None; the draws before it are those of the full set.
    """
    if not (is_number(total_util) and 0 < total_util < float("inf")):  # nan, inf: an empty set
        raise ValidationError("util", "total utilization must be a positive finite number")
    m = TaskSet([], m).processors  # the processor rule, before the first draw
    if total_util > m:
        raise ValidationError("util", f"total utilization {total_util} exceeds {m} processors")
    require(isinstance(config, GenConfig), "config", "a GenConfig")
    if total_util > MAX_TASKS * config.beta / 2:
        raise ValidationError("util", f"total utilization {total_util} needs more than about "
                                      f"{MAX_TASKS} tasks at beta {config.beta}")
    total_util = float(total_util)
    most_work = config.n_range[1] * config.wcet_range[1]
    if 2 * most_work / UTIL_TOL / total_util == float("inf"):
        raise ValidationError("util", f"total utilization {total_util} is too small "
                                      f"for a float period of work up to {most_work}")
    require(rng is None or isinstance(rng, np.random.Generator), "rng",
            "a numpy Generator or None")
    require(stop is None or callable(stop), "stop", "a callable or None")
    if rng is None:
        rng = config.rng()
    tol = UTIL_TOL * total_util
    tasks = []
    cum = 0.0
    landed = False
    while not landed and cum < total_util - tol:
        gap = total_util - cum
        dag = gen_dag(config, rng)
        task = gen_task(dag, config, rng)
        if cum + task.work / task.period >= total_util - tol:
            # crossing task: adjust its period upward to land on the target;
            # if the gap is too coarse for this DAG, absorb half of it instead
            period = _fit_period(task.work, task.span, gap)
            landed = abs(task.work / period - gap) <= tol
            if not landed:
                period = _fit_period(task.work, task.span, gap / 2)
            task = DagTask(dag, _draw_deadline(rng, task.span, period), period)
        if stop is not None and stop(task):
            return None
        tasks.append(task)
        cum += task.work / task.period
    return TaskSet(tasks, m)


def assign_priorities_dm(taskset) -> TaskSet:
    """Deadline Monotonic priorities: the tasks sorted by deadline into a new
    task set; ties keep generation order (stable)."""
    return TaskSet(sorted(taskset.tasks, key=lambda t: t.deadline), taskset.processors)
