"""DAG task model: parallel tasks whose jobs are precedence-constrained subtasks.

Time is integral everywhere.  A task's *work* is the sum of its subtask
WCETs, its *span* the length of a longest precedence chain; constrained
deadlines require span <= deadline <= period.  A task set lists its tasks
in priority order: a task's priority is its index, 0 the highest.  A `Dag`
computes work, span, starts and one topological order when built (the
generator hands it the order it drew), edges and adjacency when read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from operator import add

from .errors import PathExplosionError, ValidationError, as_int, is_integer

PATH_CAP = 100_000


class Dag:
    """Immutable DAG over dense vertex ids 0..n-1 with integer WCETs.

    Outside input is checked once, by the constructor: a ValidationError
    names the first broken rule of "wcet" (non-negative integers, work below
    2^63), "edge" (integer endpoint pairs), "dangling-edge", "self-loop" and
    "cycle"; bools and floats are rejected, numpy integers stored as ints.
    One Kahn pass over the edges finds cycles and a topological order.  The
    constructor and `taskgen.gen_dag` then share one core, `_derive`, which
    takes the WCETs with their checked sum, successor lists and a
    topological order and sets ``work``, ``n``, ``starts`` (ASAP start
    times at full WCETs, in one push pass), ``span``, ``order`` and
    ``_succ``.  ``order`` is the constructor's Kahn order or the
    generator's drawn vertex order, whose successor lists need no check
    (`_from_order`; only its WCETs are checked); every reader accepts any
    topological order.  The rest is built on first read:
    ``succs`` and ``preds`` (ascending tuples, ``preds`` derived from
    ``succs``), ``sources``, ``sinks`` and ``edges`` (sorted, no
    duplicates).  The DAG holds one adjacency, ``_succ``: the successor
    lists it was built with, in edge order with repeats, which ``succs``
    replaces once read.  The work curve walks whichever of the two is held
    and reads none of these facts, so an analysis builds none; the simulator
    reads ``succs``, ``preds`` and ``sources``; ``edges`` is built for
    export, ``__eq__``/``__hash__`` and the carry-out model.  The workload
    tables are not kept here: each analysis holds its own (see `workload`).
    """

    def __init__(self, wcets, edges):
        try:
            wcets = tuple(wcets)
        except TypeError as exc:
            raise ValidationError("wcet", f"WCETs must be a sequence: {exc}") from None
        if not {int}.issuperset(map(type, wcets)):  # bools, floats, numpy integers
            wcets = tuple(as_int(w, "wcet", f"WCET of vertex {v}") for v, w in enumerate(wcets))
        work = _checked_work(wcets)
        n = len(wcets)
        # a repeated edge counts twice here, which Kahn's pass tolerates and `succs` drops
        succ = [[] for _ in range(n)]
        indeg = [0] * n
        try:
            for a, b in edges:
                if type(a) is not int or type(b) is not int:
                    a, b = as_int(a, "edge", "edge endpoint"), as_int(b, "edge", "edge endpoint")
                if not (0 <= a < n and 0 <= b < n):
                    raise ValidationError("dangling-edge", f"edge ({a},{b}) references a vertex outside 0..{n - 1}")
                if a == b:
                    raise ValidationError("self-loop", f"vertex {a} has a self-loop")
                succ[a].append(b)
                indeg[b] += 1
        except (TypeError, ValueError) as exc:
            raise ValidationError("edge", f"edges must be (src, dst) pairs: {exc}") from None
        # Kahn's algorithm in any ready order
        ready = [v for v in range(n) if not indeg[v]]
        for v in ready:  # the list grows while it is read
            for b in succ[v]:
                indeg[b] -= 1
                if not indeg[b]:
                    ready.append(b)
        if len(ready) != n:  # leftovers mean a cycle
            raise ValidationError("cycle", "edge set contains a directed cycle")
        self._derive(wcets, work, succ, ready)

    @classmethod
    def _from_order(cls, wcets, succ, order):
        """A DAG from trusted successor lists and a topological order of
        them, as `taskgen.gen_dag` draws them; only the WCETs, whose range
        is outside input, are checked."""
        wcets = tuple(wcets)
        dag = cls.__new__(cls)
        dag._derive(wcets, _checked_work(wcets), succ, order)
        return dag

    def _derive(self, wcets, work, succ, order):
        # in topological order a vertex's ASAP start is final when it is
        # reached, so its finish updates its successors
        self.wcets, self.work, self.n = wcets, work, len(wcets)
        starts = [0] * self.n
        for v in order:
            finish = starts[v] + wcets[v]
            for b in succ[v]:
                if finish > starts[b]:
                    starts[b] = finish
        self._succ = succ
        self.order = tuple(order)
        self.starts = tuple(starts)
        self.span = max(map(add, starts, wcets), default=0)

    @cached_property
    def succs(self):  # replaces the lists it was built with: held once, and a rerun agrees
        self._succ = succs = tuple(tuple(sorted(set(s))) for s in self._succ)
        return succs

    # sorted, so the edges, preds and succs have one canonical order
    edges = cached_property(lambda self: tuple((a, b) for a, s in enumerate(self.succs) for b in s))
    sources = cached_property(lambda self: tuple(v for v in range(self.n) if not self.preds[v]))
    sinks = cached_property(lambda self: tuple(v for v in range(self.n) if not self.succs[v]))

    @cached_property
    def preds(self):  # from succs, in ascending order as a rises
        preds = [[] for _ in range(self.n)]
        for a, s in enumerate(self.succs):
            for b in s:
                preds[b].append(a)
        return tuple(map(tuple, preds))

    def __eq__(self, other):
        return (isinstance(other, Dag)
                and self.wcets == other.wcets and self.edges == other.edges)

    def __hash__(self):
        return hash((self.wcets, self.edges))

    def __repr__(self):
        return f"Dag(n={self.n}, work={self.work}, span={self.span})"


def _checked_work(wcets) -> int:
    """The sum of the WCETs; ValidationError ("wcet") unless they are
    non-negative and sum below 2^63."""
    work = sum(wcets)
    # the work tables are int64 arrays, hence the bound on the sum
    if (wcets and min(wcets) < 0) or work >= 2**63:
        raise ValidationError("wcet", "subtask WCETs must be non-negative, their sum below 2^63")
    return work


def work(dag) -> int:
    return dag.work


def span(dag) -> int:
    return dag.span


def normalize_source_sink(dag) -> Dag:
    """Return an equivalent DAG with exactly one source and one sink.

    Dummy zero-WCET vertices are appended at the end only when needed, so
    the operation is idempotent and preserves work, span and start times
    of the original vertices.
    """
    if len(dag.sources) == 1 and len(dag.sinks) == 1:
        return dag
    wcets, edges = list(dag.wcets), list(dag.edges)
    if len(dag.sources) > 1:  # a new source, vertex len(wcets)
        edges += [(len(wcets), v) for v in dag.sources]
        wcets.append(0)
    if len(dag.sinks) > 1:
        edges += [(v, len(wcets)) for v in dag.sinks]
        wcets.append(0)
    return Dag(wcets, edges)


def exec_vector(dag, exec_times) -> tuple:
    """`exec_times` as a tuple of Python ints, read once like a `Dag`'s
    WCETs (numpy integers stored as ints).  ValidationError ("exec") unless
    it is an iterable of one integer in [0, wcet] per vertex."""
    try:
        times = tuple(exec_times)
    except TypeError:
        raise ValidationError("exec", f"exec times must be a sequence, got {exec_times!r}") from None
    if len(times) != dag.n:
        raise ValidationError("exec", f"exec times must cover the {dag.n} vertices, "
                                      f"got {len(times)}")
    for v, (x, c) in enumerate(zip(times, dag.wcets)):
        if not (is_integer(x) and 0 <= x <= c):
            raise ValidationError("exec", f"exec time {x!r} of vertex {v} must be an "
                                          f"integer in [0, {c}]")
    return tuple(map(int, times))


def asap_start_times(dag, exec_times):
    """Start times of the unrestricted-processor schedule for given exec times.

    start[v] = max over predecessors b of (start[b] + exec_times[b]), i.e.
    the longest distance from any source to v.  `exec_times` is read as
    `exec_vector` reads it.
    """
    exec_times = exec_vector(dag, exec_times)
    start = [0] * dag.n
    preds = dag.preds
    for v in dag.order:
        best = 0
        for p in preds[v]:
            finish = start[p] + exec_times[p]
            if finish > best:
                best = finish
        start[v] = best
    return start


def count_paths(dag) -> list:
    """Number of source-to-v paths of every vertex v; a source has one."""
    counts = [1] * dag.n
    for v in dag.order:
        if dag.preds[v]:
            counts[v] = sum(counts[p] for p in dag.preds[v])
    return counts


def source_paths(dag) -> list:
    """Every vertex's source-to-v paths as vertex-id tuples, in one pass
    over ``dag.order``.

    ``paths[v]`` is each predecessor's paths, predecessors in ascending
    order, each extended by v; a source's one path is itself.  Refuses with
    PathExplosionError after `count_paths`, before any path is built, when a
    vertex has more than ``PATH_CAP`` paths; callers should fall back to the
    edge-recursive formulation then.
    """
    counts = count_paths(dag)
    if max(counts, default=0) > PATH_CAP:
        raise PathExplosionError(
            f"path explosion: more than {PATH_CAP} paths to vertex "
            f"{counts.index(max(counts))}; "
            "use the edge-recursive formulation")
    paths = [None] * dag.n
    for v in dag.order:
        paths[v] = [path + (v,) for p in dag.preds[v] for path in paths[p]] or [(v,)]
    return paths


@dataclass(eq=False)  # identity semantics: two tasks with equal fields stay two tasks
class DagTask:
    """A sporadic DAG task with integer constrained deadline (span <= D <= T)."""

    dag: Dag
    deadline: int
    period: int
    work: int = field(init=False)
    span: int = field(init=False)

    def __post_init__(self):
        if not isinstance(self.dag, Dag):
            raise ValidationError("dag", f"a task's graph must be a Dag, got {self.dag!r}")
        self.deadline = as_int(self.deadline, "deadline", "deadline")
        self.period = as_int(self.period, "deadline", "period")
        self.work = self.dag.work
        self.span = self.dag.span
        if self.period <= 0 or self.deadline <= 0:
            raise ValidationError("deadline", "period and deadline must be positive")
        if not (self.span <= self.deadline <= self.period):
            raise ValidationError(
                "deadline",
                f"constrained deadline violated: span {self.span} <= deadline "
                f"{self.deadline} <= period {self.period} required")


@dataclass
class TaskSet:
    """Tasks plus processor count; list order is priority order (index 0 highest)."""

    tasks: list
    processors: int

    def __post_init__(self):
        self.processors = as_int(self.processors, "processors", "processor count")
        if self.processors <= 0:
            raise ValidationError("processors", "processor count must be positive")
        if not isinstance(self.tasks, (list, tuple)):
            raise ValidationError("tasks", f"tasks must be a list of DagTask, got {self.tasks!r}")
        for idx, task in enumerate(self.tasks):
            if not isinstance(task, DagTask):
                raise ValidationError("tasks", f"tasks[{idx}] must be a DagTask, got {task!r}")


# --- JSON schema -----------------------------------------------------------
#
# {"tasks": [{"period": int, "deadline": int,
#             "vertices": [{"wcet": int}, ...],
#             "edges": [[src, dst], ...]}, ...],
#  "processors": int}
#
# Priorities are implicit in list order.

def taskset_to_dict(ts) -> dict:
    return {
        "tasks": [
            {
                "period": t.period,
                "deadline": t.deadline,
                "vertices": [{"wcet": w} for w in t.dag.wcets],
                "edges": [[a, b] for a, b in t.dag.edges],
            }
            for t in ts.tasks
        ],
        "processors": ts.processors,
    }


def taskset_from_dict(doc) -> TaskSet:
    """Check the document's shape; `Dag`, `DagTask` and `TaskSet` check the
    values, and an error in task i is prefixed with "tasks[i]: "."""
    try:
        raw_tasks = doc["tasks"]
        m = doc["processors"]
    except (KeyError, TypeError) as exc:
        raise ValidationError("schema", f"task-set document missing key: {exc}") from exc
    if not isinstance(raw_tasks, list):
        raise ValidationError("schema", f"tasks must be a list, got {raw_tasks!r}")
    tasks = []
    for idx, entry in enumerate(raw_tasks):
        where = f"tasks[{idx}]"
        try:
            wcets = [v["wcet"] for v in entry["vertices"]]
            edges = entry["edges"]
            for e in edges:
                if not isinstance(e, list) or len(e) != 2:
                    raise ValidationError("schema", f"edge must be a [src, dst] pair, got {e!r}")
            tasks.append(DagTask(Dag(wcets, edges), entry["deadline"], entry["period"]))
        except (KeyError, TypeError) as exc:
            raise ValidationError("schema", f"{where} malformed: {exc}") from exc
        except ValidationError as exc:
            raise ValidationError(exc.rule, f"{where}: {exc}") from exc
    return TaskSet(tasks, m)


def save_taskset(ts, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(taskset_to_dict(ts), fh, indent=1)
        fh.write("\n")


def load_taskset(path) -> TaskSet:
    """Read a task-set file; an unreadable, non-UTF-8 or non-JSON file is a
    ValidationError ("file")."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers decode and JSON errors
        raise ValidationError("file", f"cannot read task set {path}: {exc}") from exc
    return taskset_from_dict(doc)
