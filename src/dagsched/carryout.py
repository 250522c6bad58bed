"""Exact upper bound on carry-out workload.

A carry-out job scheduled on unrestricted processors starts every subtask
the instant its predecessors finish.  Its workload inside a window of
length delta, maximized over all per-subtask execution times 0 <= X_a <=
C_a, is the optimum of an integer linear model: per vertex, execution time
X_a, contribution W_a, start time S_a, window headroom M_a and an
activation binary A_a, with

    max  sum W_a
    s.t. 0 <= X_a <= C_a                      (execution time box)
         0 <= W_a <= X_a                      (contribution <= execution)
         W_a <= M_a,  M_a >= 0                (window headroom)
         M_a <= delta - S_a + (1 - A_a)*L     (big-M, L = span)
         M_a <= A_a * delta
         S_a >= distance of every source path (start = longest distance)
         S_a <= L, S_source = 0

`build_model` holds the model as Python-int lists built once: per row its
nonzero (column, coefficient) terms over the columns kind*n + a (kinds X,
W, S, M, A), a `>=` flag and a right-hand side, and per column an upper
bound (every lower bound is 0), so a model is exact at any size.  Variable
names are built only for LP and MPS export.  `solve_exact` fixes every
binary and solves the one remaining LP, as dense integer rows over the
columns it keeps, with an exact rational simplex.  `brute_force_oracle`
enumerates execution vectors directly.  `WorkCurve` computes the same
optimum for every window length through an equivalent reformulation
(maximum total work whose makespan fits the window), solved in polynomial
time by a min-cost flow on the DAG itself, with a virtual source and sink
instead of a normalized copy: each augmentation is one pass over the
topological order plus a Dijkstra that repairs only the labels a backward
move improves.  The curve reads a DAG's order, WCETs and whichever
successor lists it holds (the constructor's, or `succs` once read), never
its edge list, `preds`, `sinks` or ASAP starts; `_cover_penalties` says why
edge order and repeated edges cannot change it.  `WorkCurve.ramps` writes
the curve as ramps for `_ramp_sums`, which tabulates it alone (`values`) or
beside the carry-in table in `workload._tables`.  All three routes are
cross-checked exactly in the test suite.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from math import floor, prod

import numpy as np

from . import simplex
from .dag import Dag, asap_start_times, exec_vector, source_paths
from .errors import OracleLimitError, SolverLimitError, ValidationError, is_integer

ORACLE_GUARD = 10**6


# --------------------------------------------------------------------------
# Window trimming (the solver's witness scoring)

def trim_to_window(dag, exec_times, delta):
    """Each vertex's in-window contribution under the unrestricted ASAP schedule.

    Entry v is min(x_v, max(delta - S_v, 0)) with S the `asap_start_times` of
    `exec_times`, read by `exec_vector`: a vertex capped at the window's end
    finishes at delta, so its successors start at delta or later either way.
    The trimmed schedule fits in [0, delta); its sum is the window workload.
    """
    exec_times = exec_vector(dag, exec_times)
    starts = asap_start_times(dag, exec_times)
    return [min(x, max(delta - s, 0)) for x, s in zip(exec_times, starts)]


def brute_force_oracle(dag, delta_co) -> int:
    """Maximum window workload by exhaustive execution-vector enumeration."""
    if delta_co <= 0:
        return 0
    space = prod(c + 1 for c in dag.wcets)
    if space > ORACLE_GUARD:
        raise OracleLimitError(
            f"{space} execution vectors exceed the enumeration guard {ORACLE_GUARD}")
    best = 0
    chunk = 100_000
    ranges = [range(c + 1) for c in dag.wcets]
    combos = itertools.product(*ranges)
    while True:
        block = list(itertools.islice(combos, chunk))
        if not block:
            break
        X = np.array(block, dtype=np.int64).T  # (n, k)
        k = X.shape[1]
        dist = np.zeros((dag.n, k), dtype=np.int64)
        total = np.zeros(k, dtype=np.int64)
        for v in dag.order:
            for p in dag.preds[v]:
                np.maximum(dist[v], dist[p] + X[p], out=dist[v])
            total += np.minimum(X[v], np.maximum(delta_co - dist[v], 0))
        best = max(best, int(total.max()))
    return best


# --------------------------------------------------------------------------
# Model construction and export

KINDS = "XWSMA"
X, W, S, M, A = range(len(KINDS))  # column kind * n + a is variable KINDS[kind]{a}


@dataclass
class CarryOutModel:
    """The carry-out model as sparse integer rows over the columns kind * n + a.

    Row i reads  sum of coef * x[j] over the terms (j, coef) of rows[i]
    >= rhs[i]  where geq[i], else  <= rhs[i]; no term is zero.  Every column
    j lies in [0, ub[j]], the A columns are binary, and the objective is the
    sum of the W columns.  All values are Python ints, so a model is exact at
    any size.  Variable names exist only for export.
    """

    dag: Dag
    delta_co: int
    formulation: str
    rows: list       # per row, its (column, coefficient) terms
    geq: list        # per row, True for >=
    rhs: list
    row_names: list
    ub: list         # per column

    @property
    def n(self):
        return self.dag.n

    @property
    def variables(self):
        return [f"{kind}{a}" for kind in KINDS for a in range(self.n)]

    @property
    def objective(self):
        """Objective coefficient per column: 1 on every W, 0 elsewhere."""
        return [int(kind == "W") for kind in KINDS for _ in range(self.n)]


def build_model(dag, delta_co, formulation="edge-recursive") -> CarryOutModel:
    """Linear model whose optimum bounds the carry-out workload.

    Requires a normalized (single-source, single-sink) DAG.  The
    edge-recursive form encodes start times with one constraint per edge;
    the path-enumerated form writes one distance constraint per source
    path and may refuse with a path-explosion error.
    """
    if not is_integer(delta_co) or delta_co < 0:
        raise ValidationError(
            "delta", f"the carry-out window must be a non-negative integer, got {delta_co!r}")
    sources, sinks = dag.sources, dag.sinks
    if len(sources) != 1 or len(sinks) != 1:
        raise ValidationError("normalize", "build_model requires a normalized DAG")
    if formulation not in ("edge-recursive", "path-enumerated"):
        raise ValidationError("formulation", f"unknown formulation {formulation!r}")

    n, length, delta = dag.n, dag.span, int(delta_co)
    names, geq, rhs, rows = [], [], [], []

    def add(name, terms, b=0, at_least=False):  # no row names a column twice
        rows.append([(kind * n + a, coef) for kind, a, coef in terms if coef])
        names.append(name)
        geq.append(at_least)
        rhs.append(b)

    for a in range(n):
        add(f"c2_{a}", [(W, a, 1), (X, a, -1)])
        add(f"c6_{a}", [(W, a, 1), (M, a, -1)])
        # M <= delta - S + (1 - A)*span, linearized big-M form
        add(f"c8a_{a}", [(M, a, 1), (S, a, 1), (A, a, length)], delta + length)
        add(f"c8b_{a}", [(M, a, 1), (A, a, -delta)])

    if formulation == "edge-recursive":
        for b, a in dag.edges:
            add(f"prec_{b}_{a}", [(S, a, 1), (S, b, -1), (X, b, -1)], at_least=True)
    else:
        for a, paths in enumerate(source_paths(dag)):
            if a == sources[0]:  # its one path is itself, and S of the source is 0
                continue
            for idx, path in enumerate(paths):
                add(f"dist_{a}_{idx}", [(S, a, 1)] + [(X, b, -1) for b in path[:-1]],
                    at_least=True)

    s_ub = [0 if a == sources[0] else length for a in range(n)]
    # W <= C and M <= delta are implied by W <= X and M <= A*delta
    ub = [*dag.wcets, *dag.wcets, *s_ub, *[delta] * n, *[1] * n]
    return CarryOutModel(dag, delta, formulation, rows, geq, rhs, names, ub)


def export_model(model, fmt="lp") -> str:
    if fmt == "lp":
        return _export_lp(model)
    if fmt == "mps":
        return _export_mps(model)
    raise ValidationError("format", f"unknown export format {fmt!r}")


def _export_lp(model) -> str:
    names = model.variables
    binaries = A * model.n  # the A columns come last
    out = [f"\\ carry-out workload model: delta_co={model.delta_co}, "
           f"span={model.dag.span}, formulation={model.formulation}",
           "Maximize",
           " obj: " + " + ".join(sorted(names[W * model.n:S * model.n])),
           "Subject To"]
    for name, row, geq, rhs in zip(model.row_names, model.rows, model.geq, model.rhs):
        terms = []
        for var, coef in sorted((names[j], coef) for j, coef in row):
            if coef >= 0:
                terms.append(f"+ {coef} {var}" if terms else f"{coef} {var}")
            else:
                terms.append(f"- {-coef} {var}")
        out.append(f" {name}: {' '.join(terms)} {'>=' if geq else '<='} {rhs}")
    out.append("Bounds")
    for var, ub in zip(names[:binaries], model.ub):
        out.append(f" {var} = 0" if ub == 0 else f" {var} <= {ub}")
    out += ["Binaries", " " + " ".join(names[binaries:]),
            "Generals", " " + " ".join(names[:binaries]), "End"]
    return "\n".join(out) + "\n"


def _export_mps(model) -> str:
    names, rows = model.variables, model.row_names
    columns = [[("OBJ", 1)] if obj else [] for obj in model.objective]
    for rname, row in zip(rows, model.rows):
        for j, coef in row:
            columns[j].append((rname, coef))
    lines = ["NAME          CARRYOUT", "OBJSENSE", "    MAX", "ROWS", " N  OBJ"]
    lines += [f" {'G' if geq else 'L'}  {name}" for name, geq in zip(rows, model.geq)]
    lines += ["COLUMNS", "    MARKER                 'MARKER'                 'INTORG'"]
    for var, entries in zip(names, columns):
        for rname, coef in entries:
            lines.append(f"    {var:<9} {rname:<9} {coef}")
    lines += ["    MARKER                 'MARKER'                 'INTEND'", "RHS"]
    lines += [f"    RHS       {name:<9} {rhs}" for name, rhs in zip(rows, model.rhs) if rhs != 0]
    lines.append("BOUNDS")
    for j, (var, ub) in enumerate(zip(names, model.ub)):
        if j >= A * model.n:
            lines.append(f" BV BND       {var}")
        elif ub == 0:
            lines.append(f" FX BND       {var:<9} 0")
        else:
            lines.append(f" UP BND       {var:<9} {ub}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def verify_assignment(model, assignment) -> None:
    """Assert an integer assignment satisfies every model constraint."""
    n = model.n
    x = [assignment[a][kind] for kind in KINDS for a in range(n)]
    for j, (value, ub) in enumerate(zip(x, model.ub)):
        if not 0 <= value <= ub:
            raise AssertionError(f"{model.variables[j]} = {value} violates bounds [0, {ub}]")
        if j >= A * n and value not in (0, 1):
            raise AssertionError(f"binary {model.variables[j]} = {value}")
    for name, row, geq, rhs in zip(model.row_names, model.rows, model.geq, model.rhs):
        lhs = sum(coef * x[j] for j, coef in row)
        if lhs < rhs if geq else lhs > rhs:
            raise AssertionError(f"constraint {name} violated: "
                                 f"{lhs} {'>=' if geq else '<='} {rhs}")


# --------------------------------------------------------------------------
# Exact solver: one LP with every activation fixed

@dataclass
class SolveResult:
    objective: int
    assignment: dict
    pivots: int


def _fixed_lp(model):
    """Dense integer LP data (max form, x >= 0, b >= 0) with every A fixed.

    A zero-WCET vertex takes A = 0, which pins A, M and W at 0 (W <= M);
    every other vertex takes A = 1, which pins A and caps S at delta (M >= 0
    needs it).  The LP keeps the columns whose upper bound is positive and
    that no fixing pins.  Returns the objective, the rows and their
    right-hand sides over the kept columns, and those columns.  Every pinned
    W is 0, so the pinned columns add nothing to the objective.
    """
    n = model.n
    busy = [c > 0 for c in model.dag.wcets]
    # the LP's columns and their bounds; an idle vertex's X bound is 0
    cols = [j for j in range(A * n) if model.ub[j] and (busy[j % n] or j // n == S)]
    pos = {j: k for k, j in enumerate(cols)}
    bounds = [min(model.ub[j], model.delta_co) if j // n == S and busy[j % n]
              else model.ub[j] for j in cols]
    rows, rhs = [], []
    for row, geq, b in zip(model.rows, model.geq, model.rhs):
        sign = -1 if geq else 1
        b -= sum(coef for j, coef in row if j >= A * n and busy[j - A * n])  # A = 1
        kept = [(pos[j], coef) for j, coef in row if j in pos]
        if not kept:
            if sign * b < 0:
                raise SolverLimitError("LP infeasible after substitution")
            continue
        dense = [0] * len(cols)
        for k, coef in kept:
            dense[k] = sign * coef
        rows.append(dense)
        rhs.append(sign * b)
    rows += [[int(k == i) for k in range(len(cols))] for i in range(len(cols))]
    return [model.objective[j] for j in cols], rows, rhs + bounds, cols


def _assignment_from_exec(model, exec_times) -> dict:
    delta = model.delta_co
    asg = {}
    for a, (x, s) in enumerate(zip(exec_times, asap_start_times(model.dag, exec_times))):
        m_a = max(delta - s, 0)
        asg[a] = {"X": x, "S": s, "A": int(s < delta), "M": m_a, "W": min(x, m_a)}
    return asg


def solve_exact(model) -> SolveResult:
    """Provably optimal integer solution from one exact LP.

    `_fixed_lp` fixes A = 0 at each zero-WCET vertex and A = 1 at every
    other one, and the exact rational simplex solves what remains:

    - The fixings are safe.  Trimming an optimal execution vector to the
      window (`trim_to_window`) keeps its window workload and ends its
      schedule by delta, so each positive-WCET vertex can take A = 1 with S
      its trimmed ASAP start (at most delta) and M = delta - S; a zero-WCET
      vertex contributes nothing with A = 0.
    - With every A fixed, the LP's optimum value is the integer optimum.  In
      start/finish variables (S, F = S + X, and E = S + W, G = S + M) every
      edge-recursive row and bound is a difference of two variables or a
      bound on one, so the system is totally unimodular.  The
      path-enumerated rows bound each S below by its ASAP start, which the
      edge rows reach, and no larger S helps, so the optima agree.

    The witness is the better of the trimmed WCETs and the trimmed floored
    execution times of the LP point.  Integrality of that basic point is not
    relied on: if the floored LP value exceeds the witness, SolverLimitError.
    """
    dag = model.dag
    c, rows, rhs, cols = _fixed_lp(model)
    lp = simplex.solve_lp_max(c, rows, rhs)
    bound = floor(lp.value)
    point = dict(zip(cols, lp.x))  # column a < n is X_a
    xfloor = [floor(point.get(a, 0)) for a in range(model.n)]
    best_exec = max((trim_to_window(dag, x, model.delta_co) for x in (dag.wcets, xfloor)),
                    key=sum)
    best_val = sum(best_exec)
    if bound > best_val:
        raise SolverLimitError(
            f"optimal witness not recovered: bound {bound}, best witness {best_val}")

    assignment = _assignment_from_exec(model, best_exec)
    verify_assignment(model, assignment)
    objective = sum(assignment[a]["W"] for a in range(model.n))
    assert objective == best_val
    return SolveResult(best_val, assignment, lp.pivots)


# --------------------------------------------------------------------------
# Polynomial exact bound used by the analysis pipeline

def _ramp_sums(rows, size):
    """Row r, entry d: the sum over the ramps of rows[r] of min(end - start,
    max(0, d - start)), for d = 0..size-1, as one int64 array of shape
    (len(rows), size).  rows[r] is a (starts, ends) pair of int sequences,
    one ramp per position, with 0 <= start <= end < size.  From d-1 to d a
    row rises by the number of its ramps with start < d <= end: count those
    slopes for every row in one pass, then sum twice along the rows."""
    width = size + 1  # a ramp ending at size - 1 steps down in column size
    ups, downs = [], []
    for r, (starts, ends) in enumerate(rows):
        base = r * width + 1
        ups += [base + s for s in starts]
        downs += [base + e for e in ends]
    slopes = np.bincount(ups, minlength=len(rows) * width)
    slopes -= np.bincount(downs, minlength=len(rows) * width)
    sums = slopes.reshape(len(rows), width)[:, :size].cumsum(axis=1)
    return sums.cumsum(axis=1, out=sums)


class WorkCurve:
    """Exact carry-out workload optimum as a function of the window length.

    Equivalent reformulation: the optimum for window delta equals the
    maximum total execution time whose ASAP makespan is at most delta
    (trimming any schedule to the window never loses in-window work).  By
    LP duality that is  min over flow values phi of  phi*delta +
    penalty(phi),  where penalty(phi) is the total WCET left uncovered by
    phi source-to-sink unit flows; covering a vertex rewards its WCET.
    The penalties come from a min-cost flow on the DAG as given, by
    successive shortest paths (`_cover_penalties`), and are the only
    per-DAG array kept.  Successive shortest paths never get cheaper, so
    the drops penalty(phi-1) - penalty(phi) never increase, the first one
    being the span; every drop is at least 1 and the last penalty is 0.
    `ramps` writes the optimum as one ramp per drop, and `values`
    tabulates it on demand.
    """

    def __init__(self, dag):
        self.span = dag.span
        self.penalties = _cover_penalties(dag)

    def ramps(self):
        """The optimum as `_ramp_sums` ramps: as the drops never increase,
        the best phi at delta is the number of drops above delta, and the
        last penalty is 0, so the optimum is the sum of min(drop, delta),
        one ramp from 0 to each drop."""
        drops = [a - b for a, b in zip(self.penalties, self.penalties[1:])]
        return [0] * len(drops), drops

    def values(self):
        """The optimum for windows 0..span as one int64 array."""
        return _ramp_sums([self.ramps()], self.span + 1)[0]


def _cover_penalties(dag):
    """penalty[phi] = total WCET not covered by a cheapest phi-unit flow.

    The flow runs on the DAG itself, each vertex v split into an in-node and
    an out-node, with a virtual source feeding every source and every sink
    feeding a virtual sink.  Its state is the flow through each vertex and
    along each edge, so the residual moves are read off it: forward through
    v, costing -C_v while v is uncovered and 0 after; back through v while
    flow passes, costing 0 while two or more units pass and +C_v for the
    last one; forward along an edge at cost 0; and back along an edge, at
    cost 0, once per unit it carries.  Successive shortest paths: each
    augmentation, the first included, labels every node with its distance
    from the virtual source in four steps:

    1. One pass over `dag.order`: a vertex's in-label is 0 at a source and
       otherwise the least out-label its predecessors pushed to it, its
       out-label adds the forward cost through it, and it pushes that
       out-label along its successor list.  These labels are exact for paths
       of forward moves only.
    2. In the same pass, every backward move that lowers a label seeds a
       heap, keyed by label minus potential.  Only a move back along an
       edge can: a move back through a covered v costs C_v or 0, and the
       pass set out(v) to in(v), so it lowers in(v) only after out(v) is
       lowered, which puts out(v) in the heap.
    3. A Dijkstra from those seeds relaxes every move out of each node it
       pops, settling a node whose key equals the popped one at once, until
       the heap is empty.  A move back along an edge always keeps the key:
       both moves along an edge that carries flow cost 0 and keep
       non-negative reduced costs, so the potentials at its ends are equal.
    4. The cheapest sink's out-label is the path cost; the flow augments
       along the parent chain, and the labels become the next potentials.

    The labels end exact.  With no flow there is no backward move, so the
    first pass labels every node exactly (in(v) with -S_v and out(v) with
    -S_v - C_v, S the ASAP starts), the heap stays empty and no potential
    is read; the first path is a critical path, at cost -span.  Later, the
    potentials are exact distances of the previous residual network, and
    augmenting along a shortest path leaves every residual move with a
    non-negative reduced cost, the invariant of successive shortest paths.
    After steps 1 and 2 every move that breaks its triangle inequality
    starts from a node in the heap: a forward move met it when its node
    pushed, unless step 2 lowered that out-label later, which put it in the
    heap.  A Dijkstra on non-negative reduced costs from those seeds then
    leaves every move's inequality met, so every label is its node's
    distance.  The flow stops only where the penalty reaches 0: while it is
    positive, some uncovered v has C_v > 0, and forward moves alone make a
    path through v that costs at most -C_v, so the cheapest path costs -1 or
    less and the penalty drops by at least 1.

    The flow walks whichever successor lists the DAG holds: the
    constructor's, in edge order with a repeated edge listed twice, or
    `succs` once something has read it.  It finds the sources (vertices no
    list names) and the sinks (empty lists) itself, so a curve build reads
    none of the `succs`, `preds` and `sinks` facts.  Neither order nor
    repeats can change the penalties: a repeated edge relaxes the same move
    twice, the order only decides between equally cheap labels, and
    penalty(phi) is the optimum of a min-cost flow of phi units, whichever
    shortest path each augmentation takes.
    """
    n, wcets, order = dag.n, dag.wcets, dag.order
    succs = dag._succ  # the constructor's lists, or `succs` once something read it
    # step 1's in-labels before the pushes: 0 at a source, where the virtual
    # source enters, and elsewhere 1, above every label (step 1 starts at 0
    # and adds costs of -C_v or 0, and the repair only lowers labels)
    entry = [0] * n
    for s in succs:
        for b in s:
            entry[b] = 1
    sinks = [v for v in range(n) if not succs[v]]
    through = [0] * n  # flow units through each vertex
    back = [[] for _ in range(n)]  # per vertex b, each a once per unit on edge (a, b)
    pin, pout = [0] * n, [0] * n  # the potentials, read only once a flow exists
    dout = [0] * n  # the labels of the out-nodes; `din` holds those of the in-nodes
    # the move that set each label: par_in[v] = u for out(u) (-1 for the
    # virtual source), par_out[v] = u for in(u); u == v is a move through v
    par_out = [0] * n
    penalties = [dag.work]
    while penalties[-1]:  # each augmentation lowers the penalty by at least 1
        din, par_in = entry[:], [-1] * n
        heap = []  # 1 and 2; the heap holds in-node v as v, out-node v as ~v
        for v in order:  # every predecessor of v has pushed its out-label
            best = din[v]
            d = dout[v] = best if through[v] else best - wcets[v]
            par_out[v] = v
            for a in back[v]:  # back along an edge: a precedes v, so out(a) is labelled
                if best < dout[a]:
                    dout[a], par_out[a] = best, v
                    heap.append((best - pout[a], ~a))
            for b in succs[v]:
                if d < din[b]:
                    din[b], par_in[b] = d, v
        heapq.heapify(heap)
        while heap:  # 3. repair
            key, u = heapq.heappop(heap)
            if key != (din[u] - pin[u] if u >= 0 else dout[~u] - pout[~u]):
                continue  # a stale entry
            stack = [u]
            while stack:
                u = stack.pop()
                if u >= 0:  # in(u): through u, and back along its edges that carry flow
                    base = din[u]
                    d = base if through[u] else base - wcets[u]
                    if d < dout[u]:
                        dout[u], par_out[u] = d, u
                        k = d - pout[u]
                        if k == key:
                            stack.append(~u)
                        else:
                            heapq.heappush(heap, (k, ~u))
                    for a in back[u]:  # both moves along (a, u) cost 0, so pout[a] == pin[u]
                        if base < dout[a]:
                            dout[a], par_out[a] = base, u
                            stack.append(~a)  # at the popped key
                else:  # out(v): along its edges, and back through v while flow passes
                    v = ~u
                    base = dout[v]
                    for b in succs[v]:
                        if base < din[b]:
                            din[b], par_in[b] = base, v
                            k = base - pin[b]
                            if k == key:
                                stack.append(b)
                            else:
                                heapq.heappush(heap, (k, b))
                    if through[v]:
                        d = base + (wcets[v] if through[v] == 1 else 0)
                        if d < din[v]:
                            din[v], par_in[v] = d, v
                            k = d - pin[v]
                            if k == key:
                                stack.append(v)
                            else:
                                heapq.heappush(heap, (k, v))
        v = min(sinks, key=dout.__getitem__)  # 4. augment
        path_cost = dout[v]
        while v >= 0:  # at out(v)
            u = par_out[v]
            if u == v:
                through[v] += 1
            else:  # back along the edge (v, u)
                back[u].remove(v)
            v = par_in[u]
            if v == u:
                through[u] -= 1
            elif v >= 0:  # forward along the edge (v, u)
                back[u].append(v)
        pin, pout, dout = din, dout, pout
        penalties.append(penalties[-1] + path_cost)
    return penalties
