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

`build_model` holds the model as integer arrays built once: one int64
coefficient matrix over the columns kind*n + a (kinds X, W, S, M, A), a
per-row `>=` flag and right-hand side, and per-column upper bounds (every
lower bound is 0).  Variable and row names are built only for LP and MPS
export.  `solve_exact` solves the model by branch-and-bound on the binaries with an
exact rational simplex per node.  `brute_force_oracle` enumerates execution
vectors directly.  `WorkCurve` computes the same optimum for every window
length through an equivalent reformulation (maximum total work whose
makespan fits the window), solved in polynomial time by a small min-cost
flow on the DAG itself, with a virtual source and sink instead of a
normalized copy; the analysis reads it through `workload.DagProfile`.  All
three routes are cross-checked exactly in the test suite.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from math import floor, inf, prod

import numpy as np

from . import simplex
from .dag import Dag, asap_start_times, enumerate_paths
from .errors import OracleLimitError, SolverLimitError, ValidationError, is_integer

ORACLE_GUARD = 10**6
NODE_LIMIT = 100_000


# --------------------------------------------------------------------------
# ASAP window evaluation (shared by the oracle, heuristics and tests)

def asap_window_workload(dag, exec_times, delta) -> int:
    """Workload the unrestricted ASAP schedule places in [0, delta)."""
    starts = asap_start_times(dag, exec_times)
    return sum(min(x, max(delta - s, 0))
               for x, s in zip(exec_times, starts))


def trim_to_window(dag, exec_times, delta):
    """Shrink execution times so the whole schedule fits in [0, delta).

    Processing vertices in topological order and capping each execution at
    the remaining window never loses in-window workload, so the trimmed
    vector's total equals at least the original in-window workload.
    """
    trimmed = [0] * dag.n
    dist = [0] * dag.n
    for v in dag.order:
        dist[v] = max((dist[p] + trimmed[p] for p in dag.preds[v]), default=0)
        trimmed[v] = min(exec_times[v], max(delta - dist[v], 0))
    return trimmed


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
    """The carry-out model as integer arrays over the columns kind * n + a.

    Row i reads  coeffs[i] . x >= rhs[i]  where geq[i], else  <= rhs[i].
    Every column j lies in [0, ub[j]], the A columns are binary, and the
    objective is the sum of the W columns.  Names exist only for export.
    """

    dag: Dag
    delta_co: int
    formulation: str
    coeffs: np.ndarray     # (rows, 5n) int64
    geq: np.ndarray        # (rows,) bool
    rhs: np.ndarray        # (rows,) int64
    row_names: list
    ub: np.ndarray         # (5n,) int64

    @property
    def n(self):
        return self.dag.n

    @property
    def variables(self):
        return [f"{kind}{a}" for kind in KINDS for a in range(self.n)]

    @property
    def objective(self):
        """Objective coefficient per column: 1 on every W, 0 elsewhere."""
        return np.repeat(np.array([kind == "W" for kind in KINDS], dtype=np.int64), self.n)


def build_model(dag, delta_co, formulation="edge-recursive") -> CarryOutModel:
    """Linear model whose optimum bounds the carry-out workload.

    Requires a normalized (single-source, single-sink) DAG.  The
    edge-recursive form encodes start times with one constraint per edge;
    the path-enumerated form writes one distance constraint per source
    path and may refuse with a path-explosion error.
    """
    if not is_integer(delta_co):
        raise ValidationError("delta", f"the carry-out window must be an integer, got {delta_co!r}")
    if delta_co < 0:
        raise ValueError("delta_co must be non-negative")
    sources, sinks = dag.sources, dag.sinks
    if len(sources) != 1 or len(sinks) != 1:
        raise ValidationError("normalize", "build_model requires a normalized DAG")
    if formulation not in ("edge-recursive", "path-enumerated"):
        raise ValueError(f"unknown formulation {formulation!r}")

    n, length, delta = dag.n, dag.span, int(delta_co)
    # every row's left-hand side stays within delta + 2 * work at any point in bounds
    if delta + 2 * dag.work >= 2**63:
        raise ValidationError("wcet", "carry-out model values must fit in 64-bit integers")
    names, geq, rhs, entries = [], [], [], []  # entries: (row, column, coefficient)

    def add(name, terms, b=0, at_least=False):
        entries.extend((len(names), kind * n + a, coef) for kind, a, coef in terms)
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
        # the sink has the most source paths, so enumerating it first
        # refuses an explosion before any other vertex is enumerated
        sink_paths = enumerate_paths(dag, sinks[0])
        for a in range(n):
            if a == sources[0]:
                continue
            paths = sink_paths if a == sinks[0] else enumerate_paths(dag, a)
            for idx, path in enumerate(paths):
                add(f"dist_{a}_{idx}", [(S, a, 1)] + [(X, b, -1) for b in path[:-1]],
                    at_least=True)

    coeffs = np.zeros((len(names), 5 * n), dtype=np.int64)
    rows, cols, vals = zip(*entries)  # no row names a column twice
    coeffs[rows, cols] = vals
    s_ub = [0 if a == sources[0] else length for a in range(n)]
    # W <= C and M <= delta are implied by W <= X and M <= A*delta
    ub = np.array([*dag.wcets, *dag.wcets, *s_ub, *[delta] * n, *[1] * n], dtype=np.int64)
    return CarryOutModel(dag, delta, formulation, coeffs, np.array(geq, dtype=bool),
                         np.array(rhs, dtype=np.int64), names, ub)


def export_model(model, fmt="lp") -> str:
    if fmt == "lp":
        return _export_lp(model)
    if fmt == "mps":
        return _export_mps(model)
    raise ValueError(f"unknown export format {fmt!r}")


def _export_lp(model) -> str:
    names = model.variables
    binaries = A * model.n  # the A columns come last
    out = [f"\\ carry-out workload model: delta_co={model.delta_co}, "
           f"span={model.dag.span}, formulation={model.formulation}",
           "Maximize",
           " obj: " + " + ".join(sorted(names[j] for j in np.flatnonzero(model.objective))),
           "Subject To"]
    for name, row, geq, rhs in zip(model.row_names, model.coeffs, model.geq, model.rhs):
        terms = []
        for var, coef in sorted((names[j], int(row[j])) for j in np.flatnonzero(row)):
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
    lines = ["NAME          CARRYOUT", "OBJSENSE", "    MAX", "ROWS", " N  OBJ"]
    lines += [f" {'G' if geq else 'L'}  {name}" for name, geq in zip(rows, model.geq)]
    lines += ["COLUMNS", "    MARKER                 'MARKER'                 'INTORG'"]
    for var, obj, column in zip(names, model.objective, model.coeffs.T):
        entries = [("OBJ", obj)] if obj else []
        entries += [(rows[i], column[i]) for i in np.flatnonzero(column)]
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
    x = np.array([assignment[a][kind] for kind in KINDS for a in range(n)])
    out_of_bounds = (x < 0) | (x > model.ub)
    not_binary = np.zeros_like(out_of_bounds)
    not_binary[A * n:] = (x[A * n:] != 0) & (x[A * n:] != 1)
    if (out_of_bounds | not_binary).any():
        j = int(np.argmax(out_of_bounds | not_binary))
        var = model.variables[j]
        if out_of_bounds[j]:
            raise AssertionError(f"{var} = {x[j]} violates bounds [0, {model.ub[j]}]")
        raise AssertionError(f"binary {var} = {x[j]}")
    lhs = model.coeffs @ x
    violated = np.where(model.geq, lhs < model.rhs, lhs > model.rhs)
    if violated.any():
        i = int(np.argmax(violated))
        sense = ">=" if model.geq[i] else "<="
        raise AssertionError(f"constraint {model.row_names[i]} violated: "
                             f"{lhs[i]} {sense} {model.rhs[i]}")


# --------------------------------------------------------------------------
# Exact branch-and-bound solver

@dataclass
class SolveResult:
    objective: int
    assignment: dict
    nodes: int
    pivots: int


def _node_lp(model, afix):
    """Dense LP data (max form, x >= 0, b >= 0) for a node's A fixings.

    `afix` maps a vertex to its fixed A.  The LP keeps the columns whose
    upper bound is positive and that no fixing pins: A = 0 pins A, M and W
    at 0 (W <= M), and A = 1 pins A and caps S at delta (M >= 0 needs it).
    Returns the objective, the rows and their right-hand sides over the
    kept columns, and those columns.  Every pinned W is 0, so the pinned
    columns add nothing to the objective.
    """
    n = model.n
    keep = model.ub > 0
    ub = model.ub.copy()
    value = np.zeros_like(ub)
    for a, fixed in afix.items():
        keep[A * n + a] = False
        if fixed:
            value[A * n + a] = 1
            ub[S * n + a] = min(ub[S * n + a], model.delta_co)
        else:
            keep[[M * n + a, W * n + a]] = False
    cols = np.flatnonzero(keep)
    sign = np.where(model.geq, -1, 1)
    rows = model.coeffs[:, cols] * sign[:, None]
    rhs = (model.rhs - model.coeffs @ value) * sign
    live = rows.any(axis=1)
    if (rhs[~live] < 0).any():
        raise SolverLimitError("node LP infeasible after substitution")
    rows = np.vstack([rows[live], np.eye(len(cols), dtype=np.int64)])
    return model.objective[cols], rows, np.concatenate([rhs[live], ub[cols]]), cols


def _assignment_from_exec(model, exec_times) -> dict:
    starts = asap_start_times(model.dag, exec_times)
    delta = model.delta_co
    asg = {}
    for a in range(model.n):
        active = 1 if starts[a] < delta else 0
        m_a = delta - starts[a] if active else 0
        asg[a] = {
            "X": exec_times[a],
            "S": starts[a],
            "A": active,
            "M": m_a,
            "W": min(exec_times[a], m_a),
        }
    return asg


def solve_exact(model) -> SolveResult:
    """Provably optimal integer solution by branch-and-bound on the binaries.

    Branches on A variables in topological order (A=1 explored first), solves
    the exact-rational LP relaxation at every node, and prunes on the floored
    relaxation bound.  At A-complete nodes the relaxation optimum equals the
    node's integer optimum, so no branching on the remaining variables is
    needed; integer witnesses are recovered from the basic solution (with a
    window-trimming repair).  If an A-complete bound still exceeds the best
    witness after the search, the witness was missed: SolverLimitError.
    """
    dag = model.dag
    wcets = dag.wcets
    delta = model.delta_co
    order = [v for v in dag.order if wcets[v] > 0]
    base_fix = {a: 0 for a in range(model.n) if wcets[a] == 0}

    best_val = -1
    best_exec = None

    def consider(exec_times):
        nonlocal best_val, best_exec
        v = asap_window_workload(dag, exec_times, delta)
        if v > best_val:
            best_val, best_exec = v, list(exec_times)

    consider(trim_to_window(dag, list(wcets), delta))
    consider(list(wcets))
    for v in order:
        # zeroing one early vertex often unlocks more parallel work
        probe = list(wcets)
        probe[v] = 0
        consider(trim_to_window(dag, probe, delta))

    nodes = 0
    pivots = 0
    top_complete = -1  # the largest bound of an A-complete node
    stack = [base_fix]
    while stack:
        afix = stack.pop()
        nodes += 1
        if nodes > NODE_LIMIT:
            raise SolverLimitError(f"branch-and-bound exceeded {NODE_LIMIT} nodes")
        c, rows, rhs, cols = _node_lp(model, afix)
        lp = simplex.solve_lp_max(c, rows, rhs)
        pivots += lp.pivots
        bound = floor(lp.value)
        if bound <= best_val:
            continue
        # integer candidates from the LP point: its floored execution times
        # (the X columns come first), trimmed to the window and as they are
        xfloor = [0] * model.n
        for j, x in zip(cols.tolist(), lp.x):
            if j < model.n:
                xfloor[j] = floor(x)
        consider(trim_to_window(dag, xfloor, delta))
        consider(xfloor)
        branch = next((a for a in order if a not in afix), None)
        if branch is None:
            # A-complete: the relaxation optimum is the node optimum, which
            # the best witness must reach by the end of the search
            top_complete = max(top_complete, bound)
            continue
        stack.append({**afix, branch: 0})
        stack.append({**afix, branch: 1})  # popped first: optimistic A=1 branch

    if top_complete > best_val:
        raise SolverLimitError(
            f"optimal witness not recovered: bound {top_complete}, best witness {best_val}")

    assignment = _assignment_from_exec(model, best_exec)
    verify_assignment(model, assignment)
    objective = sum(assignment[a]["W"] for a in range(model.n))
    assert objective == best_val
    return SolveResult(best_val, assignment, nodes, pivots)


# --------------------------------------------------------------------------
# Polynomial exact bound used by the analysis pipeline

class WorkCurve:
    """Exact carry-out workload optimum as a function of the window length.

    Equivalent reformulation: the optimum for window delta equals the
    maximum total execution time whose ASAP makespan is at most delta
    (trimming any schedule to the window never loses in-window work).  By
    LP duality that is  min over flow values phi of  phi*delta +
    penalty(phi),  where penalty(phi) is the total WCET left uncovered by
    phi source-to-sink unit flows; covering a vertex rewards its WCET.
    The penalties come from a small min-cost flow on the DAG as given
    (`_cover_penalties`, which keeps the flow per vertex and per edge) and
    are the only per-DAG array kept; the envelope is concave and piecewise
    linear with integer slopes, and `values` tabulates it on demand.
    """

    def __init__(self, dag):
        self.span = dag.span
        self.penalties = _cover_penalties(dag)

    def values(self):
        """The optimum for windows 0..span as one int64 array: the lower
        envelope of the lines phi*delta + penalty(phi)."""
        phis = np.arange(len(self.penalties), dtype=np.int64)[:, None]
        deltas = np.arange(self.span + 1, dtype=np.int64)[None, :]
        return (phis * deltas + np.array(self.penalties, dtype=np.int64)[:, None]).min(axis=0)


def _cover_penalties(dag):
    """penalty[phi] = total WCET not covered by a cheapest phi-unit flow.

    The flow runs on the DAG itself, each vertex v split into an in-node 2v
    and an out-node 2v+1, with a virtual source feeding every source and
    every sink feeding a virtual sink.  Its state is the flow through each
    vertex and along each edge (as repeats in the move lists), so the
    residual moves are read off it: one forward move per vertex, costing
    -WCET while the vertex is uncovered and 0 after, and one backward move,
    costing 0 while two or more units pass and +WCET for the last one;
    edges and the virtual ends cost 0, and an edge can be walked back once
    per unit it carries.  Successive shortest paths with Johnson potentials,
    first the shortest distances from the virtual source on the acyclic
    split graph: minus the ASAP start (in-node) and finish (out-node) of
    each vertex, 0 and minus the span at the virtual ends.  A critical path
    has reduced cost 0, so the first augmentation reads one off
    `dag.starts`.  Each later one runs a Dijkstra on the reduced costs that
    stops at the virtual sink; each potential adds the smaller of its
    node's distance and the sink's, which keeps them non-negative.  The flow
    stops once the penalty reaches 0, its least value.
    """
    if dag.span == 0:  # nothing to cover (an empty DAG has no path at all)
        return [dag.work]
    n, wcets = dag.n, dag.wcets
    s, t = 2 * n, 2 * n + 1
    # per node, the nodes its open zero-cost moves reach: the sources' in-nodes
    # from s, each successor's in-node (and t from a sink) from an out-node,
    # and from an in-node each predecessor's out-node once per unit of flow
    # on their edge
    opened = [[] for _ in range(2 * n + 2)]
    opened[s] = [2 * v for v in dag.sources]
    for a, b in dag.edges:
        opened[2 * a + 1].append(2 * b)
    for v in dag.sinks:
        opened[2 * v + 1].append(t)
    through = [0] * n  # flow units through each vertex
    # the first augmentation: a critical path traced back from a sink that
    # finishes at the span; it costs -span and keeps the potentials exact
    finish = [start + c for start, c in zip(dag.starts, wcets)]
    v = next(v for v in range(n) if not dag.succs[v] and finish[v] == dag.span)
    while v is not None:
        through[v] = 1
        u = next((u for u in dag.preds[v] if finish[u] == dag.starts[v]), None)
        if u is not None:
            opened[2 * v].append(2 * u + 1)
        v = u
    pot = [-x for start, f in zip(dag.starts, finish) for x in (start, f)] + [0, -dag.span]
    penalties = [dag.work, dag.work - dag.span]
    while penalties[-1]:  # each augmentation lowers the penalty by at least 1
        dist = [inf] * (2 * n + 2)  # every node stays reachable by open moves
        parent = [-1] * (2 * n + 2)
        dist[s] = 0
        heap = [(0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if u == t:
                break
            if d > dist[u]:
                continue
            base = d + pot[u]
            v = u >> 1
            if u & 1:  # back through v while flow passes, +WCET for the last unit
                cost = None if not through[v] else wcets[v] if through[v] == 1 else 0
            else:  # forward through v, -WCET while it is uncovered (s has no v)
                cost = None if u == s else 0 if through[v] else -wcets[v]
            if cost is not None:
                to = u ^ 1
                nd = base + cost - pot[to]
                if nd < dist[to]:
                    dist[to] = nd
                    parent[to] = u
                    heapq.heappush(heap, (nd, to))
            for to in opened[u]:
                nd = base - pot[to]
                if nd < dist[to]:
                    dist[to] = nd
                    parent[to] = u
                    heapq.heappush(heap, (nd, to))
        path_cost = dist[t] + pot[t]  # reduced back to true cost; pot[s] stays 0
        if path_cost >= 0:
            break
        reach = dist[t]  # no settled node lies farther
        pot = [p + (d if d < reach else reach) for p, d in zip(pot, dist)]
        node = parent[t]  # the move into t changes no flow
        while node != s:
            u = parent[node]
            if u >> 1 == node >> 1:  # through a vertex: forward into an out-node
                through[node >> 1] += 1 if node & 1 else -1
            elif node & 1:  # back along an edge, from its in-node u
                opened[u].remove(node)
            elif u != s:  # forward along an edge, from its out-node u
                opened[node].append(u)
            node = u
        penalties.append(penalties[-1] + path_cost)
    return penalties
