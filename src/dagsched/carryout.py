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

`solve_exact` solves the model by branch-and-bound on the binaries with an
exact rational simplex per node.  `brute_force_oracle` enumerates execution
vectors directly.  `WorkCurve` computes the same optimum for every window
length through an equivalent reformulation (maximum total work whose
makespan fits the window), solved in polynomial time by a small min-cost
flow; the analysis reads it through `workload.DagProfile`.  All three
routes are cross-checked exactly in the test suite.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import floor, prod

import numpy as np

from . import simplex
from .dag import Dag, asap_start_times, enumerate_paths, normalize_source_sink
from .errors import OracleLimitError, SolverLimitError, ValidationError

ORACLE_GUARD = 10**6
DEFAULT_NODE_LIMIT = 100_000


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


def brute_force_oracle(dag, delta_co, guard=ORACLE_GUARD) -> int:
    """Maximum window workload by exhaustive execution-vector enumeration."""
    if delta_co <= 0:
        return 0
    space = prod(c + 1 for c in dag.wcets)
    if space > guard:
        raise OracleLimitError(
            f"{space} execution vectors exceed the enumeration guard {guard}")
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

@dataclass
class Row:
    name: str
    coeffs: dict
    sense: str  # "<=" or ">="
    rhs: int


@dataclass
class CarryOutModel:
    wcets: tuple
    edges: tuple
    delta_co: int
    span: int
    source: int
    sink: int
    formulation: str
    variables: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    bounds: dict = field(default_factory=dict)      # var -> (lb, ub or None)
    binaries: list = field(default_factory=list)
    objective: dict = field(default_factory=dict)   # var -> coefficient

    @property
    def n(self):
        return len(self.wcets)


def build_model(dag, delta_co, formulation="edge-recursive", path_cap=None) -> CarryOutModel:
    """Linear model whose optimum bounds the carry-out workload.

    Requires a normalized (single-source, single-sink) DAG.  The
    edge-recursive form encodes start times with one constraint per edge;
    the path-enumerated form writes one distance constraint per source
    path and may refuse with a path-explosion error.
    """
    if delta_co < 0:
        raise ValueError("delta_co must be non-negative")
    sources, sinks = dag.sources(), dag.sinks()
    if len(sources) != 1 or len(sinks) != 1:
        raise ValidationError("normalize", "build_model requires a normalized DAG")
    if formulation not in ("edge-recursive", "path-enumerated"):
        raise ValueError(f"unknown formulation {formulation!r}")

    length = dag.span
    model = CarryOutModel(
        wcets=dag.wcets, edges=dag.edges, delta_co=int(delta_co), span=length,
        source=sources[0], sink=sinks[0], formulation=formulation)

    n = dag.n
    for kind in "XWSMA":
        model.variables.extend(f"{kind}{a}" for a in range(n))
    model.binaries = [f"A{a}" for a in range(n)]
    model.objective = {f"W{a}": 1 for a in range(n)}

    for a in range(n):
        model.bounds[f"X{a}"] = (0, dag.wcets[a])
        model.bounds[f"W{a}"] = (0, dag.wcets[a])          # implied by W <= X
        model.bounds[f"S{a}"] = (0, 0) if a == sources[0] else (0, length)
        model.bounds[f"M{a}"] = (0, max(delta_co, 0))      # implied by M <= A*delta
        model.bounds[f"A{a}"] = (0, 1)

    for a in range(n):
        model.rows.append(Row(f"c2_{a}", {f"W{a}": 1, f"X{a}": -1}, "<=", 0))
        model.rows.append(Row(f"c6_{a}", {f"W{a}": 1, f"M{a}": -1}, "<=", 0))
        # M <= delta - S + (1 - A)*span, linearized big-M form
        model.rows.append(Row(
            f"c8a_{a}", {f"M{a}": 1, f"S{a}": 1, f"A{a}": length}, "<=", delta_co + length))
        model.rows.append(Row(f"c8b_{a}", {f"M{a}": 1, f"A{a}": -delta_co}, "<=", 0))

    if formulation == "edge-recursive":
        for b, a in dag.edges:
            model.rows.append(Row(
                f"prec_{b}_{a}", {f"S{a}": 1, f"S{b}": -1, f"X{b}": -1}, ">=", 0))
    else:
        kwargs = {} if path_cap is None else {"cap": path_cap}
        for a in range(n):
            if a == sources[0]:
                continue
            for idx, path in enumerate(enumerate_paths(dag, a, **kwargs)):
                coeffs = {f"S{a}": 1}
                for b in path[:-1]:
                    coeffs[f"X{b}"] = coeffs.get(f"X{b}", 0) - 1
                model.rows.append(Row(f"dist_{a}_{idx}", coeffs, ">=", 0))
    return model


def export_model(model, fmt="lp") -> str:
    if fmt == "lp":
        return _export_lp(model)
    if fmt == "mps":
        return _export_mps(model)
    raise ValueError(f"unknown export format {fmt!r}")


def _export_lp(model) -> str:
    out = [f"\\ carry-out workload model: delta_co={model.delta_co}, "
           f"span={model.span}, formulation={model.formulation}",
           "Maximize",
           " obj: " + " + ".join(sorted(model.objective))]
    out.append("Subject To")
    for row in model.rows:
        terms = []
        for var, coef in sorted(row.coeffs.items()):
            if coef >= 0:
                terms.append(f"+ {coef} {var}" if terms else f"{coef} {var}")
            else:
                terms.append(f"- {-coef} {var}")
        out.append(f" {row.name}: {' '.join(terms)} {row.sense} {row.rhs}")
    out.append("Bounds")
    for var in model.variables:
        lb, ub = model.bounds[var]
        if var in model.binaries:
            continue
        if ub is not None and lb == ub:
            out.append(f" {var} = {lb}")
        elif ub is not None:
            out.append(f" {var} <= {ub}")
    out.append("Binaries")
    out.append(" " + " ".join(model.binaries))
    out.append("Generals")
    out.append(" " + " ".join(v for v in model.variables if v not in model.binaries))
    out.append("End")
    return "\n".join(out) + "\n"


def _export_mps(model) -> str:
    lines = ["NAME          CARRYOUT", "OBJSENSE", "    MAX", "ROWS", " N  OBJ"]
    for row in model.rows:
        tag = "L" if row.sense == "<=" else "G"
        lines.append(f" {tag}  {row.name}")
    lines.append("COLUMNS")
    lines.append("    MARKER                 'MARKER'                 'INTORG'")
    for var in model.variables:
        entries = []
        if var in model.objective:
            entries.append(("OBJ", model.objective[var]))
        for row in model.rows:
            if var in row.coeffs:
                entries.append((row.name, row.coeffs[var]))
        for rname, coef in entries:
            lines.append(f"    {var:<9} {rname:<9} {coef}")
    lines.append("    MARKER                 'MARKER'                 'INTEND'")
    lines.append("RHS")
    for row in model.rows:
        if row.rhs != 0:
            lines.append(f"    RHS       {row.name:<9} {row.rhs}")
    lines.append("BOUNDS")
    for var in model.variables:
        lb, ub = model.bounds[var]
        if var in model.binaries:
            lines.append(f" BV BND       {var}")
        elif ub is not None and lb == ub:
            lines.append(f" FX BND       {var:<9} {lb}")
        else:
            if lb != 0:
                lines.append(f" LO BND       {var:<9} {lb}")
            if ub is not None:
                lines.append(f" UP BND       {var:<9} {ub}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def verify_assignment(model, assignment) -> None:
    """Assert an integer assignment satisfies every model constraint."""
    val = {}
    for a in range(model.n):
        entry = assignment[a]
        for kind in "XWSMA":
            val[f"{kind}{a}"] = entry[kind]
    for var in model.variables:
        lb, ub = model.bounds[var]
        v = val[var]
        if v < lb or (ub is not None and v > ub):
            raise AssertionError(f"{var} = {v} violates bounds [{lb}, {ub}]")
        if var in model.binaries and v not in (0, 1):
            raise AssertionError(f"binary {var} = {v}")
    for row in model.rows:
        lhs = sum(coef * val[var] for var, coef in row.coeffs.items())
        ok = lhs <= row.rhs if row.sense == "<=" else lhs >= row.rhs
        if not ok:
            raise AssertionError(f"constraint {row.name} violated: {lhs} {row.sense} {row.rhs}")


# --------------------------------------------------------------------------
# Exact branch-and-bound solver

@dataclass
class SolveResult:
    objective: int
    assignment: dict
    nodes: int
    pivots: int
    solve_time: float


def _node_lp(model, afix):
    """Dense LP data (max form, x >= 0, b >= 0) for a node's A fixings."""
    cols = []
    fixed = {}
    ub_override = {}
    for a in range(model.n):
        if afix.get(f"A{a}") == 0:
            # A=0 forces M=0 (and thus W=0 through W <= M)
            fixed[f"M{a}"] = 0
            fixed[f"W{a}"] = 0
        elif afix.get(f"A{a}") == 1:
            # A=1 requires S <= delta for M >= 0 to be satisfiable
            lb, ub = model.bounds[f"S{a}"]
            if ub is not None and ub > model.delta_co >= lb:
                ub_override[f"S{a}"] = model.delta_co
    for var in model.variables:
        lb, ub = model.bounds[var]
        if var in fixed:
            continue
        if var in afix:
            fixed[var] = afix[var]
        elif ub is not None and lb == ub:
            fixed[var] = lb
        else:
            cols.append(var)
    index = {v: j for j, v in enumerate(cols)}

    rows, rhs = [], []

    def add(coeffs, sense, b):
        const = sum(coef * fixed[v] for v, coef in coeffs.items() if v in fixed)
        dense = [0] * len(cols)
        live = False
        for v, coef in coeffs.items():
            if v in index:
                dense[index[v]] = coef
                live = True
        b = b - const
        if sense == ">=":
            dense = [-c for c in dense]
            b = -b
        if not live:
            if b < 0:
                raise SolverLimitError("node LP infeasible after substitution")
            return
        rows.append(dense)
        rhs.append(b)

    for row in model.rows:
        add(row.coeffs, row.sense, row.rhs)
    for var in cols:
        lb, ub = model.bounds[var]
        ub = ub_override.get(var, ub)
        if ub is not None:
            add({var: 1}, "<=", ub)

    c = [model.objective.get(v, 0) for v in cols]
    const = sum(model.objective.get(v, 0) * fixed[v] for v in fixed)
    return c, rows, rhs, index, const


def _assignment_from_exec(model, exec_times) -> dict:
    dag = Dag(model.wcets, model.edges)
    starts = asap_start_times(dag, exec_times)
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


def _harvest(model, dag, xfrac, delta):
    """Integer candidate vectors from a (possibly fractional) LP point."""
    base = [int(floor(x)) for x in xfrac]
    yield trim_to_window(dag, base, delta)
    yield base


def solve_exact(model, node_limit=DEFAULT_NODE_LIMIT) -> SolveResult:
    """Provably optimal integer solution by branch-and-bound on the binaries.

    Branches on A variables in topological order (A=1 explored first), solves
    the exact-rational LP relaxation at every node, and prunes on the floored
    relaxation bound.  At A-complete nodes the relaxation optimum equals the
    node's integer optimum, so no branching on the remaining variables is
    needed; integer witnesses are recovered from the basic solution (with a
    window-trimming repair, and exhaustive search as a last resort).
    """
    t0 = time.perf_counter()
    dag = Dag(model.wcets, model.edges)
    delta = model.delta_co
    order = [v for v in dag.order if model.wcets[v] > 0]
    base_fix = {f"A{a}": 0 for a in range(model.n) if model.wcets[a] == 0}

    best_val = -1
    best_exec = None

    def consider(exec_times):
        nonlocal best_val, best_exec
        v = asap_window_workload(dag, exec_times, delta)
        if v > best_val:
            best_val, best_exec = v, list(exec_times)

    consider(trim_to_window(dag, list(model.wcets), delta))
    consider(list(model.wcets))
    for v in order:
        # zeroing one early vertex often unlocks more parallel work
        probe = list(model.wcets)
        probe[v] = 0
        consider(trim_to_window(dag, probe, delta))

    nodes = 0
    pivots = 0
    gap_nodes = 0
    stack = [dict(base_fix)]
    while stack:
        afix = stack.pop()
        nodes += 1
        if nodes > node_limit:
            raise SolverLimitError(f"branch-and-bound exceeded {node_limit} nodes")
        c, rows, rhs, index, const = _node_lp(model, afix)
        lp = simplex.solve_lp_max(c, rows, rhs)
        pivots += lp.pivots
        bound = lp.value + const
        if floor(bound) <= best_val:
            continue
        xvec = [0] * model.n
        for a in range(model.n):
            name = f"X{a}"
            xvec[a] = lp.x[index[name]] if name in index else Fraction(0)
        for cand in _harvest(model, dag, xvec, delta):
            consider(cand)
        branch_var = next((f"A{a}" for a in order if f"A{a}" not in afix), None)
        if branch_var is None:
            # A-complete: the relaxation optimum is the node optimum, so a
            # leftover gap means the heuristics missed the optimal witness
            if floor(bound) > best_val:
                gap_nodes += 1
            continue
        child0 = dict(afix)
        child0[branch_var] = 0
        child1 = dict(afix)
        child1[branch_var] = 1
        stack.append(child0)
        stack.append(child1)  # popped first: optimistic A=1 branch

    if gap_nodes:
        # A witness for the optimum escaped the heuristics; recover it
        # exhaustively when the instance is small enough.
        space = prod(c + 1 for c in model.wcets)
        if space <= ORACLE_GUARD:
            for combo in itertools.product(*[range(c + 1) for c in model.wcets]):
                v = asap_window_workload(dag, list(combo), delta)
                if v > best_val:
                    best_val, best_exec = v, list(combo)
        else:
            raise SolverLimitError(
                "optimal witness not recovered (degenerate fractional optimum)")

    assignment = _assignment_from_exec(model, best_exec)
    verify_assignment(model, assignment)
    objective = sum(assignment[a]["W"] for a in range(model.n))
    assert objective == best_val
    return SolveResult(best_val, assignment, nodes, pivots, time.perf_counter() - t0)


# --------------------------------------------------------------------------
# Polynomial exact bound used by the analysis pipeline

INF_CAP = 10**9


class WorkCurve:
    """Exact carry-out workload optimum as a function of the window length.

    Equivalent reformulation: the optimum for window delta equals the
    maximum total execution time whose ASAP makespan is at most delta
    (trimming any schedule to the window never loses in-window work).  By
    LP duality that is  min over flow values phi of  phi*delta +
    penalty(phi),  where penalty(phi) is the total WCET left uncovered by
    phi source-to-sink unit flows; covering a vertex rewards its WCET.
    The penalties come from a small min-cost flow (`_cover_penalties`) and
    are the only per-DAG array kept; the envelope is concave and piecewise
    linear with integer slopes, and `values` tabulates it on demand.
    """

    def __init__(self, dag):
        ndag = normalize_source_sink(dag)
        self.total = ndag.work
        self.span = ndag.span
        self.penalties = _cover_penalties(ndag)

    def values(self):
        """obj(0..span) as one int64 array: the lower envelope of the lines
        phi*delta + penalty(phi)."""
        phis = np.arange(len(self.penalties), dtype=np.int64)[:, None]
        deltas = np.arange(self.span + 1, dtype=np.int64)[None, :]
        return (phis * deltas + np.array(self.penalties, dtype=np.int64)[:, None]).min(axis=0)

    def obj(self, delta) -> int:
        if delta <= 0:
            return 0
        if delta >= self.span:
            return self.total
        return int(self.values()[delta])


def _cover_penalties(dag):
    """penalty[phi] = total WCET not covered by a cheapest phi-unit flow.

    Successive shortest paths with Johnson potentials: the first potentials
    are the shortest distances from the source on the split graph, which
    has no residual arcs yet and is acyclic, so they are minus the ASAP
    start (in-node) and finish (out-node) of each vertex.  Each
    augmentation runs one Dijkstra on the reduced costs, which stay
    non-negative once the potentials add the distances it found.
    """
    n = dag.n
    source, sink = dag.sources()[0], dag.sinks()[0]
    # vertex split: node 2v = in, 2v+1 = out
    graph = [[] for _ in range(2 * n)]  # node -> list of arc ids
    head, cap, cost = [], [], []

    def add_arc(u, v, capacity, c):  # and its residual twin, id ^ 1
        graph[u].append(len(head))
        graph[v].append(len(head) + 1)
        head.extend((v, u))
        cap.extend((capacity, 0))
        cost.extend((c, -c))

    for v in range(n):
        add_arc(2 * v, 2 * v + 1, 1, -dag.wcets[v])
        add_arc(2 * v, 2 * v + 1, INF_CAP, 0)
    for a, b in dag.edges:
        add_arc(2 * a + 1, 2 * b, INF_CAP, 0)

    s, t = 2 * source, 2 * sink + 1
    pot = [-x for start, c in zip(dag.starts, dag.wcets) for x in (start, start + c)]
    penalties = [dag.work]
    for _ in range(dag.work + 2):
        # every node stays reachable through the uncapped arcs
        dist = [None] * (2 * n)
        parent = [-1] * (2 * n)
        dist[s] = 0
        heap = [(0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            base = d + pot[u]
            for aid in graph[u]:
                if cap[aid] > 0:
                    to = head[aid]
                    nd = base + cost[aid] - pot[to]
                    if dist[to] is None or nd < dist[to]:
                        dist[to] = nd
                        parent[to] = aid
                        heapq.heappush(heap, (nd, to))
        path_cost = dist[t] + pot[t]  # reduced back to true cost; pot[s] stays 0
        if path_cost >= 0:
            break
        pot = [p + d for p, d in zip(pot, dist)]
        node = t
        while node != s:
            aid = parent[node]
            cap[aid] -= 1
            cap[aid ^ 1] += 1
            node = head[aid ^ 1]
        penalties.append(penalties[-1] + path_cost)
    return penalties
