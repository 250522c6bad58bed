"""Interfering-workload bounds: body, carry-in, baseline, window splits.

The body-job count and the window splits of the dense release pattern are
reference code kept here: `interfering_workload` reads only the densest
release pattern and the one below it, and the tests check it against these
and against a scalar evaluation of every release count, split by split.  So
is the split maximum over an uncapped carry-in table with one array per
split quantity, which the capped table pair of `_tables` replaced.  A test
that queries one DAG at many windows passes one table dict to every query,
as an analysis does, so that the pair is built once.
"""

import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from math import floor
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import carry_in_workload, curve_obj, random_dag
from dagsched import rta, workload
from dagsched.carryout import WorkCurve
from dagsched.dag import Dag, DagTask, asap_start_times, span
from dagsched.instances import antimonotone_task
from dagsched.taskgen import GenConfig, gen_dag, gen_task
from dagsched.workload import (
    _pair, _split_peak, _tables, interfering_workload, melani_workload,
)


@dataclass(frozen=True)
class WindowSplit:
    """Carry-in / carry-out window lengths of one problem-window alignment."""

    ci_len: int
    co_len: int


def body_workload(task, delta, r_i) -> int:
    """Workload of jobs entirely inside a window of length delta."""
    if delta < 0:
        return 0
    jobs = (delta - task.span + r_i) // task.period - 1
    return max(jobs * task.work, 0)


def _gamma(task, delta, r_i):
    """Combined carry-in + carry-out window length for the dense pattern.

    For q = floor((delta - span + r_i)/T) >= 1 this is span + residue.  At
    q = 0 the residue formula would make the carry-in and carry-out job the
    same release; the carry-out job is then the next release, giving
    delta + r_i - T.
    """
    G = delta - task.span + r_i
    if G < 0:
        return None
    if G // task.period >= 1:
        return task.span + G % task.period
    return max(delta + r_i - task.period, 0)


def _split_range(length, gamma):
    """Inclusive carry-out length range of the split sweep (gamma <= 2L)."""
    return max(gamma - length, 0), min(gamma, length)


def window_splits(task, delta, r_i):
    """Feasible (carry-in, carry-out) window-length pairs, largest carry-in
    first.  Empty when the window cannot reach a carry-in alignment; a
    single saturated split when both windows reach the span."""
    gamma = _gamma(task, delta, r_i)
    if gamma is None:
        return []
    length = task.span
    if gamma == 0:
        return [WindowSplit(0, 0)]
    if gamma >= 2 * length:
        return [WindowSplit(length, length)]
    co_lo, co_hi = _split_range(length, gamma)
    return [WindowSplit(gamma - co, co) for co in range(co_lo, co_hi + 1)]


def schedule_tail(dag, starts, ci):
    """Carry-in oracle: overlap of each [S, S+C) of the full-WCET schedule
    with starts S and its last ci time units [span-ci, span)."""
    length = max((s + c for s, c in zip(starts, dag.wcets)), default=0)
    lo = length - ci
    return sum(max(0, min(s + c, length) - max(s, lo))
               for s, c in zip(starts, dag.wcets))


def broadcast_carry_in_table(dag):
    """Uncapped carry-in workload of windows 0..span from one (span+1) x n
    broadcast: per vertex max{C_k - max(L - S_k - d, 0), 0}."""
    starts = np.array(dag.starts, dtype=np.int64)
    wcets = np.array(dag.wcets, dtype=np.int64)
    ci = np.arange(dag.span + 1, dtype=np.int64)[:, None]
    overhang = np.maximum(dag.span - starts[None, :] - ci, 0)
    return np.maximum(wcets[None, :] - overhang, 0).sum(axis=1)


def reference_split_peak(ci_raw, co_table, C, m, budget):
    """max carry-in + carry-out over window lengths summing to budget, one
    array per quantity: the carry-in from the uncapped table `ci_raw`, the
    carry-out from a table capped at min(optimum, m*len, C), both capped
    again, and min(C, m*len) past the span L."""
    L = len(ci_raw) - 1
    if budget <= 0:
        return 0
    if budget > 2 * L:
        half = budget // 2
        return min(C, m * half) + min(C, m * (budget - half))
    cis = np.arange(0, budget + 1, dtype=np.int64)
    cos = budget - cis
    ci_vals = np.where(cis <= L, ci_raw[np.minimum(cis, L)], C)
    ci_vals = np.minimum(ci_vals, m * cis)
    co_vals = np.where(cos <= L, co_table[np.minimum(cos, L)], C)
    co_vals = np.minimum(np.minimum(co_vals, C), m * cos)
    return int((ci_vals + co_vals).max())


def scalar_interfering_workload(task, delta, r_i, m):
    """`interfering_workload` evaluated one split at a time from
    `WorkCurve.obj` and `carry_in_workload`, with no tables and no shortcut
    for budgets beyond twice the span."""
    if delta <= 0:
        return 0
    C, T = task.work, task.period
    curve = WorkCurve(task.dag)

    def ci_term(ci):
        return min(carry_in_workload(task, ci), C, m * ci)

    def co_term(co):
        return min(curve_obj(curve, co), C, m * co)

    best = ci_term(delta)
    s = 1
    while True:
        head = delta - (s - 1) * T
        base = (s - 1) * C
        if head <= 0 or base >= m * delta:
            break
        cand = base + co_term(head)
        budget = delta + r_i - s * T
        if budget > 0:
            peak = max(ci_term(ci) + co_term(budget - ci) for ci in range(budget + 1))
            cand = max(cand, base + peak)
        best = max(best, cand)
        s += 1
    return min(best, m * delta)


def task_13_8(period=20, deadline=20):
    """Aggregate stand-in with work 13, span 8."""
    t = antimonotone_task(deadline=deadline, period=period)
    assert (t.work, t.span) == (13, 8)
    return t


class TestBody:
    def test_one_period_window(self):
        assert body_workload(task_13_8(), 20, 10) == 0   # floor(22/20)-1 = 0

    def test_long_window(self):
        assert body_workload(task_13_8(), 50, 10) == 13  # floor(52/20)-1 = 1

    def test_empty_window(self):
        assert body_workload(task_13_8(), 0, 10) == 0


class TestCarryIn:
    def test_zero_window(self, rng):
        for _ in range(10):
            dag = random_dag(rng, wcet_min=1)
            task = DagTask(dag, span(dag) + 3, span(dag) + 3)
            assert carry_in_workload(task, 0) == 0

    def test_whole_job_at_span(self):
        assert carry_in_workload(task_13_8(), 8) == 13

    def test_chain_tail(self):
        task = DagTask(Dag([3, 4], [(0, 1)]), 7, 7)
        assert carry_in_workload(task, 5) == 5  # 1 from the head, 4 from the tail

    def test_equals_schedule_tail(self, rng):
        for _ in range(120):
            dag = random_dag(rng, n_max=8, wcet_max=9, wcet_min=1)
            task = DagTask(dag, span(dag) + 1, span(dag) + 1)
            starts = asap_start_times(dag, list(dag.wcets))
            for ci in {0, 1, task.span // 2, task.span, task.span + 4}:
                assert carry_in_workload(task, ci) == schedule_tail(dag, starts, ci)


def reference_melani(task, delta, r_i, m) -> int:
    """The full-parallelism bound in exact rationals: jobs of a window of
    delta + r_i - C/m run perfectly parallel on all m processors."""
    if delta < 0:
        return 0
    base = Fraction(delta + r_i) - Fraction(task.work, m)
    if base < 0:
        return 0
    jobs = base // task.period
    rem = base - jobs * task.period
    return floor(jobs * task.work + min(Fraction(task.work), m * rem))


class TestMelani:
    def test_matches_rational_reference(self):
        rng = np.random.default_rng(20240811)
        seen = dict(delta_negative=0, base_negative=0, wide=0, exact_multiple=0)
        for k in range(4000):
            m = int(rng.integers(1, 33))
            period = int(rng.integers(1, 300))
            work = int(rng.integers(1, 400))
            r_i = int(rng.integers(0, 2 * period))
            delta = int(rng.integers(-50, 4 * period))
            if k % 4 == 0:
                # a window of whole periods: delta + r_i - C/m = j * T exactly
                work = m * int(rng.integers(1, 20))
                delta = int(rng.integers(0, 6)) * period + work // m - r_i
            task = SimpleNamespace(work=work, period=period)
            seen["delta_negative"] += delta < 0
            seen["base_negative"] += delta >= 0 and m * (delta + r_i) < work
            seen["wide"] += m > work
            seen["exact_multiple"] += delta >= 0 and (m * (delta + r_i) - work) % (m * period) == 0
            assert melani_workload(task, delta, r_i, m) == reference_melani(task, delta, r_i, m), \
                (work, period, delta, r_i, m)
        assert min(seen.values()) >= 50, seen

    def test_paper_style_arithmetic(self):
        # C=13, m=2, R=10, T=20, delta=20: floor(23.5/20)*13 + min(13, 2*3.5)
        assert melani_workload(task_13_8(), 20, 10, 2) == 20

    def test_degenerate_window(self):
        # delta=0, R = C/m: base 0 -> 0 + min(C, 0)
        task = DagTask(Dag([4, 4], []), 10, 10)  # C=8, m=2 -> C/m = 4
        assert melani_workload(task, 0, 4, 2) == 0

    def test_uniprocessor(self):
        task = DagTask(Dag([5, 5], [(0, 1)]), 20, 20)  # C=10, L=10
        assert melani_workload(task, 30, 10, 1) == 20  # floor(30/20)*10 + min(10,10)


class TestWindowSplits:
    def test_sweep_example(self):
        # L=8, R=10, T=20, delta=20: gamma 10, carry-in starts saturated
        splits = window_splits(task_13_8(), 20, 10)
        assert [(s.ci_len, s.co_len) for s in splits] == [
            (8, 2), (7, 3), (6, 4), (5, 5), (4, 6), (3, 7), (2, 8)]

    def test_gamma_zero_single_split(self):
        # span-0 task: gamma = 0 + G mod T with G = delta + r a multiple of T
        task = DagTask(Dag([0], []), 5, 5)
        assert window_splits(task, 5, 0) == [WindowSplit(0, 0)]

    def test_saturated_split(self):
        # L=3, gamma=10: both windows immediately at the span
        task = DagTask(Dag([1, 1, 1], [(0, 1), (1, 2)]), 20, 20)
        splits = window_splits(task, 20, 10)  # G=27, q=1, gamma=3+7=10
        assert splits == [WindowSplit(3, 3)]

    def test_all_splits_sum_to_gamma(self, rng):
        cfg = GenConfig(n_range=(2, 6), wcet_range=(1, 9), seed=0)
        for _ in range(60):
            task = gen_task(gen_dag(cfg, rng), cfg, rng)
            delta = int(rng.integers(0, 2 * task.period))
            r_i = int(rng.integers(task.span, task.deadline + 1))
            splits = window_splits(task, delta, r_i)
            if not splits:
                assert delta - task.span + r_i < 0 or delta + r_i <= task.period
                continue
            if len(splits) == 1 and splits[0] == WindowSplit(task.span, task.span):
                continue  # saturated marker split
            total = splits[0].ci_len + splits[0].co_len
            assert all(s.ci_len + s.co_len == total for s in splits)
            assert all(0 <= s.ci_len <= task.span and 0 <= s.co_len <= task.span
                       for s in splits)


def _placement_oracle_single_vertex(C, T, R, delta):
    """Max window workload of a single-vertex task over all release offsets
    and execution times (1-unit granularity); executions finish within R of
    release and gaps between releases are at least T."""
    best = 0
    for off in range(-3 * T, delta + 1):   # release of some job
        total = 0
        r = off
        while r < delta:
            # job released at r executes [e, e+x) with x <= C, e+x <= r+R, e >= r
            best_piece = 0
            for x in range(C + 1):
                for e in range(r, r + R - x + 1):
                    best_piece = max(best_piece, max(0, min(e + x, delta) - max(e, 0)))
            total += best_piece
            r += T
        best = max(best, total)
    return best


class TestSplitPeak:
    def test_matches_reference_split(self, rng):
        # every budget 1..2L+2, so both cases of the split (one slice of the
        # tables up to twice the span, the balanced split beyond) are
        # reached on every DAG, and the slice starts past 0 above the span
        wide = 0
        for k in range(240):
            n = int(rng.integers(0, 13))
            wcets = [int(w) for w in rng.integers(0, (3, 8, 20)[k % 3], n)]
            p = float(rng.uniform(0.0, 0.5))
            dag = Dag(wcets, [(a, b) for a in range(n) for b in range(a + 1, n)
                              if rng.random() < p])
            C, L = dag.work, dag.span
            ci_raw = broadcast_carry_in_table(dag)
            curve = WorkCurve(dag).values()
            lengths = np.arange(L + 1, dtype=np.int64)
            tables = {}
            for m in (1, 2, 4, 16):
                wide += C > m * (L + 1)
                ci_table, co_table, _ = _pair(tables, dag, m)
                assert ci_table.tolist() == np.minimum(ci_raw, m * lengths).tolist()
                co_ref = np.minimum(np.minimum(curve, m * lengths), C)
                assert co_table.tolist() == co_ref.tolist()
                for budget in range(1, 2 * L + 3):
                    assert (_split_peak(dag, m, budget, tables)
                            == reference_split_peak(ci_raw, co_ref, C, m, budget)), (k, m, budget)
        assert wide >= 50

    @pytest.mark.parametrize("huge", [2 ** 61, 2 ** 62, 2 ** 63, 10 ** 20])
    def test_processor_counts_past_the_work(self, rng, huge):
        # any m >= work gives the tables and split maxima of m = work, with
        # no int64 wrap in the caps or in the tail past the span
        for _ in range(40):
            dag = random_dag(rng, n_max=10, wcet_max=30)
            C, L = dag.work, dag.span
            m = max(C, 1)
            ci_table, co_table = _tables(dag, huge)
            ref_ci, ref_co = _tables(dag, m)
            assert ci_table.tolist() == ref_ci.tolist()
            assert co_table.tolist() == ref_co.tolist()
            tables = {}
            for budget in range(1, 2 * L + 3):
                assert (_split_peak(dag, huge, budget, tables)
                        == _split_peak(dag, m, budget, tables)), budget

    @staticmethod
    def _lemma_dags(rng):
        """Generated desk- and paper-scale DAGs, fork-joins (most with work
        above 2 * span), and small random DAGs with zero WCETs."""
        for k in range(120):
            if k % 4 == 0:
                yield gen_dag(GenConfig(n_range=((5, 10), (10, 20))[k % 8 // 4]), rng)
            elif k % 4 == 1:
                width = int(rng.integers(4, 24))
                yield Dag([int(w) for w in rng.integers(1, 12, width + 2)],
                          [(0, v) for v in range(1, width + 1)]
                          + [(v, width + 1) for v in range(1, width + 1)])
            else:
                yield random_dag(rng, n_max=10, wcet_max=(3, 9)[k % 2], p=0.3)

    @staticmethod
    def _processor_counts(dag):
        return sorted({1, 2, 3, 4, 8, 16, dag.work, dag.work + 1, 2 ** 40} - {0})

    def test_capped_carry_in_below_capped_carry_out(self, rng):
        # premise (ii) of the split lemma, at every m: the capped carry-in
        # table never exceeds the capped carry-out table
        wide = zeros = 0
        for dag in self._lemma_dags(rng):
            wide += dag.work > dag.span * 2
            zeros += 0 in dag.wcets
            for m in self._processor_counts(dag):
                ci_table, co_table = _tables(dag, m)
                assert (ci_table <= co_table).all(), (dag, m)
        assert wide >= 20 and zeros >= 20, (wide, zeros)

    def test_extended_carry_out_table_is_concave(self, rng):
        # premise (i) of the split lemma, at every m: the capped carry-out
        # table, extended by min(C, m * len) to 2 * span + 2, has no
        # positive second difference (and never falls)
        for dag in self._lemma_dags(rng):
            C, L = dag.work, dag.span
            for m in self._processor_counts(dag):
                tail = [min(C, m * d) for d in range(L + 1, 2 * L + 3)]
                h = _tables(dag, m)[1].tolist() + tail
                steps = [b - a for a, b in zip(h, h[1:])]
                assert all(step >= 0 for step in steps), (dag, m)
                assert all(a >= b for a, b in zip(steps, steps[1:])), (dag, m)

    def test_tables_hold_one_pair_per_dag_and_processor_count(self, rng):
        # one entry per (DAG, m), built on the first read only: two span+1
        # int64 tables, the rows of one buffer that owns its memory and holds
        # nothing else; an equal DAG that is another object gets its own pair
        for _ in range(20):
            dag = random_dag(rng, n_max=10, wcet_max=30)
            tables = {}
            for count, m in enumerate((1, 3, 16), start=1):
                pair = _pair(tables, dag, m)
                assert _pair(tables, dag, m) is pair and pair[2] is dag
                assert len(tables) == count
                buffers = []
                for carry_in, carry_out, _ in tables.values():
                    assert carry_in.base is carry_out.base
                    assert all(a.dtype == np.int64 and a.shape == (dag.span + 1,)
                               for a in (carry_in, carry_out))
                    buffers.append(carry_in.base)
                assert all(b.base is None for b in buffers)
                assert len({id(b) for b in buffers}) == count
                assert sum(b.nbytes for b in buffers) == count * 2 * 8 * (dag.span + 1)
            twin = Dag(dag.wcets, dag.edges)
            assert _pair(tables, twin, 1)[2] is twin and len(tables) == 4

    def test_table_build_memory_grows_by_a_few_words_per_span_unit(self):
        # 20 parallel vertices joined into one sink: 21 cover penalties, so
        # tabulating the carry-out envelope line by line would hold a
        # 21 x (span+1) int64 matrix (368 B per span unit at its peak)
        dag = Dag([10**5] * 21, [(v, 20) for v in range(20)])
        tracemalloc.start()
        try:
            _tables(dag, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 96 * dag.span, peak / dag.span


class TestInterfering:
    def test_empty_window(self):
        assert interfering_workload(task_13_8(), 0, 10, 2) == 0

    def test_single_vertex_cross_check(self):
        # C=L=5, T=10, R=5, delta=10, m=2 against the placement oracle
        task = DagTask(Dag([5], []), 10, 10)
        bound = interfering_workload(task, 10, 5, 2)
        oracle = _placement_oracle_single_vertex(5, 10, 5, 10)
        assert bound >= oracle
        assert (bound, oracle) == (5, 5)

    def test_saturated_windows_capped(self):
        # both windows >= span: each side is capped by min(C, m*len)
        task = DagTask(Dag([1, 1, 1], [(0, 1), (1, 2)]), 20, 20)  # C=3, L=3
        w = interfering_workload(task, 20, 10, 2)  # gamma = 10 >= 2L
        body = body_workload(task, 20, 10)
        assert w <= body + 2 * min(task.work, 2 * task.span)

    def test_matches_direct_split_evaluation(self, rng):
        # direct evaluation of the capped carry-in + carry-out maximization
        cfg = GenConfig(n_range=(2, 7), wcet_range=(1, 12), seed=0)
        cases = []
        for _ in range(80):
            task = gen_task(gen_dag(cfg, rng), cfg, rng)
            m = int(rng.integers(1, 17))
            delta = int(rng.integers(0, 2 * task.period))
            r_i = int(rng.integers(task.span, task.deadline + 1))
            cases.append((task, delta, r_i, m))
        # a budget above 2*span (13 + 10 - 10 > 2*4) whose balanced split
        # neither side's work caps (m * 6 < C = 14)
        fork_join = Dag([1, 2, 2, 2, 2, 2, 2, 1],
                        [(0, v) for v in range(1, 7)] + [(v, 7) for v in range(1, 7)])
        cases.append((DagTask(fork_join, 10, 10), 13, 10, 2))
        for task, delta, r_i, m in cases:
            got = interfering_workload(task, delta, r_i, m)
            assert got == scalar_interfering_workload(task, delta, r_i, m)

    @staticmethod
    def _reads_a_table(task, delta, r_i, m):
        """Whether some term of the bound reads the DAG's tables: a
        carry-out head <= span (the first head is delta) or a split budget
        in (0, 2*span]."""
        L, T = task.span, task.period
        if delta <= L:
            return True
        s = 1
        while delta - (s - 1) * T > 0 and (s - 1) * task.work < m * delta:
            if delta - (s - 1) * T <= L or 0 < delta + r_i - s * T <= 2 * L:
                return True
            s += 1
        return False

    def test_tables_built_only_when_a_term_reads_them(self, rng, monkeypatch):
        # with a table dict the pair is kept there; without one the call
        # builds it once if a term reads it; and no pair stays on the DAG
        built = []
        build = workload._tables
        monkeypatch.setattr(workload, "_tables", lambda dag, m: built.append(dag) or build(dag, m))
        # a chain of span 5 in a window longer than its span: no term reads
        # a table when the one budget is <= 0 or above 2 * span
        for delta, r_i in ((10, 5), (19, 15)):
            task, tables = DagTask(Dag([2, 3], [(0, 1)]), 20, 20), {}
            assert interfering_workload(task, delta, r_i, 2, tables) > 0
            assert interfering_workload(task, delta, r_i, 2) > 0
            assert not tables and not built
        cfg = GenConfig(n_range=(2, 8), wcet_range=(1, 12), seed=0)
        seen = {False: 0, True: 0}
        for _ in range(400):
            task = gen_task(gen_dag(cfg, rng), cfg, rng)
            m = int(rng.integers(1, 9))
            delta = int(rng.integers(1, 3 * task.period))
            r_i = int(rng.integers(task.span, task.deadline + 1))
            reads = self._reads_a_table(task, delta, r_i, m)
            tables = {}
            interfering_workload(task, delta, r_i, m, tables)
            seen[reads] += 1
            assert list(tables) == ([(id(task.dag), m)] if reads else [])
            built.clear()
            interfering_workload(task, delta, r_i, m)
            assert built == ([task.dag] if reads else [])
            assert not any(isinstance(v, (dict, np.ndarray)) for v in vars(task.dag).values())
        assert min(seen.values()) >= 30, seen

    def test_matches_direct_evaluation_past_twice_the_span(self, rng):
        # long windows over short spans, so that many budgets exceed 2 * span
        # and take the balanced split with no table
        cfg = GenConfig(n_range=(1, 6), wcet_range=(1, 6), seed=0)
        beyond = 0
        for _ in range(150):
            task = gen_task(gen_dag(cfg, rng), cfg, rng)
            m = int(rng.integers(1, 9))
            delta = int(rng.integers(1, 4 * task.period))
            r_i = int(rng.integers(task.span, task.deadline + 1))
            beyond += any(delta + r_i - s * task.period > 2 * task.span
                          for s in range(1, delta // task.period + 2))
            got = interfering_workload(task, delta, r_i, m)
            assert got == scalar_interfering_workload(task, delta, r_i, m)
        assert beyond >= 50

    def test_matches_direct_evaluation_over_many_periods(self, rng):
        # windows of 5 to 60 interferer periods, so that the release counts
        # that the bound drops as dominated exist; zero-WCET DAGs, r_i below
        # the span and above the period, and processor counts from 1 to far
        # past the work.  The reference costs about the square of the period
        # count, so most windows are short.
        seen = dict(zero=0, below_span=0, above_period=0, m_caps=0, long=0)
        for k in range(48):
            dag = random_dag(rng, n_max=6, wcet_max=(2, 4)[k % 2], p=0.25)
            T = max(dag.span, 1) + int(rng.integers(0, 3))
            task = DagTask(dag, T, T)
            m = (1, 2, 3, 4, 16, 2 ** 40)[k % 6]
            periods = 5 + int(55 * rng.random() ** 3)
            delta = periods * T - int(rng.integers(0, T))
            r_i = int(rng.integers(0, 3 * T + 1))
            seen["zero"] += 0 in dag.wcets
            seen["below_span"] += r_i < dag.span
            seen["above_period"] += r_i > T
            seen["m_caps"] += (m * delta - 1) // max(dag.work, 1) < (delta - 1) // T
            seen["long"] += periods >= 30
            got = interfering_workload(task, delta, r_i, m)
            assert got == scalar_interfering_workload(task, delta, r_i, m), (k, delta, r_i, m)
        assert min(seen.values()) >= 4, seen

    def test_constant_cost_in_the_window_length(self, rng, monkeypatch):
        # a window of up to 10^6 periods costs at most one carry-out table
        # read and two split maxima; with m far past the work, each period
        # added to the window adds exactly one whole job
        calls = dict(head=0, split=0)
        inside = []
        pair, split = workload._pair, workload._split_peak

        def counted_pair(*args):
            calls["head"] += not inside
            return pair(*args)

        def counted_split(*args):
            calls["split"] += 1
            inside.append(True)
            try:
                return split(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(workload, "_pair", counted_pair)
        monkeypatch.setattr(workload, "_split_peak", counted_split)
        cfg = GenConfig(n_range=(2, 8), wcet_range=(1, 9), seed=0)
        for _ in range(40):
            task = gen_task(gen_dag(cfg, rng), cfg, rng)
            T, m, tables = task.period, 2 ** 40, {}
            # past one period, so that the split term at s* - 1 exists
            delta = int(rng.integers(T + 1, 3 * T))
            r_i = int(rng.integers(task.span, task.deadline + 1))
            near = interfering_workload(task, delta, r_i, m, tables)
            for periods in (10, 10 ** 3, 10 ** 6):
                calls.update(head=0, split=0)
                far = interfering_workload(task, delta + periods * T, r_i, m, tables)
                assert calls["head"] <= 1 and calls["split"] <= 2, calls
                assert far == near + periods * task.work

    def test_monotone_in_delta(self, rng):
        cfg = GenConfig(n_range=(2, 8), wcet_range=(1, 20), seed=0)
        for _ in range(60):
            task = gen_task(gen_dag(cfg, rng), cfg, rng)
            m = int(rng.integers(1, 17))
            r_i = int(rng.integers(rta.seed_bound(task, m), task.deadline + 1)) \
                if rta.seed_bound(task, m) <= task.deadline else task.span
            tables = {}
            vals = [interfering_workload(task, d, r_i, m, tables)
                    for d in range(0, 2 * task.period, max(task.period // 7, 1))]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_dominated_by_melani(self, rng):
        cfg = GenConfig(n_range=(2, 9), wcet_range=(1, 25), seed=0)
        for _ in range(120):
            task = gen_task(gen_dag(cfg, rng), cfg, rng)
            m = int(rng.integers(1, 17))
            seed = rta.seed_bound(task, m)
            if seed > task.deadline:
                continue
            r_i = int(rng.integers(seed, task.deadline + 1))
            tables = {}
            for delta in {0, 1, task.span, task.period,
                          int(rng.integers(0, 3 * task.period))}:
                wi = interfering_workload(task, delta, r_i, m, tables)
                wm = melani_workload(task, delta, r_i, m)
                assert wi <= wm, (task.work, task.span, task.period, delta, r_i, m)

    def test_wide_job_stretches_past_span(self):
        # width 3 on m=2: a single job can place all 30 units inside a
        # 20-window (it runs for 15 wall-clock units, more than its span),
        # so the single-job term must be capped by m*delta, not m*span
        task = DagTask(Dag([10, 10, 10], []), 100, 100)
        assert task.work == 30 and task.span == 10
        bound = interfering_workload(task, 20, 20, 2)
        assert bound >= 30

    def test_sparse_release_single_job_exposure(self):
        # T=40, R=20, window 30: the dense pattern only trades a 10-unit
        # carry-in/carry-out budget, but a lone job released inside the
        # window executes all 30 units there (15 wall-clock on 2 processors)
        task = DagTask(Dag([10, 10, 10], []), 20, 40)
        assert interfering_workload(task, 30, 20, 2) >= 30

    def test_stretched_carry_in_plus_carry_out(self):
        # T=D=R=20, window 30: the carry-in job can do all its work in
        # [w, w+15) and the next release all of its work in [w+15, w+30),
        # so 60 units are feasible; the window-split budget must allow it
        task = DagTask(Dag([10, 10, 10], []), 20, 20)
        assert interfering_workload(task, 30, 20, 2) >= 60

    def test_capped_by_processor_area(self, rng):
        cfg = GenConfig(n_range=(2, 6), wcet_range=(1, 9), seed=0)
        for _ in range(40):
            task = gen_task(gen_dag(cfg, rng), cfg, rng)
            m = int(rng.integers(1, 5))
            delta = int(rng.integers(0, task.period))
            assert interfering_workload(task, delta, task.span, m) <= m * delta
