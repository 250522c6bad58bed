"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from conftest import carry_in_workload, curve_obj, interference_scenario, random_dag
from dagsched import carryout, rta, sim
from dagsched.cli import ExperimentSpec, run_experiment
from dagsched.dag import Dag, DagTask, asap_start_times, normalize_source_sink, span
from dagsched.instances import antimonotone_task
from dagsched.taskgen import GenConfig, assign_priorities_dm, gen_taskset

MASTER_SEED = 20240810


def _report(criterion, detail):
    print(f"criterion {criterion}: PASS — {detail}")


# --------------------------------------------------------------------------
# 1. Oracle equivalence of the exact solver

def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(MASTER_SEED)
    t0 = time.time()
    solves = 0
    for _ in range(210):
        raw = random_dag(rng, n_max=6, wcet_max=3, p=0.4)
        dag = normalize_source_sink(raw)
        deltas = {int(rng.integers(0, span(dag) + 1)), span(dag)}
        for delta in deltas:
            expected = carryout.brute_force_oracle(dag, delta)
            res = carryout.solve_exact(carryout.build_model(dag, delta))
            assert res.objective == expected
            # the production work curve must agree exactly as well, on the
            # normalized DAG and on the DAG as drawn
            assert curve_obj(carryout.WorkCurve(dag), delta) == expected
            assert curve_obj(carryout.WorkCurve(raw), delta) == expected
            solves += 1
    elapsed = time.time() - t0
    assert solves >= 200
    assert elapsed < 120, f"oracle-equivalence suite took {elapsed:.0f}s"
    _report(1, f"{solves} exact solves match the brute-force oracle "
               f"(zero tolerance) in {elapsed:.0f}s")


# --------------------------------------------------------------------------
# 2. Reference carry-out scenario: 4 at full WCETs, optimum 7

def test_criterion_2_scenario_reproduction():
    task = antimonotone_task()
    assert (task.work, task.span) == (13, 8)
    dag = normalize_source_sink(task.dag)
    full = sum(carryout.trim_to_window(dag, dag.wcets, 3))
    assert full == 4
    oracle = carryout.brute_force_oracle(dag, 3)
    solved = carryout.solve_exact(carryout.build_model(dag, 3)).objective
    assert solved >= 7
    assert (oracle, solved) == (7, 7)
    _report(2, "6-vertex instance (work 13, span 8): window-3 carry-out is 4 "
               "at full WCETs and 7 at the optimum")


# --------------------------------------------------------------------------
# 3. Dominance of the DAG-aware analysis over the baseline

def test_criterion_3_dominance():
    cfg = GenConfig(n_range=(5, 10), seed=MASTER_SEED)
    t0 = time.time()
    checked = 0
    implications = 0
    for idx in range(500):
        rng = np.random.default_rng(np.random.SeedSequence((MASTER_SEED, 3, idx)))
        ts = assign_priorities_dm(gen_taskset(8.0, 16, cfg, rng))
        ilp = rta.schedulability_test(ts, method="ilp")
        mel = rta.schedulability_test(ts, method="melani")
        if mel.schedulable:
            assert ilp.schedulable, f"set {idx}: baseline accepts, ilp rejects"
            implications += 1
        for b_ilp, b_mel in zip(ilp.bounds, mel.bounds):
            if b_ilp is not None and b_mel is not None:
                assert b_ilp <= b_mel, f"set {idx}: {b_ilp} > {b_mel}"
                checked += 1
    elapsed = time.time() - t0
    assert elapsed < 1800
    _report(3, f"500 task sets (m=16, U=8): {checked} per-task bounds, zero "
               f"violations, {elapsed:.0f}s")


# --------------------------------------------------------------------------
# 4. Soundness against simulation

POLICY_MIX = [("periodic", "wcet"), ("periodic", "random"),
              ("sporadic", "wcet"), ("sporadic", "random")]


def _schedulable_sets(count, util, seed_tag):
    cfg = GenConfig(n_range=(5, 10), seed=MASTER_SEED)
    found = []
    idx = 0
    while len(found) < count:
        rng = np.random.default_rng(
            np.random.SeedSequence((MASTER_SEED, seed_tag, idx)))
        ts = assign_priorities_dm(gen_taskset(util, 16, cfg, rng))
        report = rta.schedulability_test(ts, method="ilp")
        if report.schedulable:
            found.append((ts, report))
        idx += 1
        assert idx < 40 * count, "could not collect enough schedulable sets"
    return found


def test_criterion_4_soundness_vs_simulation():
    t0 = time.time()
    sets = _schedulable_sets(100, util=3.0, seed_tag=4)
    runs = jobs = 0
    for set_idx, (ts, report) in enumerate(sets):
        horizon = 2 * max(t.period for t in ts.tasks)
        for rep in range(10):
            release, policy = POLICY_MIX[rep % len(POLICY_MIX)]
            rng = np.random.default_rng(
                np.random.SeedSequence((MASTER_SEED, 40, set_idx, rep)))
            res = sim.simulate(ts, 16, horizon, release_policy=release,
                               exec_policy=policy, rng=rng)
            runs += 1
            for t_idx, _, resp in res.response_times():
                assert resp <= report.bounds[t_idx], (
                    f"set {set_idx}: simulated response {resp} exceeds "
                    f"bound {report.bounds[t_idx]}")
                jobs += 1
    _report(4, f"100 schedulable sets x 10 runs ({runs} simulations, "
               f"{jobs} jobs): no response exceeded its bound "
               f"({time.time() - t0:.0f}s)")


# --------------------------------------------------------------------------
# 5. Critical-interference identities

def test_criterion_5_interference_identities():
    jobs = 0
    for seed in range(16):
        cfg = GenConfig(n_range=(3, 7), wcet_range=(1, 9), seed=seed)
        rng = np.random.default_rng(np.random.SeedSequence((MASTER_SEED, 5, seed)))
        m = int(rng.integers(2, 5))
        ts = assign_priorities_dm(
            gen_taskset(float(rng.uniform(1.0, 0.6 * m)), m, cfg, rng))
        horizon = 2 * max(t.period for t in ts.tasks)
        for release, policy in POLICY_MIX:
            res = sim.simulate(ts, m, horizon, release_policy=release,
                               exec_policy=policy,
                               rng=np.random.default_rng(
                                   np.random.SeedSequence((seed, hash(release) % 97))))
            for job in res.jobs:
                if job.completion is None:
                    continue
                chain = sim.extract_critical_chain(res, job)
                total = sim.critical_interference(res, job, chain)
                per_task = sim.interference_by_task(res, job, chain)
                assert sum(per_task.values()) == m * total          # Eq. identity
                assert sum(job.exec_times[v] for v in chain) + total == job.response
                jobs += 1
    assert jobs > 400

    # scripted two-processor scenario
    ts, m, releases, execs, k = interference_scenario()
    res = sim.simulate(ts, m, 120, release_policy=releases, exec_policy=execs)
    job = next(j for j in res.jobs if j.task_index == k)
    chain = sim.extract_critical_chain(res, job)
    assert chain == [0, 2, 4, 5]
    assert sim.critical_interference(res, job, chain) == 7
    _report(5, f"decomposition and per-task identity exact on {jobs} jobs; "
               "scripted scenario: chain (v1,v3,v5,v6), interference 7")


# --------------------------------------------------------------------------
# 6. Carry-in bound equals the ASAP schedule tail

def test_criterion_6_carry_in_equality():
    rng = np.random.default_rng(MASTER_SEED + 6)
    checked = 0
    for _ in range(500):
        dag = random_dag(rng, n_max=9, wcet_max=12, wcet_min=1, p=0.35)
        task = DagTask(dag, span(dag) + 2, span(dag) + 2)
        starts = asap_start_times(dag, list(dag.wcets))
        for ci in {0, 1, task.span // 3, task.span // 2, task.span, task.span + 5}:
            lo = task.span - ci
            tail = sum(max(0, min(s + c, task.span) - max(s, lo))
                       for s, c in zip(starts, dag.wcets))
            assert carry_in_workload(task, ci) == tail
            checked += 1
    _report(6, f"{checked} carry-in evaluations equal the schedule tail exactly "
               "(500 DAGs)")


# --------------------------------------------------------------------------
# 7 & 8. Trend reproduction and determinism of the sweep

SWEEP_SPEC = dict(points=[2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0],
                  sets_per_point=100, processors=16, seed=MASTER_SEED,
                  n_range=(5, 10), zero_timing=True)


@pytest.fixture(scope="module")
def sweep_csv():
    return run_experiment(ExperimentSpec(**SWEEP_SPEC))


def _ratios(lines, method):
    out = []
    for line in lines[1:]:
        point, meth, ratio, *_ = line.split(",")
        if meth == method:
            out.append((float(point), float(ratio)))
    return [r for _, r in sorted(out)]


def test_criterion_7_trend(sweep_csv):
    ilp = _ratios(sweep_csv, "ilp")
    mel = _ratios(sweep_csv, "melani")
    assert len(ilp) == len(mel) == 7

    # the DAG-aware analysis accepts at least as much everywhere
    assert all(a >= b for a, b in zip(ilp, mel))

    # non-increasing in total utilization, allowing one small inversion
    for series in (ilp, mel):
        ups = [(b - a) for a, b in zip(series, series[1:]) if b > a]
        assert len(ups) <= 1
        assert all(u <= 0.02 + 1e-9 for u in ups)

    # strictly better at two or more interior grid points
    strict_mid = sum(1 for a, b in list(zip(ilp, mel))[1:-1] if a > b)
    assert strict_mid >= 2
    _report(7, f"ilp ratios {ilp} vs melani {mel}: dominance at every point, "
               f"{strict_mid} strict interior wins")


def test_criterion_8_determinism(sweep_csv):
    again = run_experiment(ExperimentSpec(**SWEEP_SPEC))
    first = "\n".join(sweep_csv) + "\n"
    second = "\n".join(again) + "\n"
    assert first.encode() == second.encode()
    _report(8, "repeated sweep produced a byte-identical CSV "
               f"({len(first)} bytes)")
