"""Golden outputs: desk- and paper-scale sweep CSVs, generated task sets,
per-set analysis reports, simulation traces, carry-out model exports and
exact carry-out solves.

Any change that alters a bound, a verdict or a CSV byte fails here.  A
change meant to alter these outputs re-pins the digests and says why.
"""

import hashlib
import json

from dataclasses import replace

import numpy as np

from conftest import random_dag
from dagsched import rta, sim
from dagsched.carryout import build_model, export_model, solve_exact
from dagsched.cli import ExperimentSpec, main as cli_main, run_experiment
from dagsched.dag import Dag, TaskSet, normalize_source_sink, taskset_to_dict
from dagsched.taskgen import GenConfig, assign_priorities_dm, gen_dag, gen_taskset

SWEEP_SHA256 = "57ec116d5d69a206421c2ae0d965ba266896d97acca60df1de2515ec382f6ac2"
PAPER_SWEEP_SHA256 = "b37b5340cfb766037a5a4aadb2a7b4f284d81879d566043d1f28d4c4757fd77b"
REPORTS_SHA256 = "b457d88704f7eafe6a9aae8e11c4e95f2a2384abc183173c943cad59165ade88"
TRACES_SHA256 = "f838ba111b1bf1894fa3b1dd13b66302aa4852a313d1e64792d4dd0217c9db00"
MODEL_EXPORTS_SHA256 = "ab6b3daa314c074f847f118e3239615afef0007da2e1fd48a5b68bc1f31b92ad"
EXACT_SOLVES_SHA256 = "2d4c5fe073c69233e499d88933189684526d421674d957bd81e2754f93ed62cd"
EXACT_WITNESSES_SHA256 = "53e85d0d966ac2030d1a76db4163c514f1206d97d62f94b70c88f9676572cdd9"
EXACT_OBJECTIVES_SHA256 = "8ade0fd304f2ff4e88340de98d1b818e268e4a6162c39f9a0357e79425c8729e"
TRACE_OUT_SHA256 = "228f13f89a3870d185903400300931f538da394ee0379cf086fc1142d2d76cd7"
GENERATED_SETS_SHA256 = "36c6220b7df4f472cdd71e3d2d7f68a94e5a35634d43dd1ffe90172fd6f419ed"

FORMULATIONS = ("edge-recursive", "path-enumerated")

# (total utilization, processors, seed) of desk-scale sets: both methods
# accept, only ilp accepts, and both fail after fixed-point iterations
ANALYZED_SETS = [(1.0, 4, 8), (2.0, 4, 6), (2.0, 4, 11), (2.0, 8, 10),
                 (3.0, 8, 5), (3.0, 8, 10), (4.0, 16, 6), (4.0, 16, 10)]

# (total utilization, processors, seed) of simulated desk-scale sets; the
# last one is simulated again with every third WCET set to zero
SIMULATED_SETS = [(1.0, 1, 3), (1.5, 4, 7), (3.0, 8, 12)]

# (total utilization, processors, seed) of `dagsched generate` sets whose
# `dagsched simulate --trace-out` JSON lines are pinned
TRACED_CLI_SETS = [(1.5, 2, 8), (2.0, 4, 5), (3.0, 8, 12)]


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_desk_sweep_csv_digest():
    spec = ExperimentSpec(sets_per_point=20, seed=0, zero_timing=True)
    text = "\n".join(run_experiment(spec)) + "\n"
    assert _sha256(text) == SWEEP_SHA256


def test_paper_scale_sweep_csv_digest():
    # paper-scale DAG sizes reach the larger graphs of generation and the flow
    spec = ExperimentSpec(sets_per_point=5, n_range=(10, 20), seed=0, zero_timing=True)
    text = "\n".join(run_experiment(spec)) + "\n"
    assert _sha256(text) == PAPER_SWEEP_SHA256


def test_generated_sets_digest():
    # every DAG, period and deadline of the paper-scale util grid at m = 16,
    # drawn in full (no stop), one seeded stream per set as in a sweep
    spec = ExperimentSpec(n_range=(10, 20))
    docs = []
    for p_idx, util in enumerate(spec.points):
        for s_idx in range(4):
            rng = np.random.default_rng(np.random.SeedSequence((0, p_idx, s_idx)))
            docs.append(taskset_to_dict(gen_taskset(util, spec.processors, spec, rng)))
    assert _sha256(json.dumps(docs)) == GENERATED_SETS_SHA256


def test_analysis_reports_digest():
    config = GenConfig(n_range=(5, 10))
    docs = []
    for util, m, seed in ANALYZED_SETS:
        rng = np.random.default_rng(seed)
        ts = assign_priorities_dm(gen_taskset(util, m, config, rng))
        for method in rta.METHODS:
            doc = rta.schedulability_test(ts, method=method).to_dict()
            del doc["wall_time_s"]
            docs.append(doc)
    assert _sha256(json.dumps(docs, sort_keys=True)) == REPORTS_SHA256


def _zero_every_third_wcet(ts):
    tasks = [replace(t, dag=Dag([0 if v % 3 == 0 else w for v, w in enumerate(t.dag.wcets)],
                                t.dag.edges))
             for t in ts.tasks]
    return TaskSet(tasks, ts.processors)


def test_simulation_trace_digest():
    config = GenConfig(n_range=(5, 10))
    sets = [assign_priorities_dm(gen_taskset(util, m, config, np.random.default_rng(seed)))
            for util, m, seed in SIMULATED_SETS]
    sets.append(_zero_every_third_wcet(sets[-1]))
    docs = []
    for ts in sets:
        horizon = 3 * max(t.period for t in ts.tasks)
        for release in ("periodic", "sporadic"):
            for policy in ("wcet", "random"):
                rng = np.random.default_rng(len(docs))
                res = sim.simulate(ts, ts.processors, horizon, release_policy=release,
                                   exec_policy=policy, rng=rng)
                docs.append({
                    "segments": res.segments,
                    "jobs": [(j.task_index, j.job_index, j.release, j.exec_times,
                              j.subtask_ready, j.subtask_completion, j.completion)
                             for j in res.jobs],
                    "next_draw": int(rng.integers(2**31)),
                })
    assert _sha256(json.dumps(docs)) == TRACES_SHA256


def test_simulate_trace_out_digest(tmp_path, capsys):
    # the JSON lines `dagsched simulate --trace-out` writes for sporadic
    # releases and random execution times
    texts = []
    for util, m, seed in TRACED_CLI_SETS:
        path, trace = tmp_path / "ts.json", tmp_path / "trace.jsonl"
        assert cli_main(["generate", "--util", str(util), "--procs", str(m),
                         "--seed", str(seed), "--out", str(path)]) == 0
        assert cli_main(["simulate", str(path), "--release", "sporadic",
                         "--exec-policy", "random", "--seed", str(seed),
                         "--trace-out", str(trace)]) == 0
        texts.append(trace.read_text(encoding="utf-8"))
    capsys.readouterr()
    assert _sha256("".join(texts)) == TRACE_OUT_SHA256


def test_model_export_digest():
    # LP and MPS text at windows 1, span // 2 and span (all >= 1) of small
    # random DAGs and desk-scale generated ones
    rng = np.random.default_rng(17)
    dags = [random_dag(rng, n_max=6, wcet_max=5, wcet_min=1) for _ in range(20)]
    dags += [gen_dag(GenConfig(n_range=(5, 10)), rng) for _ in range(10)]
    texts = []
    for dag in map(normalize_source_sink, dags):
        for delta in sorted({1, dag.span // 2, dag.span} - {0}):
            for formulation in FORMULATIONS:
                model = build_model(dag, delta, formulation)
                texts += [export_model(model, "lp"), export_model(model, "mps")]
    assert _sha256("".join(texts)) == MODEL_EXPORTS_SHA256


def _exact_solves():
    # solve_exact on small random DAGs, including zero WCETs, span 0 and window 0
    rng = np.random.default_rng(18)
    solves = []
    for k in range(40):
        dag = normalize_source_sink(random_dag(rng, n_max=5, wcet_max=4))
        delta = 0 if k % 5 == 0 else int(rng.integers(1, dag.span + 2))
        solves.append((dag.n, solve_exact(build_model(dag, delta, FORMULATIONS[k % 2]))))
    return solves


def test_exact_solve_digest():
    # objective, simplex effort and witness of each solve
    docs = [[res.objective, res.pivots, [res.assignment[a] for a in range(n)]]
            for n, res in _exact_solves()]
    assert _sha256(json.dumps(docs, sort_keys=True)) == EXACT_SOLVES_SHA256


def test_exact_witnesses_digest():
    # objective and witness of each solve, which no change to the solver's
    # effort may move
    docs = [[res.objective, [res.assignment[a] for a in range(n)]] for n, res in _exact_solves()]
    assert _sha256(json.dumps(docs, sort_keys=True)) == EXACT_WITNESSES_SHA256


def test_exact_objectives_digest():
    # the optima alone, which no change to the search may move
    objectives = [res.objective for _, res in _exact_solves()]
    assert _sha256(json.dumps(objectives, sort_keys=True)) == EXACT_OBJECTIVES_SHA256
