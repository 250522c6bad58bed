"""The benchmark's own checks: pure inputs, CLI equivalence, tracing.

Run with `python -m pytest benchmarks/tests` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from dagsched import cli, dag, rta
from tracing import LAYER_METRICS, Tracer

ROOT = Path(__file__).resolve().parents[2]


def small(name):
    """The named workload with a pool of a few small units."""
    work = type(workloads.WORKLOADS[name])()
    if name == "sweep":
        work.make_pool = lambda seed, between=None: [workloads.sweep_spec(seed, 2)]
    else:
        work.pool_size = 4
    return work


def comparable(unit):
    """Plain data for a pool unit (simulation units hold TaskSet objects)."""
    if isinstance(unit, tuple):
        ts, *rest = unit
        return dag.taskset_to_dict(ts), rest
    return unit


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_a_pure_function_of_the_seed(name):
    work = small(name)
    first = [comparable(u) for u in work.make_pool(5)]
    assert first == [comparable(u) for u in work.make_pool(5)]
    assert first != [comparable(u) for u in work.make_pool(6)]


def test_sweep_csv_equals_the_cli(tmp_path):
    spec = workloads.sweep_spec(3, sets_per_point=2)
    lines, latencies = workloads.Sweep().run(spec)
    out = tmp_path / "sweep.csv"
    assert cli.main(workloads.sweep_argv(spec) + ["--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == workloads.Sweep().canonical(spec, lines)["csv"]
    assert len(latencies) == len(spec.points) * spec.sets_per_point


def _module_state():
    import dagsched.cli  # noqa: F401

    state = {}
    for mod in [m for n, m in sys.modules.items() if n.startswith("dagsched")]:
        for attr, val in vars(mod).items():
            state[(mod.__name__, attr)] = val
    for cls in (dag.Dag, dag.DagTask, dag.TaskSet, sys.modules["dagsched.carryout"].WorkCurve):
        state[(cls.__name__, "__init__")] = cls.__init__
    return state


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_runs_give_the_same_digests(name):
    work = small(name)
    pool = work.make_pool(2)
    before = _module_state()
    plain = run.Tally()
    run.run_pass(work, pool, plain)
    tracer = Tracer()
    traced = run.Tally()
    tracer.install()
    try:
        assert rta.interfering_workload is not before[("dagsched.rta", "interfering_workload")]
        run.run_pass(work, pool, traced, tracer)
    finally:
        tracer.restore()
    after = _module_state()
    assert all(after[k] is v for k, v in before.items())
    assert plain.failed == traced.failed == 0
    assert plain.digests(work.canonical_keys) == traced.digests(work.canonical_keys)
    metrics = tracer.metrics(0.0)
    assert list(metrics) == list(LAYER_METRICS)
    assert metrics["rta.tests"]["value"] > 0 or name == "simulate-audit"


def test_traced_counts_repeat_exactly():
    work = small("analyze-many")
    pool = work.make_pool(4)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            run.run_pass(work, pool, run.Tally(), tracer)
        finally:
            tracer.restore()
        m = tracer.metrics(0.0)
        counts.append({k: v["value"] for k, v in m.items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["workload.ilp_calls"] > 0


@pytest.mark.parametrize("name", ["sweep", "simulate-audit"])
def test_a_pass_probes_before_each_item_and_scales_by_the_median_probe(name, monkeypatch):
    work = small(name)
    pool = work.make_pool(1)
    monkeypatch.setattr(run, "probe", lambda: 2 * run.PROBE_REF_S)
    speed = run.Speed()
    tally = run.Tally()
    assert run.run_pass(work, pool, tally, speed=speed) == 0.5
    items = sum(work.items(unit) for unit in pool)
    assert len(speed.samples) == len(tally.latencies) == items


def test_a_failed_check_counts_the_units_items():
    work = small("analyze-wide")
    pool = work.make_pool(1)
    tally = run.Tally()

    def broken(doc, reports):
        raise workloads.ItemFailure("forced")

    work.check = broken
    run.run_pass(work, pool, tally)
    assert tally.attempted == tally.failed == len(pool)
    assert tally.first == [None] * len(pool)


def _main(monkeypatch, capsys, tmp_path, seed):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(workloads.Sweep, "make_pool",
                        lambda self, s, between=None: [workloads.sweep_spec(s, 2)])
    code = run.main(["--workload", "sweep", "--seed", str(seed), "--seconds", "0.01"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result


def test_main_reports_every_end_to_end_metric(monkeypatch, capsys, tmp_path):
    code, result = _main(monkeypatch, capsys, tmp_path, seed=7)
    assert code == 0 and result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert result["attempted"] == run.MIN_PASSES * 14


def test_main_exits_nonzero_on_a_digest_mismatch(monkeypatch, capsys, tmp_path):
    # the golden digests cover the full-size sweep, not this small one
    code, result = _main(monkeypatch, capsys, tmp_path, seed=0)
    assert code == 1 and not result["correct"]


def test_main_exits_nonzero_on_a_failed_check(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(cli, "check_dominance", lambda lines: False)
    code, result = _main(monkeypatch, capsys, tmp_path, seed=7)
    assert code == 1 and result["failed"] == result["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
