"""Command-line harness: subcommands, exit codes, CSV schema."""

import json
import time

import numpy as np
import pytest

from dagsched import cli, rta
from dagsched.cli import CSV_HEADER, ExperimentSpec, check_dominance, run_experiment
from dagsched.dag import load_taskset, save_taskset
from dagsched.errors import SolverLimitError, ValidationError
from dagsched.taskgen import assign_priorities_dm, gen_taskset


def run(argv):
    return cli.main(argv)


def reference_run_experiment(spec) -> list:
    """`run_experiment` generating and analysing every set in full."""
    lines = [CSV_HEADER]
    for p_idx, point in enumerate(spec.points):
        m = spec.processors if spec.sweep == "util" else int(point)
        total_util = float(point) if spec.sweep == "util" else spec.norm_util * m
        results = {method: [] for method in spec.methods}
        warnings = {method: 0 for method in spec.methods}
        for s_idx in range(spec.sets_per_point):
            rng = np.random.default_rng(
                np.random.SeedSequence((spec.seed, p_idx, s_idx)))
            ts = assign_priorities_dm(gen_taskset(total_util, m, spec, rng))
            for method in spec.methods:
                t0 = time.perf_counter()
                try:
                    report = rta.schedulability_test(ts, method=method)
                except SolverLimitError:
                    warnings[method] += 1
                    continue
                results[method].append(
                    (1 if report.schedulable else 0, time.perf_counter() - t0))
        for method in spec.methods:
            rows = results[method]
            n = len(rows)
            ratio = sum(r for r, _ in rows) / n if n else 0.0
            mean_ms = (sum(t for _, t in rows) / n * 1000) if n else 0.0
            if spec.zero_timing:
                mean_ms = 0.0
            lines.append(f"{point},{method},{ratio:.6f},{n},{warnings[method]},{mean_ms:.3f}")
    return lines


class TestGenerateAnalyze:
    def test_generate_then_analyze_round_trip(self, tmp_path, capsys):
        path = tmp_path / "ts.json"
        assert run(["generate", "--util", "2.0", "--procs", "8",
                    "--seed", "5", "--out", str(path)]) == 0
        ts = load_taskset(path)
        expect = rta.schedulability_test(ts, method="ilp")
        code = run(["analyze", str(path), "--method", "ilp"])
        out = json.loads(capsys.readouterr().out)
        assert code == (0 if expect.schedulable else 1)
        assert out["verdict"] == expect.verdict
        assert out["bounds"] == expect.to_dict()["bounds"]

    def test_unschedulable_exit_code(self, tmp_path, capsys):
        doc = {"tasks": [{"period": 10, "deadline": 6,
                          "vertices": [{"wcet": 5}, {"wcet": 5}], "edges": []}],
               "processors": 1}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(["analyze", str(path)]) == 1

    def test_empty_task_list_vacuously_schedulable(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"tasks": [], "processors": 2}))
        assert run(["analyze", str(path)]) == 0

    def test_empty_dag_interferer(self, tmp_path, capsys):
        # a task with no subtasks has no source and no sink; under ilp it
        # interferes with nothing
        doc = {"tasks": [{"period": 5, "deadline": 5, "vertices": [], "edges": []},
                         {"period": 10, "deadline": 10, "vertices": [{"wcet": 3}], "edges": []}],
               "processors": 2}
        path = tmp_path / "empty-dag.json"
        path.write_text(json.dumps(doc))
        assert run(["analyze", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["bounds"] == [0, 3]

    def test_generate_out_file_matches_stdout(self, tmp_path, capsys):
        path = tmp_path / "ts.json"
        argv = ["generate", "--util", "3.0", "--procs", "4", "--seed", "11"]
        assert run(argv) == 0
        printed = capsys.readouterr().out
        assert run(argv + ["--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_bytes() == printed.encode("utf-8")
        # the bytes `save_taskset` writes for the same set
        saved = tmp_path / "saved.json"
        save_taskset(load_taskset(path), saved)
        assert saved.read_bytes() == path.read_bytes()

    def test_empty_config_matches_plain_generate(self, tmp_path, capsys):
        # both start from GenConfig's defaults
        path = tmp_path / "config.json"
        path.write_text("{}")
        argv = ["generate", "--util", "3.0", "--procs", "4"]
        assert run(argv) == 0
        plain = capsys.readouterr().out
        assert run(argv + ["--config", str(path)]) == 0
        assert capsys.readouterr().out == plain

    def test_flags_override_config(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 3, "n_range": [3, 5]}))
        assert run(["generate", "--util", "3.0", "--procs", "4", "--n-range", "3", "5",
                    "--seed", "9"]) == 0
        expect = capsys.readouterr().out
        assert run(["generate", "--util", "3.0", "--procs", "4", "--config", str(path),
                    "--seed", "9"]) == 0
        assert capsys.readouterr().out == expect

    def test_generate_zero_processors_exit_2(self, capsys):
        assert run(["generate", "--util", "0.5", "--procs", "0"]) == 2
        err = capsys.readouterr().err
        assert "processor count must be positive" in err and "exceeds" not in err

    @pytest.mark.parametrize("procs", [2 ** 62, 10 ** 20])
    def test_huge_processor_count_matches_a_million(self, tmp_path, capsys, procs):
        # int64 tables are capped at min(m, work) * d, so no processor count
        # wraps; past the work every count gives the same bounds
        for seed in range(4):
            path = tmp_path / f"ts{seed}.json"
            assert run(["generate", "--util", "3.0", "--procs", "4", "--seed", str(seed),
                        "--out", str(path)]) == 0
            reports = []
            for m in (10 ** 6, procs):
                code = run(["analyze", str(path), "--procs", str(m)])
                report = json.loads(capsys.readouterr().out)
                assert report.pop("processors") == m
                report.pop("wall_time_s")
                reports.append((code, report))
            assert reports[0] == reports[1]
            assert reports[0][0] == 0 and len(reports[0][1]["bounds"]) > 1

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(["analyze", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_schema_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps({"tasks": [{"period": 3}], "processors": 1}))
        assert run(["analyze", str(path)]) == 2


def one_task_doc(vertices=({"wcet": 5},), edges=(), processors=1):
    return {"tasks": [{"period": 20, "deadline": 20, "vertices": list(vertices),
                       "edges": list(edges)}],
            "processors": processors}


class TestMalformedInput:
    """Malformed input exits 2, never 1 ("unschedulable") or with a traceback."""

    @pytest.mark.parametrize("doc", [
        one_task_doc(vertices=[{"wcet": 1}, {"wcet": 1}], edges=[[0]]),
        one_task_doc(vertices=[{"wcet": 2.7}]),
        one_task_doc(vertices=[{"wcet": True}]),
        one_task_doc(processors=2.5),
        {"tasks": 5, "processors": 2},
        {"tasks": [{"period": 10**19, "deadline": 10**19, "vertices": [{"wcet": 10**19}],
                    "edges": []}] * 2, "processors": 1},
        # numpy refuses the span-sized workload tables before allocating
        {"tasks": [{"period": 2**62, "deadline": 2**62,
                    "vertices": [{"wcet": 2**61}, {"wcet": 2**61}], "edges": []}] * 2,
         "processors": 2},
    ], ids=["short-edge", "fractional-wcet", "boolean-wcet", "fractional-processors",
            "tasks-not-a-list", "wcet-beyond-int64", "span-sized-tables"])
    def test_malformed_task_set_exit_2(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(["analyze", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["generate", "--util", "0", "--procs", "4"],
        ["generate", "--util", "1", "--procs", "4", "--edge-prob", "2"],
        ["sweep", "--points", "1.0", "--sets", "-1"],
        ["sweep", "--points", "1.0", "--sets", "0"],
        ["sweep", "--points", "1.0", "--sets", "1", "--methods", "ilp,foo"],
        ["generate", "--util", "1", "--procs", "4", "--seed", "-1"],
        # a non-finite utilization must not yield an empty task set
        ["generate", "--util", "nan", "--procs", "4"],
        ["generate", "--util", "inf", "--procs", "4"],
        # a fractional processor count must not be truncated under its label
        ["sweep", "--sweep", "procs", "--points", "2.5", "4.9", "--sets", "1"],
        ["sweep", "--points", "nan", "--sets", "1"],
        ["sweep", "--points", "inf", "--sets", "1"],
        # two passes of one method would pool their results in one row
        ["sweep", "--points", "1.0", "--methods", "ilp,ilp", "--sets", "3"],
        # no set above the processor count is feasible, and a huge
        # utilization would keep the generator appending tasks
        ["generate", "--util", "5", "--procs", "4"],
        ["sweep", "--points", "2", "17", "--procs", "16", "--sets", "1"],
        ["sweep", "--sweep", "procs", "--points", "4", "--norm-util", "1.5", "--sets", "1"],
        # numpy draws the ranges' ends as int64s, so a WCET range ends by
        # 2^63 - 1; a vertex range ends by taskgen.MAX_VERTICES
        ["generate", "--util", "1", "--procs", "4", "--wcet-range", "1", "99999999999999999999"],
        ["generate", "--util", "1", "--procs", "4", "--n-range", "1", "9223372036854775807"],
        # a subnormal utilization asks for periods past the float range
        ["generate", "--util", "1e-320", "--procs", "4"],
        ["sweep", "--points", "1e-320", "--sets", "1"],
    ], ids=["generate-util-0", "generate-edge-prob-2", "sweep-sets-negative", "sweep-sets-0",
            "sweep-unknown-method", "generate-seed-negative", "generate-util-nan",
            "generate-util-inf", "sweep-procs-fractional",
            "sweep-point-nan", "sweep-point-inf", "sweep-duplicate-method",
            "generate-util-above-procs", "sweep-point-above-procs",
            "sweep-norm-util-above-1", "generate-wcet-range-past-int64",
            "generate-vertex-count-numpy-refuses", "generate-util-subnormal",
            "sweep-point-subnormal"])
    def test_bad_arguments_exit_2(self, capsys, argv):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error" in captured.err

    @pytest.mark.parametrize("argv, doc", [
        (["sweep"], {"points": [1.0], "sets": 3}),
        (["generate", "--util", "1", "--procs", "4"], {"n_rang": [3, 5]}),
        (["sweep"], [1, 2]),
        (["generate", "--util", "1", "--procs", "4"], None),
        (["generate", "--util", "1", "--procs", "2"], {"n_range": 5}),
        (["generate", "--util", "1", "--procs", "2"], {"edge_prob": "0.2"}),
        (["sweep"], {"points": [1.0], "sets_per_point": "3"}),
        # dict.update would take a list of pairs
        (["generate", "--util", "1", "--procs", "2"], [["seed", 3]]),
    ], ids=["sweep-unknown-key", "generate-unknown-key", "non-object", "missing-file",
            "generate-n-range-scalar", "generate-edge-prob-string", "sweep-sets-string",
            "list-of-pairs"])
    def test_bad_config_exit_2(self, tmp_path, capsys, argv, doc):
        path = tmp_path / "config.json"
        if doc is not None:
            path.write_text(json.dumps(doc))
        assert run(argv + ["--config", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["analyze"], ["simulate"], ["dump-model", "--task-index", "0", "--delta", "1"],
    ], ids=["analyze", "simulate", "dump-model"])
    def test_non_utf8_file_exit_2(self, tmp_path, capsys, argv):
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(one_task_doc()).encode() + b" \xff")
        assert run(argv[:1] + [str(path)] + argv[1:]) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("fields", [{"sweep": "x"}, {"points": []}],
                             ids=["sweep-kind", "points-empty"])
    def test_bad_spec_rejected(self, fields):
        with pytest.raises(ValidationError):
            ExperimentSpec(**fields)

    @pytest.mark.parametrize("argv", [
        ["generate", "--util", "1", "--procs", "2", "--out", "{missing}"],
        ["sweep", "--points", "1.0", "--sets", "1", "--out", "{directory}"],
        ["dump-model", "{taskset}", "--task-index", "0", "--delta", "1", "--out", "{missing}"],
        ["simulate", "{taskset}", "--trace-out", "{missing}"],
    ], ids=["generate", "sweep", "dump-model", "simulate"])
    def test_unwritable_output_exit_2(self, tmp_path, capsys, argv):
        taskset = tmp_path / "ts.json"
        taskset.write_text(json.dumps(one_task_doc()))
        paths = {"missing": tmp_path / "missing" / "out", "directory": tmp_path,
                 "taskset": taskset}
        assert run([token.format(**paths) for token in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "cannot write" in captured.err

    def test_analyze_negative_procs_exit_2(self, tmp_path, capsys):
        path = tmp_path / "ts.json"
        path.write_text(json.dumps(one_task_doc()))
        assert run(["analyze", str(path), "--procs", "-1"]) == 2

    def test_simulate_empty_task_list_exit_2(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"tasks": [], "processors": 2}))
        assert run(["simulate", str(path)]) == 2
        assert "task set is empty" in capsys.readouterr().err

    def test_simulate_negative_seed_exit_2(self, tmp_path, capsys):
        path = tmp_path / "ts.json"
        path.write_text(json.dumps(one_task_doc()))
        assert run(["simulate", str(path), "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err


class TestDumpModel:
    def _write_set(self, tmp_path):
        path = tmp_path / "ts.json"
        run(["generate", "--util", "1.0", "--procs", "4", "--seed", "3",
             "--out", str(path)])
        return path

    def test_delta_zero_model(self, tmp_path, capsys):
        path = self._write_set(tmp_path)
        assert run(["dump-model", str(path), "--task-index", "0",
                    "--delta", "0"]) == 0
        text = capsys.readouterr().out
        assert "Maximize" in text and "delta_co=0" in text

    def test_single_vertex_model_variables(self, tmp_path, capsys):
        doc = {"tasks": [{"period": 10, "deadline": 10,
                          "vertices": [{"wcet": 5}], "edges": []}],
               "processors": 1}
        path = tmp_path / "one.json"
        path.write_text(json.dumps(doc))
        assert run(["dump-model", str(path), "--task-index", "0",
                    "--delta", "3"]) == 0
        text = capsys.readouterr().out
        for var in ("X0", "W0", "S0", "M0", "A0"):
            assert var in text

    def test_path_enumerated_model_of_a_long_chain(self, tmp_path):
        # a chain longer than the interpreter's recursion limit: one
        # distance row per non-source vertex, over all its predecessors
        n = 1100
        doc = {"tasks": [{"period": n, "deadline": n, "vertices": [{"wcet": 1}] * n,
                          "edges": [[v, v + 1] for v in range(n - 1)]}],
               "processors": 1}
        path, out = tmp_path / "chain.json", tmp_path / "chain.lp"
        path.write_text(json.dumps(doc))
        assert run(["dump-model", str(path), "--task-index", "0", "--delta", "3",
                    "--formulation", "path-enumerated", "--out", str(out)]) == 0
        rows = [line.split() for line in out.read_text().splitlines()
                if line.startswith(" dist_")]
        assert [row[0] for row in rows] == [f"dist_{a}_0:" for a in range(1, n)]
        last = rows[-1]
        assert last[1:3] + last[-2:] == ["1", f"S{n - 1}", ">=", "0"]
        assert sorted(last[3:-2]) == sorted(["-", "1"] * (n - 1) + [f"X{b}" for b in range(n - 1)])

    def test_model_values_beyond_int64(self, tmp_path, capsys):
        # the model is exact at any size: the big-M right-hand side
        # delta + span is 2^63 + 2^62 here
        doc = {"tasks": [{"period": 2**62, "deadline": 2**62,
                          "vertices": [{"wcet": 2**61}, {"wcet": 2**61}], "edges": [[0, 1]]}],
               "processors": 1}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert run(["dump-model", str(path), "--task-index", "0",
                    "--delta", str(2**63)]) == 0
        assert f"<= {2**63 + 2**62}\n" in capsys.readouterr().out

    def test_bad_index_exit_2(self, tmp_path, capsys):
        path = self._write_set(tmp_path)
        assert run(["dump-model", str(path), "--task-index", "99",
                    "--delta", "1"]) == 2

    def test_negative_delta_exit_2(self, tmp_path, capsys):
        path = self._write_set(tmp_path)
        assert run(["dump-model", str(path), "--task-index", "0",
                    "--delta", "-1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_mps_format(self, tmp_path):
        path = self._write_set(tmp_path)
        out = tmp_path / "model.mps"
        assert run(["dump-model", str(path), "--task-index", "0",
                    "--delta", "2", "--format", "mps", "--out", str(out)]) == 0
        assert out.read_text().startswith("NAME")

    def test_mps_fields_separated_for_long_names(self, tmp_path, capsys):
        # fork-join over 12 vertices: names such as prec_10_11 and c8a_10
        # fill the 10-character name field and must not fuse with the next
        doc = one_task_doc(vertices=[{"wcet": 2}] * 12,
                           edges=[[0, v] for v in range(1, 11)]
                           + [[v, 11] for v in range(1, 11)])
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        assert run(["dump-model", str(path), "--task-index", "0",
                    "--delta", "3", "--format", "mps"]) == 0
        text = capsys.readouterr().out
        assert "prec_10_11" in text
        section = None
        checked = 0
        for line in text.splitlines():
            fields = line.split()
            if not line.startswith(" "):
                section = fields[0]
            elif section in ("COLUMNS", "RHS"):
                assert len(fields) == 3, line
                checked += 1
            elif section == "BOUNDS":
                assert len(fields) == (3 if fields[0] == "BV" else 4), line
                checked += 1
        assert checked > 100


class TestSweep:
    def spec(self, **kw):
        base = dict(points=[1.0, 2.0], sets_per_point=6, seed=4,
                    n_range=(3, 6), zero_timing=True)
        base.update(kw)
        return ExperimentSpec(**base)

    def test_csv_schema(self):
        lines = run_experiment(self.spec())
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 2  # two points x two methods
        for line in lines[1:]:
            point, method, ratio, n, warn, ms = line.split(",")
            assert method in ("ilp", "melani")
            assert 0.0 <= float(ratio) <= 1.0
            assert int(n) == 6 and int(warn) == 0

    def test_determinism_byte_identical(self):
        a = "\n".join(run_experiment(self.spec()))
        b = "\n".join(run_experiment(self.spec()))
        assert a == b

    def test_dominance_checker(self):
        lines = run_experiment(self.spec())
        assert check_dominance(lines)
        assert not check_dominance([CSV_HEADER, "1.0,ilp,0.40,5,0,0",
                                    "1.0,melani,0.60,5,0,0"])

    def test_cli_dominance_failure_exit_1(self, monkeypatch, capsys):
        lines = [CSV_HEADER, "1.0,ilp,0.400000,5,0,0.000", "1.0,melani,0.600000,5,0,0.000"]
        monkeypatch.setattr(cli, "run_experiment", lambda spec: lines)
        assert run(["sweep", "--zero-timing", "--check-dominance"]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines() == lines
        assert captured.err == "dominance check failed: a melani row beats its ilp row\n"

    def test_processor_sweep(self):
        # whole processor counts may be written as floats
        lines = run_experiment(self.spec(sweep="procs", points=[2.0, 4],
                                          norm_util=0.4))
        assert len(lines) == 5

    def test_cli_sweep_to_file(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--points", "1.0", "--sets", "4", "--seed", "2",
                    "--zero-timing", "--check-dominance", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith(CSV_HEADER)

    @pytest.mark.parametrize("methods", [("ilp",), ("melani",), ("ilp", "melani"),
                                         ("melani", "ilp")])
    @pytest.mark.parametrize("grid", [
        dict(points=[1.0, 3.0, 5.0, 7.0], processors=8),
        dict(sweep="procs", points=[2, 4, 8], norm_util=0.6),
    ], ids=["util", "procs"])
    def test_matches_full_generation(self, monkeypatch, methods, grid):
        """Cutting a doomed set changes no CSV byte; `cli.gen_taskset` is
        called once per set, through the module, with `stop` as a keyword."""
        spec = self.spec(methods=methods, sets_per_point=8, n_range=(3, 8), **grid)
        results = []

        def counted(*args, **kwargs):
            assert set(kwargs) == {"stop"}
            results.append(gen_taskset(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "gen_taskset", counted)
        assert run_experiment(spec) == reference_run_experiment(spec)
        assert len(results) == len(spec.points) * spec.sets_per_point
        assert 0 < results.count(None) < len(results)

    def test_spec_from_json(self, tmp_path, capsys):
        cfgfile = tmp_path / "spec.json"
        cfgfile.write_text(json.dumps({
            "points": [1.0], "sets_per_point": 3, "seed": 9,
            "n_range": [3, 5], "zero_timing": True}))
        assert run(["sweep", "--config", str(cfgfile)]) == 0
        spec = ExperimentSpec(points=[1.0], sets_per_point=3, seed=9, n_range=(3, 5),
                              zero_timing=True)
        lines = capsys.readouterr().out.splitlines()
        assert lines == run_experiment(spec) and len(lines) == 3

    @pytest.mark.parametrize("flags, merged", [
        (["--sets", "2", "--seed", "4"], dict(sets_per_point=2, seed=4)),
        (["--methods", "melani", "--n-range", "2", "4", "--zero-timing"],
         dict(methods=("melani",), n_range=(2, 4))),
        # --paper-scale sits below the config: its n_range loses, its 500 sets stay
        (["--paper-scale"], dict(sets_per_point=500)),
    ], ids=["sets-seed", "methods-n-range", "paper-scale"])
    def test_flags_override_config(self, tmp_path, capsys, flags, merged):
        """Defaults < --paper-scale < --config < the flags given."""
        cfgfile = tmp_path / "spec.json"
        cfgfile.write_text(json.dumps({
            "points": [1.0, 2.0], "processors": 4, "seed": 9, "n_range": [3, 5],
            "zero_timing": True}))
        assert run(["sweep", "--config", str(cfgfile), *flags]) == 0
        spec = ExperimentSpec(**{**dict(points=[1.0, 2.0], processors=4, seed=9,
                                        n_range=(3, 5), zero_timing=True), **merged})
        assert capsys.readouterr().out.splitlines() == run_experiment(spec)


class TestSimulateCommand:
    def test_trace_dump(self, tmp_path, capsys):
        path = tmp_path / "ts.json"
        run(["generate", "--util", "1.5", "--procs", "2", "--seed", "8",
             "--out", str(path)])
        trace = tmp_path / "trace.jsonl"
        assert run(["simulate", str(path), "--seed", "1",
                    "--trace-out", str(trace)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["jobs"] >= 1
        lines = trace.read_text().strip().splitlines()
        seg = json.loads(lines[0])
        assert {"proc", "task", "job", "subtask", "start", "end"} <= set(seg)
