"""Derandomized fuzz of the command line with malformed arguments.

Every case must end in exit 0, 1 for an unschedulable set or, for
malformed input, exit 2 (argparse's usage error or a `ValidationError`),
never in a traceback.  Vertex counts are drawn only from values up to 60 or
from 2^62 up, which `GenConfig` refuses (above `taskgen.MAX_VERTICES`)
before any draw; integers in a task set only up to 10^4 or from 2^62 up,
since the analysis tables grow with the span.  A simulation's horizon and periods stay at most 10^4, as
its releases grow with their ratio.

The arguments of `schedulability_test`, `simulate`, `build_model`,
`gen_taskset` and `asap_start_times` are fuzzed in-process: each case gives
the result of its canonical form or raises `ValidationError` or
`SimulationError`.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dagsched import carryout, cli, rta, sim
from dagsched.dag import (
    Dag, asap_start_times, normalize_source_sink, taskset_from_dict, taskset_to_dict,
)
from dagsched.errors import SimulationError, ValidationError, is_number
from dagsched.taskgen import GenConfig, gen_taskset

# malformed values of any flag: wrong types, NaN, infinities, subnormals,
# negatives and integers past int64 and uint64
MALFORMED = ["abc", "", "True", "0x10", "1.5", "nan", "NaN", "inf", "-inf", "1e-320",
             "5e-324", "-1", "-0.0", "0", "9223372036854775808", "18446744073709551616",
             "99999999999999999999"]
HUGE = [2**62, 2**62 + 1, 2**63 - 1, 2**63, 2**64, 10**20]


def value(*valid):
    return st.sampled_from([str(v) for v in valid] + MALFORMED).map(lambda token: [token])


def range_pair(small):
    """LO HI from one class only, both small or both huge, so that no draw
    lands between them; or a small end and a malformed one."""
    huge, bad = st.sampled_from(HUGE), st.sampled_from(MALFORMED)
    pairs = st.one_of(st.tuples(small, small), st.tuples(huge, huge),
                      st.tuples(small, bad), st.tuples(bad, small))
    return pairs.map(lambda pair: list(map(str, pair)))


FLAGS = {
    "--util": value(0.5, 1, 2.5, 4, 1e-300, 1e300),
    "--procs": value(1, 2, 4, 2**63 - 1, 2**64),
    "--n-range": range_pair(st.integers(1, 60)),
    "--wcet-range": range_pair(st.integers(1, 100)),
    "--edge-prob": value(0, 0.2, 1, 1e-300),
    "--beta": value(0.1, 0.5, 1, 1e-300),
    "--seed": value(0, 7, 2**64),
}


def as_number(text, kind):
    try:
        return kind(text)
    except ValueError:
        return None


@st.composite
def generate_argv(draw):
    """`generate --util 1 --procs 4` with one to four flags mutated."""
    args = {"--util": ["1"], "--procs": ["4"]}
    for flag in draw(st.lists(st.sampled_from(sorted(FLAGS)), min_size=1, max_size=4,
                              unique=True)):
        args[flag] = draw(FLAGS[flag])
    # a large utilization on as many processors is valid input that asks
    # for a set of that many tasks: a long run, not a malformed case
    util, procs = as_number(args["--util"][0], float), as_number(args["--procs"][0], int)
    assume(util is None or procs is None or not 8 < util <= procs)
    return ["generate"] + [token for flag, tokens in args.items() for token in (flag, *tokens)]


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses a flag's type
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(generate_argv())
def test_generate_exits_0_or_2_without_a_traceback(argv):
    code, out, err = run_main(argv)
    assert "Traceback" not in err
    assert code in (0, 2), (code, err)
    if code == 0:
        assert json.loads(out)["tasks"]
    else:
        assert out == "" and ("error" in err or "usage" in err)


# a valid set of two tasks on two processors; its second task's bound is
# 15 under ilp and 17 under melani, so small changes flip either verdict
TASK_SET = {
    "tasks": [
        {"period": 12, "deadline": 10, "vertices": [{"wcet": 3}, {"wcet": 5}, {"wcet": 2}],
         "edges": [[0, 1], [0, 2]]},
        {"period": 20, "deadline": 16, "vertices": [{"wcet": 7}], "edges": []},
    ],
    "processors": 2,
}


def places(node, path=()):
    """The key path and value of every value in a JSON document, the
    root's included."""
    yield path, node
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from places(child, path + (key,))


INTEGERS = st.one_of(st.integers(-10**4, 10**4), st.integers(2**62, 2**64 + 1),
                     st.integers(-2**64, -2**62))
NON_INTEGERS = st.one_of(
    st.booleans(), st.floats(), st.sampled_from([2.0, -1.0, 0.5, 1e300]), st.text(max_size=3),
    st.none(), st.sampled_from([[], {}]), st.lists(st.integers(0, 3), max_size=3),
    st.dictionaries(st.sampled_from(["wcet", "period", "x"]), st.integers(0, 9), max_size=2))


def mutated(draw, base, value):
    """A copy of the JSON document `base` with one value replaced by
    `value(draw, old)`, deleted or given an unknown key beside it (of value
    `value(draw, None)`), or unchanged.  A document with no value below its
    root cannot lose one, and one with no object cannot gain a key."""
    doc = copy.deepcopy(base)
    paths = [path for path, _ in places(base)]
    objects = [path for path, node in places(base) if isinstance(node, dict)]
    targets = {"replace": paths, "delete": paths[1:], "unknown-key": objects}
    kind = draw(st.sampled_from(["none"] + [kind for kind in targets if targets[kind]]))
    if kind == "none":
        return doc
    path = draw(st.sampled_from(targets[kind]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "delete":
        del parent[path[-1]]
        return doc
    node = parent[path[-1]] if path else doc
    if kind == "unknown-key":
        node["unknown"] = value(draw, None)
        return doc
    new = value(draw, node)
    if path:
        parent[path[-1]] = new
        return doc
    return new


def holds_a_non_integer(doc):
    """Whether some place of `TASK_SET` that holds an integer is still in
    `doc`, along the same keys and list positions, and holds a non-integer
    there."""
    for path, old in places(TASK_SET):
        node = doc
        for key in path:
            if not (isinstance(node, dict) and key in node
                    or isinstance(node, list) and type(key) is int and key < len(node)):
                break
            node = node[key]
        else:
            if type(old) is int and type(node) is not int:
                return True
    return False


@st.composite
def documents(draw):
    """`TASK_SET` mutated twice (see `mutated`); and whether a non-integer
    stands in for one of its integers."""
    # an integer slot takes a non-integer in at least half of its draws
    doc = TASK_SET
    for _ in range(2):
        doc = mutated(draw, doc, lambda draw, old: draw(
            NON_INTEGERS if type(old) is int and draw(st.booleans())
            else INTEGERS | NON_INTEGERS))
    return doc, holds_a_non_integer(doc)


def flag_tokens(draw, flags):
    """One to all of `flags` (flag -> tokens), each given one drawn token."""
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), min_size=1, max_size=len(flags),
                           unique=True))
    return [token for flag in chosen for token in (flag, draw(st.sampled_from(flags[flag])))]


# no token names a horizon above 10^4 or a period from 2^62 up: both are
# valid input that asks for that many releases, a long run rather than a
# malformed case
SMALL_TOKENS = [t for t in MALFORMED if as_number(t, int) is None or as_number(t, int) <= 10**4]
ANALYZE_FLAGS = {
    "--procs": MALFORMED + ["1", "2", "4", "10000", str(2**62)],
    "--method": ["ilp", "melani", "ILP", "", "foo"],
}
SIMULATE_FLAGS = {
    "--horizon": ["0", "20", "60", "1000", "10000"] + SMALL_TOKENS,
    "--seed": ["0", "3", str(2**64), str(2**200)] + MALFORMED,
    "--release": ["periodic", "sporadic", "Periodic", "", "bursty"],
    "--exec-policy": ["wcet", "random", "WCET", "", "max"],
}
DUMP_MODEL_FLAGS = {
    "--task-index": ["0", "1", "2", str(2**64)] + MALFORMED,
    "--delta": ["0", "5", "8", "100", str(2**62), str(2**63 - 1)] + MALFORMED,
    "--format": ["lp", "mps", "LP", "", "json"],
    "--formulation": ["edge-recursive", "path-enumerated", "paths", ""],
}


def period_is_huge(doc):
    tasks = doc.get("tasks") if isinstance(doc, dict) else None
    return isinstance(tasks, list) and any(
        isinstance(t, dict) and type(t.get("period")) is int and t["period"] > 10**4
        for t in tasks)


@st.composite
def simulate_argv(draw):
    """`simulate` of `TASK_SET` with its document mutated twice, one to all
    of its flags mutated, or both; and whether a non-integer stands in for
    an integer of the document."""
    doc, non_integer = draw(documents())
    assume(not period_is_huge(doc))
    flags = flag_tokens(draw, SIMULATE_FLAGS) if draw(st.booleans()) else []
    return doc, flags, non_integer


@st.composite
def dump_model_argv(draw):
    """`dump-model --task-index 0 --delta 5` of `TASK_SET` with its document
    mutated twice, one to all of its flags mutated, or both."""
    doc, non_integer = draw(documents())
    flags = ["--task-index", "0", "--delta", "5"]
    if draw(st.booleans()):
        flags += flag_tokens(draw, DUMP_MODEL_FLAGS)  # argparse keeps the last value
    return doc, flags, non_integer


def run_on_document(command, case, codes):
    """Run `command` on the case's document and flags; check that it exits
    with one of `codes`, 2 (with nothing on stdout) wherever a non-integer
    stands in for an integer, and never with a traceback.  Returns the
    exit code and stdout."""
    doc, flags, non_integer = case
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "ts.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code, out, err = run_main([command, path, *flags])
    assert "Traceback" not in err
    assert code in codes, (code, err)
    if non_integer:
        assert code == 2, (doc, flags, out)
    if code == 2:
        assert out == "" and ("error" in err or "usage" in err)
    return code, out


@st.composite
def analyze_argv(draw):
    """`analyze` of `TASK_SET` with its document mutated twice, one or both
    of its flags mutated, or both; and whether a non-integer stands in for
    an integer."""
    doc, non_integer = draw(documents())
    flags = flag_tokens(draw, ANALYZE_FLAGS) if draw(st.booleans()) else []
    procs = flags[flags.index("--procs") + 1] if "--procs" in flags else "0"
    return doc, flags, non_integer or as_number(procs, int) is None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(analyze_argv())
def test_analyze_exits_0_1_or_2_without_a_traceback(case):
    code, out = run_on_document("analyze", case, (0, 1, 2))
    if code != 2:
        assert json.loads(out)["verdict"] == ("schedulable" if code == 0 else "unschedulable")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(simulate_argv())
def test_simulate_exits_0_or_2_without_a_traceback(case):
    code, out = run_on_document("simulate", case, (0, 2))
    if code == 0:
        report = json.loads(out)
        assert report["completed"] == report["jobs"] > 0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(dump_model_argv())
def test_dump_model_exits_0_or_2_without_a_traceback(case):
    code, out = run_on_document("dump-model", case, (0, 2))
    if code == 0:
        assert out.startswith(("\\", "NAME")), out[:80]


# `sweep` reads its settings from a `--config` object, then from its flags;
# every case passes `--sets` at most 2, so that no valid case runs long
SWEEP_CONFIG = {
    "sweep": "util", "points": [1.0, 2.0], "processors": 4, "norm_util": 0.5,
    "sets_per_point": 1, "methods": ["ilp", "melani"], "n_range": [3, 5],
    "wcet_range": [1, 9], "edge_prob": 0.2, "beta": 0.1, "seed": 1, "zero_timing": True,
}
CONFIG_VALUES = st.one_of(
    st.integers(-3, 16), st.sampled_from(HUGE), st.booleans(), st.floats(-2, 16),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e300, 5e-324, -0.0]),
    st.text(max_size=3), st.none(), st.sampled_from([[], {}, ["ilp"], ["ilp", "ilp"], [1, 2]]),
    st.lists(st.integers(0, 3), max_size=3))


def mostly(valid, malformed):
    """Tokens of which about two in three are valid, so that a case with
    several flags is often valid as a whole."""
    return valid * -(-2 * len(malformed) // len(valid)) + malformed


SWEEP_FLAGS = {
    "--procs": mostly(["1", "2", "4", "16", str(2**63 - 1), str(2**64)], MALFORMED),
    "--sweep": mostly(["util", "procs"], ["Util", ""]),
    "--norm-util": mostly(["0.25", "0.5", "1", "1.5"], MALFORMED),
    "--methods": mostly(["ilp", "melani", "ilp,melani", "melani,ilp"], ["ilp,ilp", "", "foo"]),
}
SETS = mostly(["1", "2"], [t for t in MALFORMED if as_number(t, int) is None
                           or as_number(t, int) <= 2])
POINTS = mostly(["1", "2", "2.5", "4", "8", "16", "1e-300"], MALFORMED)


def is_long_point(point):
    """Whether a grid point could ask for a set of more than 16 units of
    utilization: valid input, but a long run rather than a malformed case
    (a processor sweep fits norm_util * point of it)."""
    return is_number(point) and 16 < point < float("inf")


@st.composite
def sweep_argv(draw):
    """The arguments of `sweep --sets N` (N at most 2) with some of its
    other flags mutated or added (`--procs`, `--sweep`, `--norm-util`,
    `--methods`, `--points`, `--n-range`, `--paper-scale` and
    `--check-dominance`), and a `--config` object mutated once (see
    `mutated`) or None."""
    argv = ["sweep", "--sets", draw(st.sampled_from(SETS))]
    if draw(st.booleans()):
        argv += flag_tokens(draw, SWEEP_FLAGS)
    points = []
    if draw(st.booleans()):
        tokens = draw(st.lists(st.sampled_from(POINTS), min_size=1, max_size=3))
        argv += ["--points", *tokens]
        points = [as_number(token, float) for token in tokens]
    if draw(st.booleans()):
        argv += ["--n-range", *draw(range_pair(st.integers(1, 60)))]
    argv += [flag for flag in ("--paper-scale", "--check-dominance") if draw(st.booleans())]
    config = None
    if draw(st.booleans()):
        config = mutated(draw, SWEEP_CONFIG, lambda draw, old: draw(CONFIG_VALUES))
    if isinstance(config, dict) and isinstance(config.get("points"), list):
        points += config["points"]
    assume(not any(map(is_long_point, points)))
    return argv, config


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sweep_argv())
def test_sweep_exits_0_1_or_2_without_a_traceback(case):
    argv, config = case
    with tempfile.TemporaryDirectory() as folder:
        if config is not None:
            path = os.path.join(folder, "config.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            argv = argv + ["--config", path]
        code, out, err = run_main(argv)
    assert "Traceback" not in err
    assert code in ((0, 1, 2) if "--check-dominance" in argv else (0, 2)), (code, err)
    if code == 2:
        assert out == "" and ("error" in err or "usage" in err)
    else:
        assert out.startswith(cli.CSV_HEADER + "\n"), out[:80]


# --------------------------------------------------------------------------
# The arguments of the library calls.  Each slot draws (value, canonical
# value, whether the value's type is accepted): an integer as a Python or
# numpy integer stands for the Python int, a utilization as any real number
# for its float.  A case gives the same result as its canonical form, types
# included (compared by repr), or raises ValidationError or
# SimulationError; a value of a refused type must raise.

class FreshRng:
    """A slot value that stands for a new `default_rng(11)` in each call."""

    def __call__(self):
        return np.random.default_rng(11)

    def __repr__(self):
        return "FreshRng()"


INT_KINDS = [int, np.int64, np.int32, np.uint64, np.int16]
NOT_INTEGERS = [True, False, 2.0, np.float64(2.0), "2", None, [2], Fraction(2), float("nan")]


def integer_slot(*valid, bad=(-1, 0, 2**64), refused=NOT_INTEGERS):
    """One of `valid` in each integer kind that holds it, one of `bad` or
    one of the non-integers `refused`."""
    forms = [(kind(v), v, True) for v in valid for kind in INT_KINDS
             if kind is int or np.iinfo(kind).min <= v <= np.iinfo(kind).max]
    return st.sampled_from(forms + [(v, v, True) for v in bad]
                           + [(v, v, False) for v in refused])


def fixed(*cases):
    """Slot values given as (value, canonical value, accepted type)."""
    return st.sampled_from(cases)


def same(*values, accepted=True):
    return [(v, v, accepted) for v in values]


def real(value):
    return value() if isinstance(value, FreshRng) else value


def check_slots(call, slots):
    """Run `call` on the slots' values and on their canonical values."""
    kwargs = {name: real(value) for name, (value, _, _) in slots.items()}
    canonical = {name: real(value) for name, (_, value, _) in slots.items()}
    try:
        want = repr(call(**canonical))
    except (ValidationError, SimulationError):
        want = None
    try:
        got = repr(call(**kwargs))
    except (ValidationError, SimulationError):
        return
    assert all(ok for _, _, ok in slots.values()), slots
    assert got == want, slots


SET = taskset_from_dict(TASK_SET)  # periods 12 and 20; vertex WCETs 3, 5, 2 and 7


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.fixed_dictionaries({
    "method": fixed(*same("ilp", "melani", "ILP", ""), *same(None, 1, ("ilp",), accepted=False)),
    "m": st.one_of(integer_slot(1, 2, 4, 2**62, refused=[v for v in NOT_INTEGERS if v is not None]),
                   fixed((None, None, True))),
}))
def test_schedulability_test_arguments(slots):
    def call(**kwargs):
        report = rta.schedulability_test(SET, **kwargs)
        return (report.method, report.processors, report.bounds, report.iterations,
                report.failed_at)
    check_slots(call, slots)


@st.composite
def release_slot(draw):
    """A policy name, or scripted releases with integer slots as keys and
    times (task 0's period is 12, task 1's is 20)."""
    if draw(st.booleans()):
        return draw(fixed(*same("periodic", "sporadic", "bursty"), *same(None, 1, accepted=False)))
    policy, canonical, ok = {}, {}, True
    for idx, times in ((0, (0, 12, 24)), (1, (0, 20))):
        key, ckey, key_ok = draw(integer_slot(idx, bad=(), refused=(True, 0.0, "0", None)))
        picked = [draw(integer_slot(t, bad=(-1, 45))) for t in times if draw(st.booleans())]
        policy[key] = [value for value, _, _ in picked]
        canonical[ckey] = [value for _, value, _ in picked]
        ok = ok and key_ok and all(accepted for _, _, accepted in picked)
    return policy, canonical, ok


@st.composite
def exec_slot(draw):
    """A policy name, or task 0's first job scripted with integer slots."""
    if draw(st.booleans()):
        return draw(fixed(*same("wcet", "random", "max"), *same(None, accepted=False)))
    picked = [draw(integer_slot(0, 1, 2, bad=(-1, 9))) for _ in range(3)]
    return ({(0, 0): tuple(value for value, _, _ in picked)},
            {(0, 0): tuple(value for _, value, _ in picked)},
            all(accepted for _, _, accepted in picked))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.fixed_dictionaries({
    "m": integer_slot(1, 2, 3),
    "horizon": integer_slot(20, 45, bad=(-1, 19)),
    "release_policy": release_slot(),
    "exec_policy": exec_slot(),
    "rng": fixed(*same(None, FreshRng()), *same(3, "x", np.random.RandomState(0),
                                                  accepted=False)),
}))
def test_simulate_arguments(slots):
    def call(**kwargs):
        res = sim.simulate(SET, **kwargs)
        return (res.processors, res.horizon, res.segments,
                [(j.task_index, j.job_index, j.release, j.exec_times, j.subtask_ready,
                  j.subtask_completion, j.completion) for j in res.jobs])
    check_slots(call, slots)


MODEL_DAG = normalize_source_sink(Dag([3, 5, 2], [(0, 1), (0, 2)]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.fixed_dictionaries({
    "delta_co": integer_slot(0, 1, 5, 8, 2**62),
    "formulation": fixed(*same("edge-recursive", "path-enumerated", "paths", ""),
                         *same(None, 1, accepted=False)),
}))
def test_build_model_arguments(slots):
    def call(**kwargs):
        model = carryout.build_model(MODEL_DAG, **kwargs)
        return model.delta_co, model.rows, model.geq, model.rhs, model.ub
    check_slots(call, slots)


REAL_KINDS = [float, np.float64, np.float32, np.float16, Fraction]
CONFIG = GenConfig(seed=3)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.fixed_dictionaries({
    "total_util": st.one_of(
        st.builds(lambda v, kind: (kind(v), float(kind(v)), True),
                  st.sampled_from([0.3, 1, 2.5]), st.sampled_from(REAL_KINDS)),
        st.sampled_from([(v, float(v), True) for v in (2, np.int64(2), np.uint8(1))]),
        fixed(*same(float("nan"), float("inf"), 0, -1.0, 1e300, 10**400, 1e-320),
              *same(True, "2", None, [2.5], accepted=False))),
    "m": integer_slot(2, 4, 2**63),
    "config": fixed((CONFIG, CONFIG, True), (cli.ExperimentSpec(seed=3), CONFIG, True),
                    *same({"seed": 3}, None, 1, accepted=False)),
    "rng": fixed(*same(None, FreshRng()), *same(3, "x", accepted=False)),
    "stop": fixed((None, None, True), (lambda task: False, None, True),
                  *same(1, "x", accepted=False)),
}))
def test_gen_taskset_arguments(slots):
    check_slots(lambda **kwargs: taskset_to_dict(gen_taskset(**kwargs)), slots)


ASAP_DAG = Dag([3, 5, 2], [(0, 1), (0, 2)])


@st.composite
def exec_times_slot(draw):
    """Three integer slots in a tuple, list, iterator or int64 array, or a
    value that holds no times."""
    if draw(st.integers(0, 4)) == 0:
        return draw(fixed(*same(None, 5, "abc", accepted=False), *same((1, 2), (1, 2, 2, 2))))
    picked = [draw(integer_slot(0, 1, 2, bad=(-1, 9))) for _ in range(3)]
    values = [value for value, _, _ in picked]
    canonical = tuple(value for _, value, _ in picked)
    ok = all(accepted for _, _, accepted in picked)
    kind = draw(st.sampled_from(["tuple", "list", "iter", "array"]))
    if kind == "array":
        if not ok or min(canonical) < 0 or max(canonical) >= 2**63:
            return values, canonical, ok
        values = np.array(canonical, dtype=np.int64)
    make = {"tuple": tuple, "list": list, "iter": iter, "array": lambda v: v}[kind]
    return make(values), canonical, ok


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.fixed_dictionaries({"exec_times": exec_times_slot()}))
def test_asap_start_times_arguments(slots):
    check_slots(lambda exec_times: asap_start_times(ASAP_DAG, exec_times), slots)


# what the suites above found, each pinned as a case: numpy integers
# leaked into results that hold Python ints, and a value that is not a
# Generator, a GenConfig, a callable or a sequence of times raised
# AttributeError or TypeError

def test_simulate_keeps_python_ints():
    res = sim.simulate(SET, np.int64(2), np.int64(40),
                       release_policy={np.int64(0): [np.int64(12)], 1: [np.int32(0)]},
                       exec_policy={(0, 0): (np.int64(1), 0, np.uint8(2))})
    values = [res.processors, res.horizon, *(x for seg in res.segments for x in seg)]
    values += [x for job in res.jobs for x in (job.release, *job.exec_times, job.completion)]
    assert {type(x) for x in values} == {int}


@pytest.mark.parametrize("kwargs", [{"config": {"seed": 3}}, {"rng": 3}, {"stop": 1}],
                         ids=["config-dict", "rng-int", "stop-int"])
def test_gen_taskset_refuses_mistyped_arguments(kwargs):
    with pytest.raises(ValidationError) as err:
        gen_taskset(**{"total_util": 2.5, "m": 4, "config": CONFIG, **kwargs})
    assert err.value.rule == "config"


def test_gen_taskset_reads_the_utilization_as_a_float():
    # float16 arithmetic drew another set
    want = taskset_to_dict(gen_taskset(2.5, 4, CONFIG))
    for util in (np.float16(2.5), np.float32(2.5), Fraction(5, 2)):
        assert taskset_to_dict(gen_taskset(util, 4, CONFIG)) == want


def test_exec_times_read_once_as_python_ints():
    for make in (iter, np.array, lambda v: (np.int64(v[0]), *v[1:])):
        starts = asap_start_times(ASAP_DAG, make([1, 0, 2]))
        trimmed = carryout.trim_to_window(ASAP_DAG, make([1, 0, 2]), 2)
        assert (starts, trimmed) == ([0, 1, 1], [1, 0, 1])
        assert {type(x) for x in starts + trimmed} == {int}
