"""Derandomized fuzz of the command line with malformed arguments.

Every case must end in exit 0, 1 for an unschedulable set or, for
malformed input, exit 2 (argparse's usage error or a `ValidationError`),
never in a traceback.  Vertex counts are drawn only from values up to 60 or
from 2^62 up, which `GenConfig` refuses (above `taskgen.MAX_VERTICES`)
before any draw; integers in a task set only up to 10^4 or from 2^62 up,
since the analysis tables grow with the span.  A simulation's horizon and periods stay at most 10^4, as
its releases grow with their ratio.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dagsched import cli
from dagsched.errors import is_number

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
    `value(draw, None)`), or unchanged; and the (old, new) pair of a
    replaced value, else None."""
    doc = copy.deepcopy(base)
    kind = draw(st.sampled_from(["none", "replace", "delete", "unknown-key"]))
    if kind == "none":
        return doc, None
    paths = [path for path, _ in places(base)]
    objects = [path for path, node in places(base) if isinstance(node, dict)]
    path = draw(st.sampled_from({"replace": paths, "delete": paths[1:],
                                 "unknown-key": objects}[kind]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "delete":
        del parent[path[-1]]
        return doc, None
    node = parent[path[-1]] if path else doc
    if kind == "unknown-key":
        node["unknown"] = value(draw, None)
        return doc, None
    new = value(draw, node)
    if path:
        parent[path[-1]] = new
    else:
        doc = new
    return doc, (node, new)


@st.composite
def documents(draw):
    """`TASK_SET` mutated once (see `mutated`); and whether a non-integer
    stands in for an integer."""
    # an integer slot takes a non-integer in at least half of its draws
    doc, replaced = mutated(draw, TASK_SET, lambda draw, old: draw(
        NON_INTEGERS if type(old) is int and draw(st.booleans()) else INTEGERS | NON_INTEGERS))
    return doc, replaced is not None and type(replaced[0]) is int and type(replaced[1]) is not int


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
    """`simulate` of `TASK_SET` with one document value mutated, one to all
    of its flags mutated, or both; and whether a non-integer stands in for
    an integer of the document."""
    doc, non_integer = draw(documents())
    assume(not period_is_huge(doc))
    flags = flag_tokens(draw, SIMULATE_FLAGS) if draw(st.booleans()) else []
    return doc, flags, non_integer


@st.composite
def dump_model_argv(draw):
    """`dump-model --task-index 0 --delta 5` of `TASK_SET` with one document
    value mutated, one to all of its flags mutated, or both."""
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
    """`analyze` of `TASK_SET` with one document value mutated, one or both
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
        config, _ = mutated(draw, SWEEP_CONFIG, lambda draw, old: draw(CONFIG_VALUES))
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
