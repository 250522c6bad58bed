"""Derandomized fuzz of the command line with malformed arguments.

Every case must end in exit 0 or, for malformed input, exit 2 (argparse's
usage error or a `ValidationError`), never in a traceback.  Vertex counts
are drawn only from values up to 60 or from 2^62 up, which numpy refuses
before it allocates anything.
"""

import contextlib
import io
import json

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dagsched import cli

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
