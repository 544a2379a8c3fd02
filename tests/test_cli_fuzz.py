"""Fuzz test of the command line: drawn argv ends in a documented exit code.

Hypothesis draws argv lists from the CLI grammar: lattice expressions from
valid and invalid tokens with integers of up to 5000 digits, ``--edge``
strings from the 75 vertex names and outside them, ``--matrix`` JSON of
random shape, nesting and entry type, ``--norm`` values and ``ramified
euler`` integers. Each case runs ``cli.main`` in process with stdout and
stderr captured. No exception may escape but argparse's exit 2, the exit
code must be 0, 2 or 3 (1 only for ``atlas verify``), and every case must
end within a wall budget.
"""

import contextlib
import io
import json
import time

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from realcubic import cli
from realcubic.atlas import vertex_ids

# per-case wall budget, above the slowest admitted input known,
# `lattice roots "<1>" --norm 1000000000000` (about 4 s)
BUDGET_S = 5.0
NAMES = [str(v) for v in vertex_ids()]


@st.composite
def numbers(draw) -> str:
    """A decimal integer of up to 5000 digits, signed or not, most short,
    some at the interpreter's 4300-digit limit for int-to-str conversion."""
    digits = draw(st.one_of(st.integers(1, 3), st.integers(1, 5000),
                            st.sampled_from((4300, 4301))))
    body = "".join(draw(st.lists(st.sampled_from("0123456789"),
                                 min_size=1, max_size=8)))
    sign = draw(st.sampled_from(("", "", "-", "+")))
    return sign + (body * digits)[:digits]


ATOMS = ("A1", "A2", "A16", "D4", "D9", "E6", "E7", "E8", "U", "<1>", "<-2>",
         "<6>", "E8(2)", "U(3)", "3*A1", "32*E8", "A255(3)", "256*<3>")
TOKENS = ("A", "D", "E", "U", "<", ">", "(", ")", "*", "+", "-", " ", "",
          "X", "**", "<<", "()", "é", "\x00", "1e3", "_", "8*", "E9", "D3",
          "A0", "<0>")


@st.composite
def expressions(draw) -> str:
    """Sums of m*X(s) terms, or strings of valid and invalid tokens."""
    def term():
        mult = draw(st.one_of(st.just(""), numbers().map(lambda n: n + "*")))
        atom = draw(st.sampled_from(ATOMS[:13]))
        return mult + atom + draw(st.one_of(st.just(""),
                                            numbers().map(lambda n: f"({n})")))
    if draw(st.booleans()):
        return "+".join(term() for _ in range(draw(st.integers(1, 4))))
    return "".join(draw(st.lists(st.one_of(
        st.sampled_from(ATOMS), st.sampled_from(TOKENS), numbers()),
        min_size=1, max_size=8)))


@st.composite
def edges(draw) -> str:
    name = st.one_of(st.sampled_from(NAMES), st.text(max_size=8),
                     st.builds("C{},{}".format, numbers(), numbers()))
    return draw(st.one_of(
        st.builds("{}:{}".format, name, name), name,
        st.builds("{}:{}:{}".format, name, name, name)))


# JSON integers of up to 4300 digits, the most json.dumps writes
ENTRIES = st.one_of(st.integers(-10 ** 7, 10 ** 7), st.booleans(), st.none(),
                    st.floats(), st.text(max_size=3),
                    st.integers(-10 ** 4300 + 1, 10 ** 4300 - 1))


@st.composite
def matrices(draw) -> str:
    """JSON of random shape: square integer matrices (some past the caps),
    nested lists of any entries, deep nesting, or not JSON at all."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        n = draw(st.integers(0, 40))
        bound = draw(st.sampled_from((3, 10 ** 6, 10 ** 7)))
        row = st.lists(st.integers(-bound, bound), min_size=n, max_size=n)
        return json.dumps(draw(st.lists(row, min_size=n, max_size=n)))
    if kind == 1:
        return json.dumps(draw(st.recursive(
            ENTRIES, lambda inner: st.lists(inner, max_size=5),
            max_leaves=30)))
    if kind == 2:
        depth = draw(st.integers(1, 20000))
        return "[" * depth + draw(st.sampled_from(("1", "", "[1]"))) + \
            "]" * draw(st.sampled_from((depth, depth - 1)))
    return draw(st.text(max_size=20))


FIXED = (["atlas", "build"], ["atlas", "build", "--graph", "k3"],
         ["atlas", "build", "--format", "dot"], ["atlas", "verify"],
         ["topology", "table", "--format", "json"], ["report", "spiral"],
         ["surgery", "spiral"], ["atlas"], ["lattice", "info"], [],
         ["cusp", "check"], ["nope"])


@st.composite
def argvs(draw) -> list[str]:
    kind = draw(st.sampled_from(("info", "roots", "cusp", "h1", "euler",
                                 "fixed")))
    if kind == "info":
        return ["lattice", "info", draw(expressions())]
    if kind == "roots":
        argv = ["lattice", "roots", draw(expressions())]
        if draw(st.booleans()):
            argv += ["--norm", draw(st.one_of(
                st.integers(-2, 8).map(str), numbers(), st.text(max_size=4)))]
        return argv
    if kind == "cusp":
        return ["cusp", "check", "--edge", draw(edges())]
    if kind == "h1":
        return ["surgery", "h1", "--matrix", draw(matrices())]
    if kind == "euler":
        argv = ["ramified", "euler"]
        for flag in ("--chiP", "--chiPplus", "--chiL"):
            argv += [flag, draw(numbers())]
        return argv
    return draw(st.sampled_from(FIXED))


def test_cli_exits_with_a_documented_code_within_budget():
    @settings(max_examples=200, derandomize=True, database=None,
              deadline=None, suppress_health_check=list(HealthCheck))
    @given(argvs())
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage error
                code = exc.code
                assert code == 2, argv
        elapsed = time.perf_counter() - start
        assert elapsed < BUDGET_S, (argv, elapsed)
        allowed = {0, 1, 2, 3} if argv[:2] == ["atlas", "verify"] \
            else {0, 2, 3}
        assert code in allowed, (argv, code, err.getvalue())
        assert code != 0 or err.getvalue() == "", argv

    check()
