import ast
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import realcubic.atlas
import realcubic.cli
import realcubic.topology
from realcubic.atlas import build_atlas, table_edges
from realcubic.cli import main
from realcubic.intmat import det
from realcubic.topology import verify


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_lattice_info(capsys):
    code, out, _ = run(capsys, "lattice", "info", "U+E8(2)")
    assert code == 0
    assert "rank: 10" in out
    assert "signature: (9, 1)" in out
    assert "two-part integer: yes" in out
    code, out, _ = run(capsys, "lattice", "info", "<6>")
    assert code == 0
    assert "discriminant group: Z/6" in out
    assert "two-part integer: no" in out


def test_lattice_parse_error(capsys):
    code, _, err = run(capsys, "lattice", "info", "D3+Q")
    assert code == 2 and "parse error" in err
    # str.isdigit accepts a superscript digit, int does not: still a parse
    # error, not a traceback
    code, out, err = run(capsys, "lattice", "info", "A\u00b2")
    assert code == 2 and out == ""
    assert "parse error" in err and "Traceback" not in err


def test_lattice_roots(capsys):
    code, out, _ = run(capsys, "lattice", "roots", "E8", "--norm", "2")
    assert code == 0
    assert json.loads(out)["count"] == 240
    code, _, err = run(capsys, "lattice", "roots", "U", "--norm", "2")
    assert code == 3 and "unsupported" in err


def _refuse_search(monkeypatch):
    def fail(g, norm):
        raise AssertionError("the short-vector search ran")
    monkeypatch.setattr(realcubic.lattices, "enumerate_norm_vectors", fail)


def test_lattice_roots_refuses_oversized_output(capsys, monkeypatch):
    # 32*2160 + 496*240^2 vectors of norm 4 in rank 256: about 7.3e9
    # coordinates, refused from the E8 theta series before the search
    _refuse_search(monkeypatch)
    code, out, err = run(capsys, "lattice", "roots", "32*E8", "--norm", "4")
    limit = realcubic.cli.MAX_ROOT_COORDS // 256
    assert code == 3 and out == ""
    assert err.strip() == (
        f"unsupported: more than {limit} vectors of norm 1 to 4 in rank 256 "
        f"(at most {realcubic.cli.MAX_ROOT_COORDS} coordinates)")


def test_lattice_roots_cap_boundary(capsys, monkeypatch):
    # E8 has 240 vectors of norm 1 to 2, so 240 * 8 coordinates
    monkeypatch.setattr(realcubic.cli, "MAX_ROOT_COORDS", 240 * 8)
    code, out, _ = run(capsys, "lattice", "roots", "E8", "--norm", "2")
    assert code == 0 and json.loads(out)["count"] == 240
    monkeypatch.setattr(realcubic.cli, "MAX_ROOT_COORDS", 240 * 8 - 1)
    _refuse_search(monkeypatch)
    code, out, err = run(capsys, "lattice", "roots", "E8", "--norm", "2")
    assert code == 3 and out == ""
    assert err.startswith("unsupported: more than 239 vectors of norm 1 to 2")


@pytest.mark.parametrize("argv", [
    ("info", "99999999999*A1"),
    ("info", "257*A1"),
    ("roots", "99999999999*A1", "--norm", "2"),
    ("roots", "32*E8+<1>", "--norm", "1"),
])
def test_lattice_rank_cap(capsys, argv):
    # checked on the parsed expression, before any Gram matrix is built
    code, out, err = run(capsys, "lattice", *argv)
    assert code == 3 and out == ""
    assert err.startswith("unsupported: rank ") and "exceeds 256" in err


@pytest.mark.parametrize("cmd", ["info", "roots"])
@pytest.mark.parametrize("expr, bits", [
    (f"A120({10 ** 50})", 120 * 167 + 7),
    (f"E8({10 ** 4000})", 8 * 13288 + 1),
    (f"A120({10 ** 200})", 120 * 665 + 7),
    ("A120(131072)", 120 * 18 + 7),
], ids=["A120(10^50)", "E8(10^4000)", "A120(10^200)", "A120(2^17)"])
def test_lattice_determinant_cap(capsys, monkeypatch, cmd, expr, bits):
    # bounded from the atoms, before any Gram matrix is built
    def fail(expr):
        raise AssertionError("the Gram matrix was built")
    monkeypatch.setattr(realcubic.lattices, "gram", fail)
    code, out, err = run(capsys, "lattice", cmd, expr)
    assert code == 3 and out == "" and "Traceback" not in err
    assert err == (f"unsupported: determinant of up to {bits} bits exceeds "
                   f"{realcubic.cli.MAX_DET_BITS} bits\n")


def test_lattice_determinant_cap_boundary(capsys):
    # 120 * 17 + 7 = 2047 bits, one under the cap
    code, out, _ = run(capsys, "lattice", "info", "A120(131071)")
    assert code == 0
    assert f"determinant: {121 * 131071 ** 120}\n" in out


def test_atlas_build_json(capsys):
    code, out, _ = run(capsys, "atlas", "build", "--graph", "k4",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 75


def test_atlas_build_dot(capsys):
    code, out, _ = run(capsys, "atlas", "build", "--graph", "k4",
                       "--format", "dot")
    assert code == 0
    assert out.count("[label=") == 75


def test_atlas_build_bad_graph():
    with pytest.raises(SystemExit) as exc:
        main(["atlas", "build", "--graph", "k5"])
    assert exc.value.code == 2


def test_cusp_check(capsys):
    code, out, _ = run(capsys, "cusp", "check", "--edge", "C0,0:C0,1")
    assert code == 0
    assert json.loads(out)["verdict"] == "Yes"
    code, out, _ = run(capsys, "cusp", "check", "--edge", "C10,0:C10,1")
    assert code == 0
    assert json.loads(out)["verdict"] == "No"
    code, _, err = run(capsys, "cusp", "check", "--edge", "C0,0-C0,1")
    assert code == 2


def test_ramified_euler(capsys):
    code, out, _ = run(capsys, "ramified", "euler", "--chiP", "1",
                       "--chiPplus", "1", "--chiL", "0")
    assert code == 0
    assert json.loads(out) == {"chi": 3, "r": 10}


def test_ramified_euler_refuses_chi_past_the_digit_limit(capsys):
    # each input is within the 4300-digit limit, chi = 2 * 5...5 is not
    big = "5" * 4300
    code, out, err = run(capsys, "ramified", "euler", "--chiP", "0",
                         "--chiPplus", big, "--chiL", "0")
    assert code == 3 and out == ""
    assert err.startswith("unsupported: Exceeds the limit (4300 digits)")


def test_surgery_h1(capsys):
    code, out, _ = run(capsys, "surgery", "h1", "--matrix",
                       "[[-4,2],[2,-2]]")
    assert code == 0 and out.strip() == "H1 = Z/2 + Z/2"
    code, _, err = run(capsys, "surgery", "h1", "--matrix", "[[1,2],[3]]")
    assert code == 2


def test_surgery_spiral(capsys):
    code, out, _ = run(capsys, "surgery", "spiral")
    assert code == 0
    assert out.strip().endswith("H1 = Z/2 + Z/2 (two routes agree)")


def test_report_spiral_matches_surgery(capsys):
    code, out, _ = run(capsys, "report", "spiral")
    assert code == 0
    assert "two routes agree" in out
    assert run(capsys, "surgery", "spiral") == (0, out, "")


def test_report_main_theorem(capsys):
    code, out, _ = run(capsys, "report", "main-theorem")
    assert code == 0
    rows = [l for l in out.splitlines() if l.startswith("| C")]
    assert len(rows) == 75
    row = next(l for l in rows if l.startswith("| C5,4_I "))
    assert "RP4 # 5(S2xS2) # 4(S1xS3)" in row
    assert run(capsys, "topology", "table", "--format", "md") == (0, out, "")


def test_determinism(capsys):
    outs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "lattice", "info", "U(2)+A2")
        outs.add(out)
    assert len(outs) == 1


def test_lattice_info_past_old_two_primary_cap(capsys):
    code, out, _ = run(capsys, "lattice", "info", "3*E8(2)")
    assert code == 0
    assert "rank: 24" in out
    assert "two-part integer: yes" in out


def test_lattice_error_is_usage_error(capsys):
    code, out, err = run(capsys, "lattice", "roots", "E8", "--norm", "0")
    assert code == 2 and out == ""
    assert "norm must be positive" in err


@pytest.mark.parametrize("matrix", [
    "[[1.5]]", "[[true]]", "[[1, false], [false, 1]]", '[["1"]]', "[]",
    "[[]]", "[[1, 2]]", "5", "[1]",
])
def test_surgery_h1_rejects_non_integer_matrices(capsys, matrix):
    code, out, err = run(capsys, "surgery", "h1", "--matrix", matrix)
    assert code == 2 and out == ""
    assert "bad --matrix" in err


def test_surgery_h1_rejects_deeply_nested_json(capsys):
    # the JSON decoder recurses once per level
    matrix = "[" * 100000 + "]" * 100000
    code, out, err = run(capsys, "surgery", "h1", "--matrix", matrix)
    assert code == 2 and out == ""
    assert err.startswith("bad --matrix: maximum recursion depth exceeded")


def _refuse_snf(monkeypatch):
    def fail(m):
        raise AssertionError("the Smith normal form ran")
    monkeypatch.setattr(realcubic.cli.surgery_mod, "h1_from_linking", fail)


def test_surgery_h1_refuses_oversized_matrix(capsys, monkeypatch):
    _refuse_snf(monkeypatch)
    n = realcubic.cli.MAX_LINK_SIZE + 1
    matrix = [[int(r == c) for c in range(n)] for r in range(n)]
    code, out, err = run(capsys, "surgery", "h1", "--matrix",
                         json.dumps(matrix))
    assert code == 3 and out == ""
    assert err.strip() == (f"unsupported: {n}x{n} matrix exceeds "
                           f"{n - 1}x{n - 1}")


def test_surgery_h1_refuses_large_entries(capsys, monkeypatch):
    _refuse_snf(monkeypatch)
    top = realcubic.cli.MAX_LINK_ENTRY
    code, out, err = run(capsys, "surgery", "h1", "--matrix",
                         f"[[1, 0], [0, {-(top + 1)}]]")
    assert code == 3 and out == ""
    assert err.strip() == (f"unsupported: entry of absolute value "
                           f"{top + 1} exceeds {top}")


def test_surgery_h1_accepts_matrix_at_both_limits(capsys):
    n, top = realcubic.cli.MAX_LINK_SIZE, realcubic.cli.MAX_LINK_ENTRY
    matrix = [[int(r == c) for c in range(n)] for r in range(n)]
    matrix[0][0], matrix[n - 1][n - 1] = top, -top
    code, out, _ = run(capsys, "surgery", "h1", "--matrix",
                       json.dumps(matrix))
    assert code == 0
    assert out.strip() == f"H1 = Z/{top} + Z/{top}"


def test_surgery_h1_accepts_a_dense_matrix_at_the_size_limit(capsys):
    # the worst case the cap is sized on: dense, symmetric, entries up to
    # the entry limit; H1 has order |det|, from the Bareiss determinant
    n, top = realcubic.cli.MAX_LINK_SIZE, realcubic.cli.MAX_LINK_ENTRY
    rng = random.Random(n)
    matrix = [[0] * n for _ in range(n)]
    for r in range(n):
        for c in range(r, n):
            matrix[r][c] = matrix[c][r] = rng.randint(-top, top)
    code, out, _ = run(capsys, "surgery", "h1", "--matrix",
                       json.dumps(matrix))
    assert code == 0
    orders = [int(p.removeprefix("Z/"))
              for p in out.strip().removeprefix("H1 = ").split(" + ")]
    assert math.prod(orders) == abs(det(matrix)) > 0


def test_cusp_check_rejects_non_classes(capsys):
    for edge in ("C0,9:C0,10", "C0,0_I:C0,1", "C11,0:C10,0"):
        code, out, err = run(capsys, "cusp", "check", "--edge", edge)
        assert code == 2 and out == ""
        assert "must be atlas vertices" in err


def test_cusp_check_builds_no_atlas(capsys):
    before = build_atlas.cache_info()
    code, out, _ = run(capsys, "cusp", "check", "--edge", "C5,4:C5,3")
    assert code == 0
    assert json.loads(out)["edge"] == "C5,3:C5,4"
    after = build_atlas.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


@pytest.mark.parametrize("edge", [
    "C1,0_I:C2,0",  # one L-move apart, but a type I class has no lower wall
    "C2,0:C1,0_I",  # the same pair, lower-d endpoint first
    "C9,1:C10,1",   # one L-move apart, but not in the table
    "C1,0:C1,0_I",  # equal d
])
def test_cusp_check_rejects_pairs_that_are_not_edges(capsys, edge):
    code, out, err = run(capsys, "cusp", "check", "--edge", edge)
    assert code == 2 and out == ""
    assert err.endswith("is not an atlas edge\n")


def test_cusp_check_accepts_every_table_edge(capsys):
    edges = table_edges()
    assert len(edges) == 117
    for e in edges:
        code, out, err = run(capsys, "cusp", "check", "--edge",
                             f"{e.source}:{e.target}")
        assert code == 0 and err == "", (e, err)
        assert json.loads(out)["edge"] == f"{e.source}:{e.target}"


@pytest.mark.parametrize("argv", [
    ["lattice", "roots", "2*E8"],  # 480 vectors, more than one buffer
    ["lattice", "info", "E8"],     # a few lines, written at the flush
])
def test_closed_stdout_exits_1_without_traceback(argv):
    # the read end is closed before the child starts, so its first write to
    # stdout fails with EPIPE whatever the timing
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    try:
        proc = subprocess.run([sys.executable, "-m", "realcubic.cli", *argv],
                              env=env, stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "" and proc.returncode == 1


@pytest.mark.parametrize("edge", [
    "C8,0:C9,0",  # M_+^0 of rank 20, past the former refuter's rank bound
    "C4,0:C5,0",  # rank 16 with 2^15 candidate classes, past its 2^14 bound
])
def test_cusp_check_undecided_l_edge_is_unknown(capsys, edge):
    code, out, err = run(capsys, "cusp", "check", "--edge", edge)
    assert code == 0 and err == ""
    assert json.loads(out)["verdict"] == "Unknown"


@pytest.mark.parametrize("edge, host", [
    ("C8,0:C9,0", "<-2>+A1+A2+2*E8"),
    ("C0,9:C1,9", "<-2>+A2"),
])
def test_cusp_check_unknown_says_the_pair_fails_mod3(capsys, edge, host):
    code, out, err = run(capsys, "cusp", "check", "--edge", edge)
    assert code == 0 and err == ""
    assert json.loads(out)["detail"] == (
        f"A2 pair in {host} (root summand A2) fails the mod-3 condition "
        f"and {host} has no unscaled U to shift it by")


def test_refuting_commands_do_not_load_numpy():
    script = (
        "import sys\n"
        "from realcubic.cli import main\n"
        "for argv in (['atlas', 'verify'],\n"
        "             ['cusp', 'check', '--edge', 'C2,0:C2,1_I'],\n"
        "             ['cusp', 'check', '--edge', 'C8,0:C9,0']):\n"
        "    assert main(argv) == 0, argv\n"
        "assert 'numpy' not in sys.modules\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert '"verdict": "No"' in proc.stdout


def test_atlas_verify(capsys):
    code, out, _ = run(capsys, "atlas", "verify")
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == []
    assert report["checks"] == [c.to_dict()
                                for c in verify(build_atlas("K4"))]
    assert [(c["name"], c["status"]) for c in report["checks"][-2:]] == [
        ("cusp-verdicts", "pass"), ("propagation", "pass")]
    # twin-pairs only warns (11 computed, 10 in the prose)
    assert all(c["status"] != "fail" for c in report["checks"])


def test_atlas_verify_fails_a_negative_six_in_column_0(capsys, monkeypatch):
    # <-6> for column 0's <6> keeps d and the type, so the table still
    # builds; but M+0 of C0,0 to C0,9 gains a second negative square, which
    # the signature, read off the atom catalogue, shows
    jmax, template = realcubic.atlas._TABLE_PLUS[0]
    monkeypatch.setitem(realcubic.atlas._TABLE_PLUS, 0,
                        (jmax, template.replace("<6>", "<-6>")))
    build_atlas.cache_clear()
    try:
        code, out, _ = run(capsys, "atlas", "verify")
    finally:
        monkeypatch.undo()
        build_atlas.cache_clear()  # the next build reads the shipped table
    assert code == 1
    failures = json.loads(out)["failures"]
    assert [c["name"] for c in failures] == ["per-vertex-invariants"]
    assert failures[0]["detail"] == "; ".join(
        f"C0,{j}: signature(M+0) = ({9 - j}, 2), expected ({10 - j}, 1)"
        for j in range(10))


@pytest.fixture()
def cusp_calls(monkeypatch):
    """The arguments of every cusp_stratum call the CLI makes."""
    calls = []
    original = realcubic.topology.cusp_stratum

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in (realcubic.walls, realcubic.topology):
        monkeypatch.setattr(mod, "cusp_stratum", counting)
    return calls


def test_atlas_verify_sweeps_r_edges_once(capsys, cusp_calls):
    code, _, _ = run(capsys, "atlas", "verify")
    assert code == 0
    assert len(cusp_calls) == 62  # one per R-edge


def test_topology_table_sweeps_r_edges_once(capsys, cusp_calls):
    code, _, _ = run(capsys, "topology", "table", "--format", "json")
    assert code == 0
    assert len(cusp_calls) == 62  # one per R-edge


@pytest.mark.parametrize("argv", [
    ["--height", "4", "atlas", "verify"],
    ["--seed", "0", "atlas", "verify"],
])
def test_no_global_options(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_format_default_ignores_environment(capsys, monkeypatch):
    monkeypatch.setenv("REALCUBIC_FORMAT", "md")
    code, out, _ = run(capsys, "atlas", "build", "--graph", "k4")
    assert code == 0
    assert len(json.loads(out)["vertices"]) == 75


def test_lattice_roots_refuses_from_the_root_counts(capsys, monkeypatch):
    # A256 has 256 * 257 roots, past 2000000 / 256: refused from that count,
    # before any elimination or search
    def fail(*args):
        raise AssertionError("an elimination ran")
    monkeypatch.setattr(realcubic.lattices, "_eliminate", fail)
    code, out, err = run(capsys, "lattice", "roots", "A256", "--norm", "2")
    assert code == 3 and out == ""
    assert err == ("unsupported: more than 7812 vectors of norm 1 to 2 in "
                   "rank 256 (at most 2000000 coordinates)\n")


@pytest.mark.parametrize("text", ["<1>", "A1", "2*<3>(5)", "A2", "U+E8"])
def test_lattice_roots_refuses_a_huge_norm_from_the_closed_forms(
        capsys, monkeypatch, text):
    # a vector of least square m has 2 * isqrt(norm // m) multiples of norm
    # 1 to norm, here far past the limit: refused from that count, before
    # the walk (which would stop only after the limit's leaves, or at U)
    def fail(*args):
        raise AssertionError("an elimination ran")
    monkeypatch.setattr(realcubic.lattices, "_eliminate", fail)
    norm = "9" * 26
    code, out, err = run(capsys, "lattice", "roots", text, "--norm", norm)
    rank = realcubic.lattices.parse_lattice_expr(text).rank
    assert code == 3 and out == ""
    assert err == (f"unsupported: more than {2000000 // rank} vectors of norm "
                   f"1 to {norm} in rank {rank} (at most 2000000 "
                   "coordinates)\n")


def test_lattice_roots_without_short_vectors_runs_no_elimination(
        capsys, monkeypatch):
    # A20's least square is 2, past --norm 1: the count reads that off the
    # atom catalogue without a walk, and the search is skipped
    calls = []
    eliminate = realcubic.lattices._eliminate

    def counting(a):
        calls.append(len(a))
        return eliminate(a)
    monkeypatch.setattr(realcubic.lattices, "_eliminate", counting)
    code, out, err = run(capsys, "lattice", "roots", "A20", "--norm", "1")
    assert (code, err) == (0, "")
    assert out == ('{"expression": "A20", "norm": 1, "count": 0, '
                   '"vectors": []}\n')
    assert calls == []


@pytest.mark.parametrize("text", ["A2({})", "{}*A1", "<{}>", "E8+D{}"])
def test_overlong_integers_are_parse_errors(capsys, text):
    # past Python's limit on the digits of an integer string
    code, out, err = run(capsys, "lattice", "info", text.format("9" * 4400))
    assert code == 2 and out == ""
    assert err.startswith("parse error: integer has too many digits")


@pytest.mark.parametrize("argv, code, line", [
    (["lattice", "info", "A1+"], 2,
     "parse error: expected a lattice term (at position 3)"),
    (["lattice", "roots", "E8", "--norm", "0"], 2,
     "lattice error: norm must be positive"),
    (["cusp", "check", "--edge", "C5,3"], 2,
     "bad --edge: not enough values to unpack (expected 2, got 1)"),
    (["cusp", "check", "--edge", "C99,0:C5,4"], 2,
     "edge endpoints must be atlas vertices"),
    (["cusp", "check", "--edge", "C1,0_I:C2,0"], 2,
     "C1,0_I:C2,0 is not an atlas edge"),
    (["surgery", "h1", "--matrix", "[[1,2]]"], 2,
     "bad --matrix: matrix must be square"),
    (["lattice", "info", "257*A1"], 3, "unsupported: rank 257 exceeds 256"),
    (["lattice", "info", "A204(1024)"], 3,
     "unsupported: determinant of up to 2252 bits exceeds 2048 bits"),
    (["lattice", "roots", "32*E8", "--norm", "4"], 3,
     "unsupported: more than 7812 vectors of norm 1 to 4 in rank 256 "
     "(at most 2000000 coordinates)"),
    (["lattice", "roots", "U", "--norm", "2"], 3,
     "unsupported: short-vector enumeration requires a positive definite "
     "lattice"),
    (["surgery", "h1", "--matrix", json.dumps([[0] * 41] * 41)], 3,
     "unsupported: 41x41 matrix exceeds 40x40"),
    (["surgery", "h1", "--matrix", "[[1000001]]"], 3,
     "unsupported: entry of absolute value 1000001 exceeds 1000000"),
], ids=["info-parse", "roots-norm", "edge-split", "edge-vertex",
        "edge-table", "h1-square", "info-rank", "info-det", "roots-count",
        "roots-indefinite", "h1-size", "h1-entry"])
def test_failure_is_one_stderr_line(capsys, argv, code, line):
    assert run(capsys, *argv) == (code, "", line + "\n")


def test_only_main_writes_to_stderr():
    # a handler fails by raising; main prints the one stderr line
    tree = ast.parse(Path(realcubic.cli.__file__).read_text())
    writers = {getattr(node, "name", "<module>") for node in tree.body
               for sub in ast.walk(node)
               if isinstance(sub, ast.Attribute) and sub.attr == "stderr"
               and isinstance(sub.value, ast.Name) and sub.value.id == "sys"}
    assert writers == {"main"}
