import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from realcubic.intmat import is_unimodular, matmul
from realcubic.lattices import (
    DegenerateLatticeError,
    IndefiniteLatticeError,
    GramMatrix,
    LatticeError,
    LatticeExpr,
    ParseError,
    Term,
    count_short_vectors,
    discriminant_form,
    discriminant_group,
    enumerate_norm_vectors,
    gram,
    gram_from_rows,
    is_six_root,
    parse_lattice_expr,
    signature,
)

ATOMS = ["A1", "A2", "A3", "A5", "D4", "D5", "E6", "E7", "E8", "U",
         "<2>", "<-2>", "<6>", "<-1>", "<3>"]


def random_expr_text(rng):
    terms = []
    for _ in range(rng.randint(1, 5)):
        t = rng.choice(ATOMS)
        if rng.random() < 0.3:
            t += f"({rng.randint(2, 4)})"
        if rng.random() < 0.3:
            t = f"{rng.randint(2, 5)}*{t}"
        terms.append(t)
    return "+".join(terms)


def test_parse_print_round_trip(rng):
    for _ in range(1000):
        text = random_expr_text(rng)
        expr = parse_lattice_expr(text)
        assert str(expr) == text
        assert parse_lattice_expr(str(expr)) == expr


def test_parse_whitespace_and_examples():
    e = parse_lattice_expr(" U(2) + A2 +  E8( 2 ) ")
    assert str(e) == "U(2)+A2+E8(2)"
    assert [t.atom_label() for t in e.terms] == ["U", "A2", "E8"]
    assert [t.scale for t in e.terms] == [2, 1, 2]
    e = parse_lattice_expr("<6>")
    assert e.rank == 1 and gram(e).entries == ((6,),)
    e = parse_lattice_expr("3*A1+<-2>")
    assert e.rank == 4
    assert gram(e).entries == ((2, 0, 0, 0), (0, 2, 0, 0),
                               (0, 0, 2, 0), (0, 0, 0, -2))


@pytest.mark.parametrize("bad", [
    "", "D3", "<0>", "A0", "E5", "0*A1", "U(0)", "U(-2)", "A1+", "+A1",
    "A1**2", "<2", "Q4", "2A1", "A\u00b2",
])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_lattice_expr(bad)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_lattice_expr("A2+D3")
    assert exc.value.position == 3


def oracle_parse_lattice_expr(text: str) -> LatticeExpr:
    """The former parser, kept as it was: a scanner of nested closures.

    It reads digits by ``str.isdigit``, which also accepts superscripts
    such as "\u00b2" that ``int`` rejects, so on those it raises a bare
    ValueError instead of a ParseError.
    """
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def peek() -> str:
        skip_ws()
        return text[pos] if pos < n else ""

    def expect(ch: str):
        nonlocal pos
        if peek() != ch:
            raise ParseError(f"expected {ch!r}", pos)
        pos += 1

    def read_int(signed: bool = False) -> int:
        nonlocal pos
        skip_ws()
        start = pos
        if signed and pos < n and text[pos] == "-":
            pos += 1
        digits = pos
        while pos < n and text[pos].isdigit():
            pos += 1
        if pos == digits:
            raise ParseError("expected an integer", start)
        return int(text[start:pos])

    def read_term() -> Term:
        nonlocal pos
        mult = 1
        skip_ws()
        save = pos
        if peek().isdigit():
            mult = read_int()
            if peek() == "*":
                pos += 1
            else:
                raise ParseError("expected '*' after multiplicity", pos)
        c = peek()
        if c in "ADE":
            pos += 1
            idx = read_int()
            kind, num = c, idx
        elif c == "U":
            pos += 1
            kind, num = "U", 0
        elif c == "<":
            pos += 1
            k = read_int(signed=True)
            expect(">")
            kind, num = "diag", k
        else:
            raise ParseError("expected a lattice atom", pos if pos < n else save)
        scale = 1
        if peek() == "(":
            pos += 1
            scale = read_int()
            if scale < 1:
                raise ParseError("scale must be positive", pos)
            expect(")")
        try:
            return Term(mult, kind, num, scale)
        except LatticeError as exc:
            raise ParseError(str(exc), save) from None

    terms = [read_term()]
    while True:
        skip_ws()
        if pos >= n:
            break
        expect("+")
        terms.append(read_term())
    return LatticeExpr(tuple(terms))


# the messages of Term's own checks, which both parsers report at the
# term's first character
TERM_MESSAGES = ("multiplicity must be", "scale must be >=", "A_n requires",
                 "D_n requires", "E_n requires", "rank-1 form <0>")
DIGITS = [str(d) for d in range(10)] + ["\u00b2"]
SPACES = ["", " ", "\t"]
TOKENS = ["A", "D", "E", "U", "<", ">", "(", ")", "*", "+", "-", " ", "\t",
          "Q"] + DIGITS


@st.composite
def term_tokens(draw) -> list[str]:
    """The tokens of one term of the grammar after optional whitespace;
    each number is one digit, maybe a superscript one."""
    digit, space = st.sampled_from(DIGITS), st.sampled_from(SPACES)
    out = [draw(space)]
    if draw(st.booleans()):
        out += [draw(digit), draw(space), "*"]
    kind = draw(st.sampled_from("ADEU<"))
    if kind == "U":
        out.append(kind)
    elif kind == "<":
        out += [kind, draw(space), draw(st.sampled_from(["", "-"])),
                draw(digit), ">"]
    else:
        out += [kind, draw(space), draw(digit)]
    if draw(st.booleans()):
        out += [draw(space), "(", draw(digit), ")"]
    return out


@st.composite
def token_strings(draw) -> str:
    """0-12 tokens: any tokens, or one to three terms joined by "+" with
    at most one token then replaced by any token."""
    if draw(st.booleans()):
        return "".join(draw(st.lists(st.sampled_from(TOKENS), max_size=12)))
    tokens = draw(term_tokens())
    for _ in range(draw(st.integers(0, 2))):
        tokens += [draw(st.sampled_from(SPACES)), "+"] + draw(term_tokens())
    tokens = tokens[:12]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(tokens) - 1))
        tokens[i] = draw(st.sampled_from(TOKENS))
    return "".join(tokens)


def test_parse_agrees_with_the_former_scanner():
    seen = {"accepted": 0, "term errors": 0}

    @settings(max_examples=1000, derandomize=True, database=None,
              deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(token_strings())
    def check(text):
        try:
            want = oracle_parse_lattice_expr(text)
        except ValueError as exc:  # ParseError, or int() on a superscript
            want = exc
        try:
            got = parse_lattice_expr(text)
        except ParseError as exc:
            got = exc
        if isinstance(want, LatticeExpr):
            assert got == want
            assert parse_lattice_expr(str(got)) == got
            seen["accepted"] += 1
            return
        assert isinstance(got, ParseError)
        if str(want).startswith(TERM_MESSAGES):
            assert (str(got), got.position) == (str(want), want.position)
            seen["term errors"] += 1

    check()
    assert seen["accepted"] >= 50 and seen["term errors"] >= 50, seen


def test_gram_blocks():
    g = gram(parse_lattice_expr("U+2*A1+E8(2)"))
    labels = [(b.label, b.start, b.size, b.scale) for b in g.blocks]
    assert labels == [("U", 0, 2, 1), ("A1", 2, 1, 1), ("A1", 3, 1, 1),
                      ("E8", 4, 8, 2)]
    assert g.entries[0][1] == 1 and g.entries[0][0] == 0
    assert g.entries[2][2] == 2
    assert g.entries[4][4] == 4  # scaled E8 diagonal


def test_gram_is_built_once_per_expression(rng):
    # gram is memoized: equal expressions share one GramMatrix, and nothing
    # a caller gets from it can change what the next caller sees
    for text in ["U(2)+A2+E8(2)", "<-2>+10*A1", "E8"] + [
            random_expr_text(rng) for _ in range(20)]:
        e = parse_lattice_expr(text)
        g = gram(e)
        assert gram(parse_lattice_expr(str(e))) is g
        fresh = gram.__wrapped__(e)  # built anew, bypassing the memo
        assert fresh == g and fresh is not g
        rows = g.rows()
        assert rows == [list(r) for r in g.entries] and rows is not g.rows()
        rows[0][0] += 1
        rows[-1].append(7)
        rows.append([0])
        assert all(type(r) is tuple for b in g.component_blocks for r in b)
        signature(g)
        g.det()
        assert gram(e) is g and g == fresh


def test_gram_standard_dets():
    for text, d in [("A1", 2), ("A2", 3), ("A3", 4), ("D4", 4), ("D5", 4),
                    ("E6", 3), ("E7", 2), ("E8", 1), ("U", -1), ("<6>", 6),
                    ("E8(2)", 256)]:
        assert gram(parse_lattice_expr(text)).det() == d, text


def test_signature_examples():
    assert signature(gram(parse_lattice_expr("U"))) == (1, 1)
    assert signature(gram(parse_lattice_expr("E8"))) == (8, 0)
    assert signature(gram(parse_lattice_expr("<-2>+10*A1"))) == (10, 1)
    with pytest.raises(DegenerateLatticeError):
        signature(gram_from_rows([[1, 1], [1, 1]]))


# the atoms of the catalogue test: A1-A24, D4-D24, E6-E8, U and ten <k>
CATALOGUE_ATOMS = ([f"A{n}" for n in range(1, 25)]
                   + [f"D{n}" for n in range(4, 25)] + ["E6", "E7", "E8", "U"]
                   + [f"<{k}>" for k in (1, 2, 3, 6, 12, -1, -2, -3, -6, -12)])


def test_atom_catalogue_matches_elimination_and_enumeration():
    # signature and det read off the catalogue against one elimination of
    # the same rows, at scales 1 to 6; on the unscaled positive definite
    # atoms of rank <= 8, the root count and the least square against the
    # enumeration; the others count no roots and have no least square
    scaled = definite = 0
    for text in CATALOGUE_ATOMS:
        for s in range(1, 7):
            g = gram(parse_lattice_expr(f"{text}({s})"))
            rows = gram_from_rows(g.rows())
            assert (signature(g), g.det()) == (signature(rows), rows.det())
            scaled += 1
        g = gram(parse_lattice_expr(text))
        (term,) = parse_lattice_expr(text).terms
        facts = term.facts
        assert facts.rank == term.atom_rank == g.rank
        if facts.neg:
            assert (facts.roots, facts.least) == (0, 0)
        elif g.rank <= 8:
            assert facts.roots == len(enumerate_norm_vectors(g, 2)), text
            assert [k for k in range(1, facts.least + 1)
                    if enumerate_norm_vectors(g, k)] == [facts.least], text
            definite += 1
    assert (scaled, definite) == (354, 21)


def random_unimodular(rng, n):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            m[i][k] += c * m[j][k]
    return m


@pytest.mark.parametrize("text", ["A3", "D4", "U+A2", "<-2>+3*A1", "U+E8(2)"])
def test_signature_invariant_under_congruence(text, rng):
    g = gram(parse_lattice_expr(text))
    sig = signature(g)
    assert sig[0] + sig[1] == g.rank
    for _ in range(100):
        t = random_unimodular(rng, g.rank)
        tt = [[t[r][c] for r in range(g.rank)] for c in range(g.rank)]
        h = gram_from_rows(matmul(tt, matmul(g.rows(), t)))
        assert signature(h) == sig
        assert is_unimodular(t)


def test_discriminant_group_examples():
    assert discriminant_group(gram(parse_lattice_expr("U"))).order == 1
    a2 = discriminant_group(gram(parse_lattice_expr("A2")))
    assert a2.invariant_factors == (3,) and a2.two_rank == 0
    big = discriminant_group(gram(parse_lattice_expr("U(2)+E8(2)")))
    assert big.invariant_factors == (2,) * 10 and big.two_rank == 10
    # a degenerate G has a free cokernel, which is no discriminant group
    g = gram_from_rows([[2, 2, 0], [2, 2, 0], [0, 0, 3]])
    for f in (discriminant_group, discriminant_form):
        with pytest.raises(DegenerateLatticeError):
            f(g)


def test_discriminant_group_order_is_det():
    for text in ["A2", "A3", "D4", "E6", "E7", "<6>", "U(2)", "E8(2)",
                 "<-2>+2*A1"]:
        g = gram(parse_lattice_expr(text))
        assert discriminant_group(g).order == abs(g.det())


def form_q(g, df, coeffs):
    """q of sum c_i g_i mod 2, summed from the Gram matrix in Fractions."""
    z = [sum(Fraction(c * v[r], d) for c, v, d in
             zip(coeffs, df.generators, df.group.invariant_factors))
         for r in range(g.rank)]
    return g.norm(tuple(z)) % 2


def test_discriminant_form_examples():
    df = discriminant_form(gram(parse_lattice_expr("<2>")))
    assert str(df.group) == "Z/2"
    assert df.q_values == ((1, 2),)
    assert not df.two_part_integer

    g = gram(parse_lattice_expr("U(2)"))
    df = discriminant_form(g)
    assert str(df.group) == "Z/2 + Z/2"
    vals = [form_q(g, df, c) for c in [(1, 0), (0, 1), (1, 1)]]
    assert sorted(vals) == [0, 0, 1]
    assert sorted(df.q_values) == [(0, 1), (0, 1)]
    assert df.two_part_integer

    df = discriminant_form(gram(parse_lattice_expr("E8(2)")))
    assert all(den == 1 for _, den in df.q_values)
    assert df.two_part_integer

    df = discriminant_form(gram(parse_lattice_expr("<6>")))
    assert not df.two_part_integer  # q(3g) = 3/2 on the 2-part


def test_discriminant_form_quadratic_refines_bilinear(rng):
    for text in ["A2", "D4", "E7", "<6>", "U(2)", "<2>+<4>", "E8(2)",
                 "<-2>+A2"]:
        g = gram(parse_lattice_expr(text))
        df = discriminant_form(g)
        orders = df.group.invariant_factors
        k = len(df.generators)
        for a in range(k):
            assert form_q(g, df, [int(i == a) for i in range(k)]) \
                == Fraction(*df.q_values[a])
            for b in range(k):
                ex = [0] * k
                ex[a] += 1
                ey = [0] * k
                ey[b] += 1
                exy = [x + y for x, y in zip(ex, ey)]
                lhs = (form_q(g, df, exy) - form_q(g, df, ex)
                       - form_q(g, df, ey))
                rhs = 2 * (Fraction(df.w[a][b], orders[a] * orders[b]) % 1)
                assert (lhs - rhs) % 2 == 0


def box_oracle_counts(g, norm, height=4):
    """Independent numpy box search; meet-in-the-middle above rank 6."""
    n = g.rank
    gm = np.array(g.rows(), dtype=np.int64)
    coords = np.arange(-height, height + 1)
    if n <= 6:
        grid = np.array(np.meshgrid(*([coords] * n), indexing="ij"))
        pts = grid.reshape(n, -1).T
        norms = np.einsum("ij,jk,ik->i", pts, gm, pts)
        return int(np.count_nonzero(norms == norm)
                   - (1 if norm == 0 else 0))
    k = n // 2
    a_grid = np.array(np.meshgrid(*([coords] * k), indexing="ij"))
    a = a_grid.reshape(k, -1).T
    b_grid = np.array(np.meshgrid(*([coords] * (n - k)), indexing="ij"))
    b = b_grid.reshape(n - k, -1).T
    qa = np.einsum("ij,jk,ik->i", a, gm[:k, :k], a).astype(np.int32)
    qb = np.einsum("ij,jk,ik->i", b, gm[k:, k:], b).astype(np.int32)
    cross = (2 * (a @ gm[:k, k:]) @ b.T).astype(np.int32)
    total = qa[:, None] + cross + qb[None, :]
    return int(np.count_nonzero(total == norm) - (1 if norm == 0 else 0))


ROOT_COUNTS = {"A1": 2, "A2": 6, "A3": 12, "D4": 24, "D5": 40,
               "E6": 72, "E7": 126, "E8": 240}


@pytest.mark.parametrize("text,count", sorted(ROOT_COUNTS.items()))
def test_enumerate_roots_vs_oracle(text, count):
    g = gram(parse_lattice_expr(text))
    roots = enumerate_norm_vectors(g, 2)
    assert len(roots) == count
    assert len(set(roots)) == count
    assert roots == sorted(roots)
    assert all(g.norm(v) == 2 for v in roots)
    assert box_oracle_counts(g, 2) == count


@pytest.mark.parametrize("text", ["A2", "D4", "<6>", "A2+<6>"])
def test_enumerate_norm6_vs_oracle(text):
    g = gram(parse_lattice_expr(text))
    vecs = enumerate_norm_vectors(g, 6)
    assert len(vecs) == box_oracle_counts(g, 6)
    assert all(g.norm(v) == 6 for v in vecs)


@pytest.mark.parametrize("text,norm", [
    ("E8", 4), ("A2+<3>+E8(2)", 6), ("2*A1+D4", 4), ("E8+E8", 4),
    ("<1>+<2>(3)", 9), ("A3(2)+<5>+A3(2)", 10),
])
def test_count_short_vectors_is_the_enumerated_count(text, norm):
    # from the atoms' theta series; the limit is exact at the boundary
    expr = parse_lattice_expr(text)
    g = gram(expr)
    count = sum(len(enumerate_norm_vectors(g, k)) for k in range(1, norm + 1))
    assert count_short_vectors(expr, norm, count) == count
    assert count_short_vectors(expr, norm, count - 1) is None


# positive definite atoms: (kind, n) with A_n, D_n, E_n, and <k> as ("diag", k)
DEFINITE_ATOMS = [("A", n) for n in range(1, 6)] + [("D", 4), ("D", 5)] \
    + [("E", n) for n in (6, 7, 8)] + [("diag", k) for k in (1, 2, 3, 5)]


@st.composite
def definite_exprs(draw) -> LatticeExpr:
    """One to four terms of rank <= 10 in all, each of one or two copies of
    a definite atom, some of them scaled by 2 or 3."""
    terms, room = [], 10
    for _ in range(draw(st.integers(1, 4))):
        kind, n = draw(st.sampled_from(DEFINITE_ATOMS))
        t = Term(draw(st.integers(1, 2)), kind, n,
                 draw(st.sampled_from((1, 1, 2, 3))))
        if t.mult * t.atom_rank <= room:
            terms.append(t)
            room -= t.mult * t.atom_rank
    return LatticeExpr(tuple(terms) or (Term(1, "A", 1),))


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(definite_exprs(), st.integers(1, 4))
def test_count_short_vectors_is_the_enumerated_count_drawn(expr, norm):
    # the product of the atoms' series against one walk of the whole sum
    g = gram(expr)
    count = sum(len(enumerate_norm_vectors(g, k)) for k in range(1, norm + 1))
    assert count_short_vectors(expr, norm, count) == count
    assert count_short_vectors(expr, norm, count - 1) is None


def test_count_short_vectors_stops_at_the_limit():
    # no copy of A1 has norm 1; at norm 2 each adds two vectors
    huge = parse_lattice_expr("99999999999*A1")
    assert count_short_vectors(huge, 1, 10) == 0
    assert count_short_vectors(huge, 2, 10) is None
    # 28.6 M vectors of norm 4, found past the limit from E8's series
    assert count_short_vectors(parse_lattice_expr("32*E8"), 4, 10**6) is None


def test_count_short_vectors_rejects_bad_input():
    with pytest.raises(LatticeError, match="norm must be positive"):
        count_short_vectors(parse_lattice_expr("E8"), 0, 10)
    with pytest.raises(IndefiniteLatticeError):
        count_short_vectors(parse_lattice_expr("A2+U"), 2, 10)


def test_enumerate_rejects_indefinite():
    with pytest.raises(IndefiniteLatticeError):
        enumerate_norm_vectors(gram(parse_lattice_expr("U")), 2)


def test_six_roots():
    a2 = gram(parse_lattice_expr("A2"))
    assert is_six_root((1, -1), a2)
    assert not is_six_root((1, 0), a2)
    assert is_six_root((1,), gram(parse_lattice_expr("<6>")))
    # exactly six elements of square 6 in A2, all of them 6-roots
    sixes = enumerate_norm_vectors(a2, 6)
    assert len(sixes) == 6 and all(is_six_root(v, a2) for v in sixes)


def test_named_ambient_lattices():
    from realcubic.lattices import AMBIENT_M, AMBIENT_M0
    # the ambient odd lattice 3<1> + 2U + 2E8 and its polarization complement
    assert signature(AMBIENT_M) == (21, 2)
    assert abs(AMBIENT_M.det()) == 1
    assert AMBIENT_M.norm((1, 1, 1) + (0,) * 20) == 3  # the polarization h
    assert AMBIENT_M0.rank == 22 and signature(AMBIENT_M0) == (20, 2)
