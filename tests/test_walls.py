import itertools

import pytest

import realcubic.walls
from realcubic.atlas import VertexId
from realcubic.lattices import LatticeError, gram, parse_lattice_expr
from realcubic.walls import (
    MoveKind,
    classify_move,
    cusp_stratum,
    find_a2_pair,
    mod3_condition,
    refute_a2_mod2,
)


def test_classify_move_minus_side(k4):
    # v = (1,1) in M_- = U of C10,1: pairings 1, 1 are odd
    v10 = k4.vertex(VertexId(10, 1))
    assert classify_move((1, 1), "minus", v10) == MoveKind.R_INVERSE
    # generator of a <2> summand of M_- = <-2>+10A1: pairings 2 or 0
    v00 = k4.vertex(VertexId(0, 0))
    root = tuple(1 if k == 1 else 0 for k in range(11))
    assert classify_move(root, "minus", v00) == MoveKind.L
    # e - u1 in <2>+U inside M_- = U+10<2> of C0,1: pairing with u2 is odd
    v01 = k4.vertex(VertexId(0, 1))
    g = gram(v01.m_minus)
    e_idx = 2  # first A1 block after U
    v = tuple(1 if k == e_idx else -1 if k == 0 else 0 for k in range(g.rank))
    assert g.norm(v) == 2
    assert classify_move(v, "minus", v01) == MoveKind.R_INVERSE


def test_classify_move_plus_side(k4):
    v00 = k4.vertex(VertexId(0, 0))
    n = gram(v00.m_plus0).rank + 1  # extra coordinate for h
    # a <2> generator of M_+^0 pairs evenly with everything: an R-move
    root = tuple(1 if k == 1 else 0 for k in range(n))
    assert classify_move(root, "plus", v00) == MoveKind.R
    with pytest.raises(ValueError):
        classify_move(root, "sideways", v00)


def test_classify_move_rejects_non_roots(k4):
    v00 = k4.vertex(VertexId(0, 0))
    with pytest.raises(LatticeError):
        classify_move(tuple([1] + [0] * 10), "minus", v00)  # norm -2 slot


def test_find_a2_pair_constructive():
    expr = parse_lattice_expr("<2>+U")
    g = gram(expr)
    cert = find_a2_pair(expr)
    assert cert is not None and cert.verify(g)
    assert cert.v1 == (1, -1, 0) and cert.v2 == (0, 1, 1)
    for name in ["A2", "D4", "E6", "E7", "E8"]:
        expr = parse_lattice_expr(name)
        cert = find_a2_pair(expr)
        assert cert is not None and cert.verify(gram(expr))


def test_find_a2_pair_u_none_by_enumeration():
    # complete check: the only square-2 vectors of U are +-(1,1)
    g = gram(parse_lattice_expr("U"))
    roots = [v for v in itertools.product(range(-6, 7), repeat=2)
             if g.norm(v) == 2]
    assert set(roots) == {(1, 1), (-1, -1)}
    assert all(g.inner(a, b) != -1 for a in roots for b in roots)
    assert find_a2_pair(parse_lattice_expr("U")) is None


def former_box_search(g, height=4):
    """The first A2 pair of the box in itertools.product order, as
    find_a2_pair found it before it built squares coordinate by coordinate."""
    roots = [v for v in itertools.product(range(-height, height + 1),
                                          repeat=g.rank)
             if any(v) and g.norm(v) == 2]
    return next(((a, b) for i, a in enumerate(roots) for b in roots[i + 1:]
                 if g.inner(a, b) == -1), None)


# no constructive certificate, so the search decides; U(3)+2*<2> and
# U(3)+<1>+<-1>+<2> find a pair, the others none
@pytest.mark.parametrize("text", [
    "<2>", "<-2>", "<2>(3)+<-6>", "U(2)+<1>(3)+A1", "A3(2)+<1>(3)",
    "2*A1(3)+2*<2>", "3*A1+<2>", "U(3)+2*<2>", "U(3)+<1>+<-1>+<2>",
])
def test_find_a2_pair_search_matches_former_search(text):
    expr = parse_lattice_expr(text)
    g = gram(expr)
    pair = former_box_search(g)
    cert = find_a2_pair(expr)
    if pair is None:
        assert cert is None
    else:
        assert (cert.v1, cert.v2, cert.host) == (*pair, "height-4 search")


def test_mod3_condition():
    g = gram(parse_lattice_expr("<2>+U"))
    assert mod3_condition((1, -1, 0), (0, 1, 1), g)
    a2 = gram(parse_lattice_expr("A2"))
    # inside a lone A2 the difference of simple roots pairs by multiples of 3
    assert not mod3_condition((1, 0), (0, 1), a2)  # difference is a 6-root
    assert not mod3_condition((1, 0), (1, 0), a2)


@pytest.mark.parametrize("text", ["U", "U+E8(2)", "U(2)", "U(2)+E8(2)"])
def test_refuter_refutes(text):
    assert refute_a2_mod2(parse_lattice_expr(text)) is not None


# q nonzero on the radical (<2>+U), Arf invariant 1 (A2), two hyperbolic
# planes (U+D4)
@pytest.mark.parametrize("text", ["<2>+U", "A2", "U+D4", "<2>+<2>+U"])
def test_refuter_inconclusive_when_pair_exists(text):
    assert refute_a2_mod2(parse_lattice_expr(text)) is None


def test_refuter_has_no_rank_bound():
    # rank 24, past the former sweep's rank-16 bound: not refuted
    assert refute_a2_mod2(parse_lattice_expr("3*E8")) is None


def brute_a2_pairs(g, height):
    import numpy as np
    gm = np.array(g.rows(), dtype=np.int64)
    coords = np.arange(-height, height + 1, dtype=np.int16)
    grids = np.meshgrid(*([coords] * g.rank), indexing="ij")
    pts = np.stack([x.ravel() for x in grids], axis=1)
    roots = []
    for lo in range(0, len(pts), 1_000_000):
        chunk = pts[lo:lo + 1_000_000].astype(np.int64)
        norms = ((chunk @ gm) * chunk).sum(axis=1)
        roots.extend(map(tuple, chunk[norms == 2]))
    return any(g.inner(a, b) == -1
               for a, b in itertools.combinations(roots, 2))


@pytest.mark.parametrize("text,height", [
    ("U", 6), ("U(2)", 6), ("<2>+U", 6), ("A2", 6),
    ("U+E8(2)", 2), ("U(2)+E8(2)", 2),
])
def test_refuter_soundness_cross_check(text, height):
    """Whenever the refuter fires, exhaustive search finds no pair."""
    expr = parse_lattice_expr(text)
    g = gram(expr)
    refuted = refute_a2_mod2(expr) is not None
    if refuted:
        assert not brute_a2_pairs(g, height)


def test_cusp_stratum_verdicts(k4, cusp_verdicts):
    exceptional = {VertexId(10, 1), VertexId(2, 1, special=True)}
    for (src, dst), verdict in cusp_verdicts.items():
        if dst in exceptional:
            assert verdict.kind == "No", f"{src}->{dst}"
            assert verdict.refutation is not None
        else:
            assert verdict.kind == "Yes", f"{src}->{dst}"
            cert = verdict.certificate
            g = gram(k4.vertex(dst).m_minus)
            assert cert.verify(g)
            assert mod3_condition(cert.v1, cert.v2, g)


def test_cusp_stratum_rejects_non_adjacent(k4):
    with pytest.raises(ValueError):
        cusp_stratum((k4.vertex(VertexId(0, 0)), k4.vertex(VertexId(2, 0))))


def test_cusp_verdict_serialization(k4):
    src, dst = k4.vertex(VertexId(0, 0)), k4.vertex(VertexId(0, 1))
    d = cusp_stratum((src, dst)).to_dict()
    assert d["verdict"] == "Yes"
    assert {"v1", "v2", "host"} <= set(d["certificate"])


def test_cusp_stratum_skips_the_refuter_once_a_pair_is_found(k4, monkeypatch):
    def refuter(expr):
        raise AssertionError(f"refuter called on {expr}")

    monkeypatch.setattr(realcubic.walls, "refute_a2_mod2", refuter)
    src, dst = k4.vertex(VertexId(0, 9)), k4.vertex(VertexId(1, 9))
    verdict = cusp_stratum((src, dst))
    assert verdict.kind == "Unknown"
    assert verdict.detail.startswith("A2 pair in <-2>+A2 (root summand A2)")
