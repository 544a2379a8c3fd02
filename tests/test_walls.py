import itertools
from collections import Counter
from typing import Optional

import pytest

import realcubic.walls
from realcubic.atlas import VertexId
from realcubic.lattices import (
    GramMatrix,
    LatticeError,
    gram,
    parse_lattice_expr,
)
from realcubic.walls import (
    A2Certificate,
    MoveKind,
    _add,
    _unit,
    _verdict,
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
    """The first A2 pair of the height-4 box in itertools.product order: what
    find_a2_pair's box search returned when no summand construction applied.
    The search is gone from find_a2_pair because no atlas edge reaches it
    with a pair (on U it finds none; U+E8(2) is past its budget)."""
    roots = [v for v in itertools.product(range(-height, height + 1),
                                          repeat=g.rank)
             if any(v) and g.norm(v) == 2]
    return next(((a, b) for i, a in enumerate(roots) for b in roots[i + 1:]
                 if g.inner(a, b) == -1), None)


# no summand construction applies, so find_a2_pair returns None on all nine;
# the former box search found a pair on U(3)+2*<2> and U(3)+<1>+<-1>+<2>
# (no atlas lattice), the others none
@pytest.mark.parametrize("text", [
    "<2>", "<-2>", "<2>(3)+<-6>", "U(2)+<1>(3)+A1", "A3(2)+<1>(3)",
    "2*A1(3)+2*<2>", "3*A1+<2>", "U(3)+2*<2>", "U(3)+<1>+<-1>+<2>",
])
def test_find_a2_pair_search_matches_former_search(text):
    expr = parse_lattice_expr(text)
    g = gram(expr)
    assert find_a2_pair(expr) is None
    pair = former_box_search(g)
    assert (pair is not None) == text.startswith("U(3)+")
    if pair is not None:
        assert A2Certificate(*pair, "").verify(g)


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
    """Whether two roots (square 2) with coordinates in [-height, height]
    pair by -1. The box is the product of the orthogonal components' boxes
    and a square the sum of theirs, so each component's box is scanned
    once, and the roots are joined from the components by square: all
    squares of every component but the largest, which only completes them
    to 2. One integer matrix product pairs all the roots."""
    import numpy as np
    side = np.arange(-height, height + 1, dtype=np.int64)
    parts = sorted(zip(g.components, g.component_blocks),
                   key=lambda part: len(part[0]))
    found = {0: np.zeros((1, g.rank), dtype=np.int64)}  # square -> vectors
    for k, (comp, block) in enumerate(parts):
        box = np.stack(np.meshgrid(*[side] * len(comp), indexing="ij"),
                       axis=-1).reshape(-1, len(comp))
        squares = ((box @ np.array(block, dtype=np.int64)) * box).sum(axis=1)
        joined = {}
        for a, head in found.items():
            for b in ([2 - a] if k == len(parts) - 1 else np.unique(squares)):
                tail = box[squares == b]
                if len(tail):
                    both = np.repeat(head, len(tail), axis=0)
                    both[:, list(comp)] = np.tile(tail, (len(head), 1))
                    joined.setdefault(a + int(b), []).append(both)
        found = {a: np.concatenate(vs) for a, vs in joined.items()}
    roots = found.get(2, np.zeros((0, g.rank), dtype=np.int64))
    pairings = roots @ np.array(g.rows(), dtype=np.int64) @ roots.T
    return bool((pairings == -1).any())  # the diagonal is 2


@pytest.mark.parametrize("text,height", [
    ("U", 6), ("U(2)", 6), ("<2>+U", 6), ("A2", 6),
    ("U+E8(2)", 2), ("U(2)+E8(2)", 2),
])
def test_refuter_soundness_cross_check(text, height):
    """Whenever the refuter fires, exhaustive search finds no pair; where
    it does not, the search finds one, so it is not blind."""
    expr = parse_lattice_expr(text)
    refuted = refute_a2_mod2(expr) is not None
    assert brute_a2_pairs(gram(expr), height) is not refuted


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
    # two L-moves apart, then two walls given lower-d endpoint first
    for pair in (("C0,0", "C2,0"), ("C10,1", "C10,0"), ("C2,1_I", "C2,0")):
        with pytest.raises(ValueError, match="not adjacent by one move"):
            cusp_stratum(tuple(k4.vertex(VertexId.parse(x)) for x in pair))


def test_cusp_verdict_serialization(k4):
    src, dst = k4.vertex(VertexId(0, 0)), k4.vertex(VertexId(0, 1))
    d = cusp_stratum((src, dst)).to_dict()
    assert d["verdict"] == "Yes"
    assert {"v1", "v2", "host"} <= set(d["certificate"])


def test_cusp_stratum_skips_the_refuter_once_a_pair_is_found(k4, monkeypatch):
    def refuter(expr):
        raise AssertionError(f"refuter called on {expr}")

    monkeypatch.setattr(realcubic.walls, "refute_a2_mod2", refuter)
    _verdict.cache_clear()  # judge the wall afresh
    src, dst = k4.vertex(VertexId(0, 9)), k4.vertex(VertexId(1, 9))
    verdict = cusp_stratum((src, dst))
    assert verdict.kind == "Unknown"
    assert verdict.detail.startswith("A2 pair in <-2>+A2 (root summand A2)")


def _host(k4, e):
    """The lattice cusp_stratum searches: M_- on R-walls, M_+^0 on L-walls."""
    t = k4.vertex(e.target)
    return t.m_minus if e.move == MoveKind.R else t.m_plus0


# M_+^0 of the target has an A2 summand and no unscaled U (<-2>+k*A1+A2+...
# or U(2)+A2+...): the A2 pair fails the mod-3 condition and cannot be shifted
UNKNOWN_L_EDGES = {
    "C0,0:C1,0", "C0,0:C1,0_I", "C0,1:C1,1", "C0,2:C1,2", "C0,3:C1,3",
    "C0,4:C1,4", "C0,5:C1,5", "C0,6:C1,6", "C0,7:C1,7", "C0,8:C1,8",
    "C0,9:C1,9", "C4,0:C5,0", "C4,1:C5,1", "C4,2:C5,2", "C4,3:C5,3",
    "C4,4:C5,4", "C4,5:C5,5", "C8,0:C9,0", "C8,0:C9,0_I", "C8,1:C9,1",
}


def test_every_edge_verdict(k4, edge_verdicts):
    kinds = Counter((e.move, v.kind) for e, v in edge_verdicts.items())
    assert kinds == {(MoveKind.R, "Yes"): 60, (MoveKind.R, "No"): 2,
                     (MoveKind.L, "Yes"): 35, (MoveKind.L, "Unknown"): 20}
    assert {f"{e.source}:{e.target}" for e, v in edge_verdicts.items()
            if v.kind == "Unknown"} == UNKNOWN_L_EDGES
    for e, v in edge_verdicts.items():
        if v.kind == "Yes":
            g, cert = gram(_host(k4, e)), v.certificate
            assert cert.verify(g), e
            assert mod3_condition(cert.v1, cert.v2, g), e


def former_mod3_pair(cert: A2Certificate,
                     g: GramMatrix) -> Optional[A2Certificate]:
    """``cert`` if it meets the mod-3 condition, else a mixed pair that does."""
    if mod3_condition(cert.v1, cert.v2, g):
        return cert
    # the constructive pair can fail mod 3 (e.g. an isolated A2 block whose
    # difference vector is a 6-root); retry with mixed pairs across summands
    rank = g.rank
    candidates = [cert.v1, cert.v2]
    for a, c in zip(g.atoms, g.components):
        if a.scale == 1 and len(c) == 1 and g.entries[c[0]][c[0]] == 2:
            candidates.append(_unit(rank, c[0]))
    u_block = next((c for a, c in zip(g.atoms, g.components)
                    if a.scale == 1 and a.kind == "U"), None)
    if u_block:
        u1, u2 = u_block
        candidates.append(_add(_unit(rank, u1), _unit(rank, u2)))
        for e in [c for c in candidates if g.norm(c) == 2]:
            candidates.append(_add(e, _unit(rank, u1), -1))
    roots = [c for c in candidates if g.norm(c) == 2]
    for a in range(len(roots)):
        for b in range(a + 1, len(roots)):
            v1, v2 = roots[a], roots[b]
            p = g.inner(v1, v2)
            if p == 1:
                v2 = tuple(-x for x in v2)
                p = -1
            if p == -1 and mod3_condition(v1, v2, g):
                c = A2Certificate(v1, v2, "mixed-summand search")
                if c.verify(g):
                    return c
    return None


def test_shifted_pair_matches_former_retry(k4, edge_verdicts):
    """On every edge the certificate is the one the former candidate retry
    chose, and the v2 - u1 shift stands exactly where that retry did."""
    shifted = 0
    for e, verdict in edge_verdicts.items():
        expr = _host(k4, e)
        pair = find_a2_pair(expr)
        old = None if pair is None else former_mod3_pair(pair, gram(expr))
        new = verdict.certificate
        assert (None if old is None else (old.v1, old.v2)) == (
            None if new is None else (new.v1, new.v2)), e
        if new is not None:
            is_shift = new.host.endswith(", v2 shifted by -u1 of U")
            assert is_shift == (old.host == "mixed-summand search"), e
            shifted += is_shift
    assert shifted == 27


def _ends(k4, e):
    return k4.vertex(e.source), k4.vertex(e.target)


def test_cusp_stratum_judges_each_host_once(k4, monkeypatch):
    # the 117 walls have 117 distinct hosts, each judged on first sight
    fresh = {e: _verdict.__wrapped__(_host(k4, e)) for e in k4.edges}
    _verdict.cache_clear()
    first = {e: cusp_stratum(_ends(k4, e)) for e in k4.edges}
    assert first == fresh
    hosts = {_host(k4, e) for e in k4.edges}
    assert _verdict.cache_info().misses == len(hosts) == 117

    def fail(expr):
        raise AssertionError(f"{expr} judged twice")

    monkeypatch.setattr(realcubic.walls, "find_a2_pair", fail)
    monkeypatch.setattr(realcubic.walls, "refute_a2_mod2", fail)
    assert all(cusp_stratum(_ends(k4, e)) is v for e, v in first.items())


def test_cached_hosts_still_check_the_move(k4):
    for pair in (("C0,1", "C0,0"), ("C0,0", "C2,0")):
        src, dst = (k4.vertex(VertexId.parse(x)) for x in pair)
        for v in (src, dst):
            _verdict(v.m_minus), _verdict(v.m_plus0)
        with pytest.raises(ValueError, match="not adjacent by one move"):
            cusp_stratum((src, dst))


def test_to_dict_cannot_touch_the_cached_verdict(k4):
    ends = k4.vertex(VertexId(0, 0)), k4.vertex(VertexId(0, 1))
    verdict = cusp_stratum(ends)
    want = verdict.to_dict()
    d = verdict.to_dict()
    d["verdict"] = "No"
    d["certificate"]["v1"].append(99)
    d["certificate"]["v2"][0] += 1
    assert cusp_stratum(ends) is verdict
    assert verdict.to_dict() == want


# C0,9:C1,9 is an L-wall into <-2>+A2: the simple roots of A2 are an A2 pair
# whose difference is a 6-root, and there is no U to shift it by
@pytest.mark.parametrize("forge", [
    lambda c: A2Certificate(c.v1, tuple(-x for x in c.v2), c.host),  # +1
    lambda c: c,  # v1 - v2 a 6-root: the mod-3 shift skipped
], ids=["pairing", "six-root"])
def test_cusp_stratum_rejects_a_forged_certificate(k4, monkeypatch, forge):
    ends = k4.vertex(VertexId(0, 9)), k4.vertex(VertexId(1, 9))
    assert cusp_stratum(ends).kind == "Unknown"
    monkeypatch.setattr(realcubic.walls, "_mod3_pair",
                        lambda cert, g: forge(cert))
    _verdict.cache_clear()
    with pytest.raises(AssertionError, match="fails its check"):
        cusp_stratum(ends)


def test_find_a2_pair_checks_no_pairing(k4, monkeypatch):
    # both constructions are A2 pairs by algebra: the search computes no
    # inner product, and every pair it returns still verifies
    hosts = [_host(k4, e) for e in k4.edges]
    assert len(set(hosts)) == 117
    want = [find_a2_pair(expr) for expr in hosts]

    def fail(self, v, w):
        raise AssertionError("find_a2_pair computed an inner product")

    monkeypatch.setattr(GramMatrix, "inner", fail)
    assert [find_a2_pair(expr) for expr in hosts] == want
    monkeypatch.undo()
    assert sum(c is not None for c in want) == 115
    assert all(c is None or c.verify(gram(expr))
               for c, expr in zip(want, hosts))


def test_verdict_checks_the_certificate(k4, monkeypatch):
    # _verdict's check is the one check of a certificate
    monkeypatch.setattr(A2Certificate, "verify", lambda self, g: False)
    _verdict.cache_clear()
    with pytest.raises(AssertionError, match="fails its check"):
        cusp_stratum((k4.vertex(VertexId(0, 0)), k4.vertex(VertexId(0, 1))))
