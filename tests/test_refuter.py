"""Differential and hand tests of the mod-2 refuter.

The oracle is the former library code, kept as it was but for the product
that pairs the candidates: it sweeps all 2^rank classes of L/2L in numpy and
pairs every candidate class with every other, mod 2.
The library decides the same predicate from an F2 normal form (radical plus
symplectic planes, and the Arf invariant) without listing the classes.
"""

import itertools
import random
from typing import Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from realcubic.lattices import (
    LatticeError,
    LatticeExpr,
    gram,
    parse_lattice_expr,
)
from realcubic.walls import Mod2Refutation, find_a2_pair, refute_a2_mod2

# largest candidate count the mod-2 refuter pairs: its float64 product is
# then 2 GiB
_MAX_CANDIDATES = 1 << 14


def oracle_refute_a2_mod2(expr: LatticeExpr) -> Optional[Mod2Refutation]:
    """Prove no v1, v2 with squares 2 and pairing -1 exist, or return None.

    Sound but incomplete: sweeps the 2^rank classes of L/2L, keeps those whose
    representatives have norm = 2 mod 4 (a class invariant, necessary for
    containing a square-2 vector), and refutes when every candidate pair has
    even pairing mod 2.
    """
    # numpy costs about 0.1 s to import and only this sweep needs it, so
    # commands that never refute do not pay for it
    import numpy as np

    g = gram(expr)
    rank = g.rank
    if rank > 16:
        raise LatticeError("mod-2 refutation limited to rank <= 16")
    gm = np.array(g.rows(), dtype=np.int64)
    # all residue classes as rows of a (2^rank, rank) 0/1 matrix: the bits
    # of 0 .. 2^rank - 1, in itertools.product order
    classes = np.arange(1 << rank)[:, None] >> np.arange(rank - 1, -1, -1) & 1
    norms = np.einsum("ij,jk,ik->i", classes, gm, classes)
    cand = classes[norms % 4 == 2]
    if len(cand) == 0:
        return Mod2Refutation(0, rank)
    if len(cand) > _MAX_CANDIDATES:
        raise LatticeError(f"mod-2 refutation limited to {_MAX_CANDIDATES} "
                           f"candidate classes, got {len(cand)}")
    # every candidate pair's pairing mod 2, as the product of the candidates'
    # pairings with the basis, reduced mod 2, and the candidates: its entries
    # are counts of at most `rank` ones, so float64, which BLAS multiplies,
    # holds them exactly (an int64 product is an unblocked loop)
    parities = ((cand @ gm) % 2).astype(np.float64)
    pairings = (parities @ cand.T.astype(np.float64)).astype(np.uint8)
    if not (pairings & 1).any():
        return Mod2Refutation(len(cand), rank)
    return None


def assert_matches_oracle(expr: LatticeExpr) -> Optional[Mod2Refutation]:
    got, want = refute_a2_mod2(expr), oracle_refute_a2_mod2(expr)
    assert got == want and str(got) == str(want), expr
    return got


def test_matches_oracle_on_atlas_eigenlattices(k4):
    seen = 0
    for v in k4.vertices.values():
        for expr in (v.m_plus0, v.m_minus):
            if expr.rank <= 12:
                assert_matches_oracle(expr)
                seen += 1
    assert seen == 97


# odd atoms have an odd diagonal entry, so U is a proper subspace of L/2L
EVEN_ATOMS = ["A1", "A2", "A3", "D4", "E6", "U", "<2>", "<-2>", "<6>"]
ODD_ATOMS = ["<1>", "<-1>", "<3>", "<-3>", "<5>"]


def random_expr(rng: random.Random, max_rank: int) -> LatticeExpr:
    while True:
        terms = []
        for _ in range(rng.randint(1, 5)):
            t = rng.choice(ODD_ATOMS if rng.random() < 0.3 else EVEN_ATOMS)
            if (s := rng.randint(1, 4)) > 1:
                t += f"({s})"
            if rng.random() < 0.3:
                t = f"{rng.randint(2, 3)}*{t}"
            terms.append(t)
        expr = parse_lattice_expr("+".join(terms))
        if expr.rank <= max_rank:
            return expr


def test_matches_oracle_on_random_expressions():
    rng = random.Random(14)
    kinds = {"none": 0, "zero": 0, "positive": 0}
    for _ in range(2000):
        got = assert_matches_oracle(random_expr(rng, 12))
        kind = ("none" if got is None
                else "zero" if got.candidate_classes == 0 else "positive")
        kinds[kind] += 1
    # not refuted, refuted with no candidates, refuted with some: all occur
    assert min(kinds.values()) > 100, kinds


@pytest.mark.parametrize("text,count", [
    ("U", 1), ("U+E8(2)", 256), ("U(2)+E8(2)", 0), ("<1>", 0),
])
def test_refutation_counts(text, count):
    expr = parse_lattice_expr(text)
    assert refute_a2_mod2(expr) == Mod2Refutation(count, expr.rank)


def test_refutes_past_the_former_caps():
    # rank 18 and 2^16 candidate classes, over the sweep's rank-16 and
    # 2^14-candidate bounds. Sound by parity: write v = (a, b, w) with w in
    # 2*E8(2), whose norms are multiples of 4; then v^2 = 2ab + w^2 = 2
    # forces ab odd, so a, b are odd, and v1.v2 = a1 b2 + a2 b1 + w1.w2 is
    # even (a sum of two odd numbers plus an even pairing), never -1.
    expr = parse_lattice_expr("U+2*E8(2)")
    r = refute_a2_mod2(expr)
    assert r == Mod2Refutation(65536, 18)
    assert str(r) == ("all 65536 candidate classes mod 2L pair evenly "
                      "(rank 18 residue sweep)")


def box_a2_pair(expr: LatticeExpr) -> bool:
    """Whether v1, v2 with squares 2 and pairing -1 exist among the vectors
    of coordinates in [-2, 2]."""
    import numpy as np

    g = np.array(gram(expr).rows(), dtype=np.int64)
    box = np.array(list(itertools.product(range(-2, 3), repeat=len(g))),
                   dtype=np.int64)
    roots = box[np.einsum("ij,jk,ik->i", box, g, box) == 2]
    return bool((roots @ g @ roots.T == -1).any())


@st.composite
def small_sums(draw) -> LatticeExpr:
    """A sum of grammar atoms of rank <= 6, U, <k> and scales included."""
    terms, rank = [], 0
    for _ in range(draw(st.integers(1, 4))):
        atom = draw(st.sampled_from(["A1", "A2", "A3", "A6", "D4", "D6", "E6",
                                     "U", "<k>"]))
        if atom == "<k>":
            atom = f"<{draw(st.integers(-6, 6).filter(bool))}>"
        scale = draw(st.sampled_from((1, 1, 1, 2, 3)))  # pairs need 1
        term = parse_lattice_expr(f"{draw(st.integers(1, 3))}*{atom}({scale})")
        if rank + term.rank > 6:
            break
        terms.append(term.terms[0])
        rank += term.rank
    return LatticeExpr(tuple(terms)) if terms else parse_lattice_expr("U")


def test_refuter_is_sound_against_box_search():
    seen = {"refuted": 0, "found": 0}

    @settings(max_examples=120, derandomize=True, database=None,
              deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(small_sums())
    def check(expr):
        refutation, pair = refute_a2_mod2(expr), find_a2_pair(expr)
        if refutation is not None:
            seen["refuted"] += 1
            assert not box_a2_pair(expr), expr
        if pair is not None:
            seen["found"] += 1
            assert pair.verify(gram(expr)) and refutation is None, expr

    check()
    # both branches are exercised, not just the vacuous one
    assert min(seen.values()) >= 20, seen
