"""Differential tests of signature and enumerate_norm_vectors against oracles.

The oracles are the former library code: a congruence diagonalization in
Fractions for the signature, and a Fraction Cholesky (LDL) with a float
square-root bound for the short-vector search. They are kept as they were,
except that the enumeration oracle calls the signature oracle. The library
gets both from one integer (Bareiss) elimination and bounds the search with
integer square roots. The signature eliminates each orthogonal component on
its own; block-diagonal matrices with their rows and columns permuted, so
that the components interleave, check the split against the oracle.
"""

import math
import random
from fractions import Fraction

import pytest

from realcubic.lattices import (
    DegenerateLatticeError,
    GramMatrix,
    IndefiniteLatticeError,
    LatticeError,
    Vector,
    _eliminate,
    enumerate_norm_vectors,
    gram,
    gram_from_rows,
    parse_lattice_expr,
    signature,
)


def oracle_signature(g: GramMatrix) -> tuple[int, int]:
    """Inertia (pos, neg) by exact rational congruence diagonalization."""
    n = g.rank
    a = [[Fraction(x) for x in row] for row in g.entries]
    pos = neg = 0
    for k in range(n):
        if a[k][k] == 0:
            fixed = False
            for j in range(k + 1, n):
                if a[j][k] != 0:
                    for s in (1, -1):
                        if a[k][k] + 2 * s * a[j][k] + a[j][j] != 0:
                            for c in range(k, n):
                                a[k][c] += s * a[j][c]
                            for r in range(k, n):
                                a[r][k] += s * a[r][j]
                            fixed = True
                            break
                    if fixed:
                        break
            if not fixed:
                raise DegenerateLatticeError("degenerate Gram matrix")
        p = a[k][k]
        if p > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if a[i][k]:
                c = a[i][k] / p
                for j in range(k, n):
                    a[i][j] -= c * a[k][j]
        for j in range(k + 1, n):
            a[k][j] = Fraction(0)
            a[j][k] = Fraction(0)
    return pos, neg


def oracle_enumerate_norm_vectors(g: GramMatrix, norm: int) -> list[Vector]:
    """All v with v.g.v == norm in a positive definite lattice, sorted.

    Depth-first search with exact rational Cholesky (LDL) bounds.
    """
    if norm <= 0:
        raise LatticeError("norm must be positive")
    pos, neg = oracle_signature(g)
    if neg > 0:
        raise IndefiniteLatticeError(
            "short-vector enumeration requires a positive definite lattice")
    n = g.rank
    # G = R^T D R with R unit upper triangular
    d = [Fraction(0)] * n
    r = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = Fraction(g.entries[i][i]) - sum(d[k] * r[k][i] ** 2 for k in range(i))
        r[i][i] = Fraction(1)
        for j in range(i + 1, n):
            r[i][j] = (Fraction(g.entries[i][j])
                       - sum(d[k] * r[k][i] * r[k][j] for k in range(i))) / d[i]

    out: list[Vector] = []
    x = [0] * n

    def dfs(i: int, rem: Fraction) -> None:
        if i < 0:
            if rem == 0:
                out.append(tuple(x))
            return
        c = sum(r[i][j] * x[j] for j in range(i + 1, n))
        bound = math.sqrt(float(rem / d[i])) if rem > 0 else 0.0
        lo = math.ceil(float(-c) - bound - 1e-9)
        hi = math.floor(float(-c) + bound + 1e-9)
        for xi in range(lo, hi + 1):
            contrib = d[i] * (xi + c) ** 2
            if contrib <= rem:
                x[i] = xi
                dfs(i - 1, rem - contrib)
        x[i] = 0

    dfs(n - 1, Fraction(norm))
    out = [v for v in out if any(v)]
    out.sort()
    return out


def outcome(f, *args):
    """The value of f(*args), or the type of the LatticeError it raises."""
    try:
        return f(*args)
    except LatticeError as exc:
        return type(exc)


ATOMS = ["A1", "A2", "A3", "A5", "D4", "D5", "E6", "E7", "E8", "U",
         "<1>", "<2>", "<-1>", "<-2>", "<3>", "<6>"]


def random_expr(rng, max_rank, atoms=ATOMS):
    while True:
        terms = []
        for _ in range(rng.randint(1, 6)):
            t = rng.choice(atoms)
            if rng.random() < 0.3:
                t += f"({rng.randint(2, 4)})"
            if rng.random() < 0.3:
                t = f"{rng.randint(2, 4)}*{t}"
            terms.append(t)
        expr = parse_lattice_expr("+".join(terms))
        if expr.rank <= max_rank:
            return expr


def random_symmetric(rng, n):
    """Dense symmetric entries in [-3, 3]; zero diagonals are frequent."""
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 0 if rng.random() < 0.4 else rng.randint(-3, 3)
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = rng.randint(-3, 3)
    return g


def random_singular(rng, n):
    """E^T H E with E = [I | c] of shape (n-1) x n: rank at most n - 1."""
    h = random_symmetric(rng, n - 1)
    e = [[int(i == j) for j in range(n - 1)] + [rng.randint(-2, 2)]
         for i in range(n - 1)]
    return [[sum(e[a][i] * h[a][b] * e[b][j]
                 for a in range(n - 1) for b in range(n - 1))
             for j in range(n)] for i in range(n)]


def nondegenerate_block(rng):
    """One orthogonal summand: U(k), <-k>, an atom of the grammar, or a
    dense nondegenerate block."""
    kind = rng.randrange(4)
    if kind == 0:
        k = rng.randint(1, 3)
        return [[0, k], [k, 0]]
    if kind == 1:
        return [[-rng.randint(1, 6)]]
    if kind == 2:
        return gram(parse_lattice_expr(rng.choice(ATOMS))).rows()
    while True:
        rows = random_symmetric(rng, rng.randint(2, 4))
        if outcome(oracle_signature, gram_from_rows(rows)) is not \
                DegenerateLatticeError:
            return rows


def interleaved_blocks(rng, degenerate=False):
    """(rows, parts): a random orthogonal sum of 2-5 summands, one of them
    singular if ``degenerate``, conjugated by a random permutation; parts
    lists each summand's indices in the permuted matrix."""
    blocks = [nondegenerate_block(rng) for _ in range(rng.randint(2, 5))]
    if degenerate:
        blocks[rng.randrange(len(blocks))] = rng.choice(
            ([[0]], [[1, 1], [1, 1]], random_singular(rng, rng.randint(2, 4))))
    n = sum(len(b) for b in blocks)
    perm = list(range(n))
    rng.shuffle(perm)
    where = {old: new for new, old in enumerate(perm)}
    full = [[0] * n for _ in range(n)]
    parts, pos = [], 0
    for b in blocks:
        k = len(b)
        for i in range(k):
            full[pos + i][pos:pos + k] = b[i]
        parts.append({where[pos + i] for i in range(k)})
        pos += k
    return [[full[i][j] for j in perm] for i in perm], parts


def former_signature(g: GramMatrix) -> tuple[int, int]:
    """The former library signature: one elimination of the whole matrix."""
    minors, _ = _eliminate(g.rows())
    neg = sum((p > 0) != (d > 0) for p, d in zip((1, *minors), minors))
    return g.rank - neg, neg


def test_components_refine_the_orthogonal_summands():
    rng = random.Random(17)
    for i in range(300):
        rows, parts = interleaved_blocks(rng, degenerate=i % 3 == 0)
        comps = gram_from_rows(rows).components
        assert sorted(j for c in comps for j in c) == list(range(len(rows)))
        for c in comps:
            assert list(c) == sorted(c)
            assert sum(1 for p in parts if set(c) <= p) == 1, (rows, comps)
            # no entry links a component to the rest
            assert all(rows[i][j] == 0 for i in c
                       for j in range(len(rows)) if j not in c)
        if len(parts) > 1:
            assert len(comps) >= len(parts)


def test_signature_matches_oracle_on_interleaved_components():
    rng = random.Random(18)
    seen = {"value": 0, "degenerate": 0, "zero pivot": 0, "negative": 0}
    for i in range(600):
        rows, _ = interleaved_blocks(rng, degenerate=i % 4 == 0)
        g = gram_from_rows(rows)
        got = outcome(signature, g)
        assert got == outcome(oracle_signature, g), rows
        if got is DegenerateLatticeError:
            with pytest.raises(DegenerateLatticeError,
                               match="^degenerate Gram matrix$"):
                signature(g)
            seen["degenerate"] += 1
            continue
        seen["value"] += 1
        seen["zero pivot"] += any(r[i] == 0 for i, r in enumerate(rows))
        seen["negative"] += got[1] > 0
    assert seen["value"] > 300 and seen["degenerate"] >= 150
    assert seen["zero pivot"] > 30 and seen["negative"] > 200


def dense_symmetric(rng, n):
    """random_symmetric with every zero off the diagonal made 1: one
    component, the whole matrix."""
    g = random_symmetric(rng, n)
    for i in range(n):
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = g[i][j] or 1
    return g


def test_signature_on_one_dense_component_is_unchanged():
    rng = random.Random(19)
    for _ in range(500):
        n = rng.randint(1, 7)
        g = gram_from_rows(dense_symmetric(rng, n))
        assert g.components == (tuple(range(n)),)
        assert outcome(signature, g) == outcome(former_signature, g)


def test_signature_matches_oracle_on_atlas_eigenlattices(k4):
    seen = 0
    for v in k4.vertices.values():
        for expr in (v.m_plus0, v.m_minus):
            g = gram(expr)
            assert signature(g) == oracle_signature(g) == (g.rank - 1, 1), expr
            seen += 1
    assert seen == 150


def test_signature_matches_oracle_on_random_expressions():
    rng = random.Random(11)
    negs = set()
    for _ in range(1000):
        g = gram(random_expr(rng, 22))
        sig = signature(g)
        assert sig == oracle_signature(g), g.entries
        negs.add(sig[1])
    # several negative indices occur, two or more among them
    assert {0, 1, 2, 3} <= negs


def test_signature_matches_oracle_on_dense_matrices():
    rng = random.Random(12)
    kinds = {}
    for i in range(3000):
        n = rng.randint(1, 8)
        rows = (random_singular(rng, n) if n > 1 and i % 4 == 0
                else random_symmetric(rng, n))
        g = gram_from_rows(rows)
        got = outcome(signature, g)
        assert got == outcome(oracle_signature, g), rows
        kind = got if isinstance(got, type) else "value"
        kinds[kind] = kinds.get(kind, 0) + 1
    # both the value and the degenerate branch are compared many times
    assert kinds["value"] > 1000 and kinds[DegenerateLatticeError] > 500


def test_signature_zero_pivots_need_the_congruence():
    # zero leading entries, a zero pivot after a nonzero one, and a zero
    # pivot whose fix must take s = -1 (2 a_jk + a_jj = 0)
    for rows, sig in [([[0, 1], [1, 0]], (1, 1)),
                      ([[0, 1, 0], [1, 0, 0], [0, 0, -1]], (1, 2)),
                      ([[1, 1, 0], [1, 1, 1], [0, 1, 0]], (2, 1)),
                      ([[0, -1], [-1, 2]], (1, 1)),
                      ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], (1, 2))]:
        g = gram_from_rows(rows)
        assert signature(g) == oracle_signature(g) == sig


def test_enumeration_matches_oracle_on_definite_expressions():
    rng = random.Random(13)
    definite = [a for a in ATOMS if a != "U" and "-" not in a]
    counted = 0
    for _ in range(40):
        g = gram(random_expr(rng, 10, definite))
        for norm in (1, 2, 3, 4):
            got = enumerate_norm_vectors(g, norm)
            assert got == oracle_enumerate_norm_vectors(g, norm), (g, norm)
            counted += len(got)
    assert counted > 1000


def test_enumeration_matches_oracle_on_dense_definite_matrices():
    # A^T A + I is positive definite and far from block diagonal, so the
    # minors and the lcm scale differ from those of any root lattice
    rng = random.Random(14)
    counted = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        rows = [[sum(a[k][i] * a[k][j] for k in range(n)) + (i == j)
                 for j in range(n)] for i in range(n)]
        g = gram_from_rows(rows)
        for norm in (1, 2, 3, 4, 7):
            got = enumerate_norm_vectors(g, norm)
            assert got == oracle_enumerate_norm_vectors(g, norm), (rows, norm)
            counted += len(got)
    assert counted > 200


def test_enumeration_rejects_like_the_oracle():
    rng = random.Random(15)
    for _ in range(300):
        n = rng.randint(1, 6)
        g = gram_from_rows(random_symmetric(rng, n))
        assert (outcome(enumerate_norm_vectors, g, 2)
                == outcome(oracle_enumerate_norm_vectors, g, 2))
    for rows, exc in [([[1, 1], [1, 1]], DegenerateLatticeError),
                      ([[2, 0], [0, -2]], IndefiniteLatticeError),
                      ([[0, 1], [1, 0]], IndefiniteLatticeError)]:
        g = gram_from_rows(rows)
        assert outcome(enumerate_norm_vectors, g, 2) is exc
        assert outcome(oracle_enumerate_norm_vectors, g, 2) is exc


def test_enumeration_count_past_the_oracle():
    # 2*E8 at norm 4: a norm-4 vector in one factor, or a root in each
    vecs = enumerate_norm_vectors(gram(parse_lattice_expr("2*E8")), 4)
    assert len(vecs) == 2 * 2160 + 240 * 240
