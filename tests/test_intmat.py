import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_elimination import dense_symmetric, interleaved_blocks

from realcubic.intmat import (
    cokernel,
    det,
    identity,
    is_unimodular,
    matmul,
    smith_normal_form,
)
from realcubic.lattices import gram_from_rows


def random_matrix(rng, rows, cols, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(cols)]
            for _ in range(rows)]


def test_det_small_cases():
    assert det([[2]]) == 2
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[2, -1], [-1, 2]]) == 3
    assert det([[1, 2], [2, 4]]) == 0
    assert det([]) == 1


def test_det_matches_cofactor_expansion(rng):
    def cofactor(m):
        n = len(m)
        if n == 1:
            return m[0][0]
        return sum((-1) ** j * m[0][j]
                   * cofactor([r[:j] + r[j + 1:] for r in m[1:]])
                   for j in range(n))

    for _ in range(50):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n)
        assert det(m) == cofactor(m)


def test_det_multiplicative(rng):
    for _ in range(30):
        n = rng.randint(1, 4)
        a, b = random_matrix(rng, n, n), random_matrix(rng, n, n)
        assert det(matmul(a, b)) == det(a) * det(b)


def test_gram_det_over_interleaved_components_matches_whole_det():
    # GramMatrix.det multiplies the determinants of the components
    rng = random.Random(20)
    zero = 0
    for i in range(400):
        rows, _ = interleaved_blocks(rng, degenerate=i % 4 == 0)
        g = gram_from_rows(rows)
        assert len(g.components) >= 2
        d = g.det()
        assert d == det(rows), rows
        zero += d == 0
    assert zero >= 100


def test_gram_det_on_one_dense_component_is_unchanged():
    rng = random.Random(21)
    for _ in range(300):
        n = rng.randint(1, 7)
        rows = dense_symmetric(rng, n)
        g = gram_from_rows(rows)
        assert g.components == (tuple(range(n)),)
        assert g.det() == det(rows)


@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (4, 2), (2, 5), (6, 6)])
def test_snf_contract_random(shape, rng):
    rows, cols = shape
    for _ in range(40):
        m = random_matrix(rng, rows, cols)
        factors, u, v = smith_normal_form(m)
        assert is_unimodular(u) and is_unimodular(v)
        prod = matmul(u, matmul(m, v))
        for i in range(rows):
            for j in range(cols):
                assert prod[i][j] == (factors[i] if i == j else 0)
        for a, b in zip(factors, factors[1:]):
            assert a >= 0
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0


def rational_rank(m) -> int:
    """Rank over Q by Gaussian elimination on Fractions."""
    a = [[Fraction(x) for x in row] for row in m]
    rank = 0
    for c in range(len(a[0])):
        piv = next((r for r in range(rank, len(a)) if a[r][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for r in range(rank + 1, len(a)):
            f = a[r][c] / a[rank][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


@st.composite
def integer_matrices(draw) -> list[list[int]]:
    """A 1..7 x 1..7 matrix with |entries| <= 20; half of them a product
    A B through Z^k, k < min(rows, cols), so rank-deficient."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))

    def block(r, c, bound):
        return [[draw(st.integers(-bound, bound)) for _ in range(c)]
                for _ in range(r)]

    if draw(st.booleans()):
        return block(rows, cols, 20)
    k = draw(st.integers(0, min(rows, cols) - 1))
    if k == 0:
        return [[0] * cols for _ in range(rows)]
    # |entries| <= k * 1 * 3 <= 18
    return matmul(block(rows, k, 1), block(k, cols, 3))


def test_snf_contract_and_switches_property():
    seen = {"deficient": 0, "nontrivial": 0}

    @settings(max_examples=300, derandomize=True, database=None,
              deadline=None)
    @given(integer_matrices())
    def check(m):
        rows, cols = len(m), len(m[0])
        factors, u, v = smith_normal_form(m)
        assert is_unimodular(u) and is_unimodular(v)
        assert matmul(u, matmul(m, v)) == [
            [factors[i] if i == j else 0 for j in range(cols)]
            for i in range(rows)]
        assert len(factors) == min(rows, cols)
        assert all(f >= 0 for f in factors)
        for a, b in zip(factors, factors[1:]):
            assert b == 0 if a == 0 else b % a == 0
        rank = rational_rank(m)
        assert all(factors[:rank]) and not any(factors[rank:])
        for want_u, want_v in ((False, True), (True, False), (False, False)):
            assert smith_normal_form(m, u=want_u, v=want_v) == (
                factors, u if want_u else None, v if want_v else None)
        seen["deficient"] += rank < min(rows, cols)
        seen["nontrivial"] += any(f > 1 for f in factors)

    check()
    # both rank-deficient and nontrivially divisible cases were drawn
    assert seen["deficient"] >= 50 and seen["nontrivial"] >= 50


def test_snf_examples():
    assert smith_normal_form([[2, 0], [0, 2]])[0] == [2, 2]
    assert smith_normal_form([[1, -1, -1], [-1, 3, -1], [-1, -1, 5]])[0] \
        == [1, 2, 2]


def test_cokernel_order_equals_det(rng):
    for _ in range(40):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n)
        d = det(m)
        torsion, free = cokernel(m)
        if d == 0:
            assert free > 0
        else:
            order = 1
            for t in torsion:
                order *= t
            assert free == 0 and order == abs(d)


def test_identity_and_matmul():
    m = [[1, 2], [3, 4]]
    assert matmul(identity(2), m) == m
    assert matmul(m, identity(2)) == m
