"""Differential tests of discriminant_form against a Fraction oracle.

The oracle is the direct construction: generators v_i / d_i from the Smith
normal form, every pairing x^T G y summed in Fractions, and the 2-primary
part enumerated element by element to decide whether q is integer-valued on
it. The library keeps the integer columns v_i and the integer matrix
W = V^T G V, from which the tests read q and b, and decides the 2-part by a
divisibility criterion instead.
"""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from realcubic.intmat import smith_normal_form
from realcubic.lattices import (
    LatticeExpr,
    discriminant_form,
    discriminant_group,
    gram,
    parse_lattice_expr,
)

# the enumeration visits every element of the 2-primary part
ORACLE_TWO_PRIMARY_CAP = 1 << 14


def _mod(x, m):
    return x - m * (x / m).__floor__()


def _two_part(d):
    t = 1
    while d % 2 == 0:
        d //= 2
        t *= 2
    return t


def oracle_form(g):
    """(factors > 1, generators, q_values, b_values, two_part_integer)."""
    n = g.rank
    factors, _, v = smith_normal_form(g.rows())
    gens, orders = [], []
    for i, d in enumerate(factors):
        if d > 1:
            gens.append(tuple(Fraction(v[r][i], d) for r in range(n)))
            orders.append(d)
    # G y in Fractions, once per generator; pair(x, y) = x . (G y)
    g_gens = [[sum(g.entries[r][c] * y[c] for c in range(n))
               for r in range(n)] for y in gens]

    def pair(x, b):
        return sum(x[r] * g_gens[b][r] for r in range(n))

    q_vals = tuple(_mod(pair(x, a), 2) for a, x in enumerate(gens))
    b_vals = tuple(tuple(_mod(pair(x, b), 1) for b in range(len(gens)))
                   for x in gens)

    # q(sum c_i y_i) over every element of the 2-primary part, y_i of order
    # t_i; with a common denominator integrality is an integer congruence
    two_orders = [_two_part(d) for d in orders]
    assert math.prod(two_orders) <= ORACLE_TWO_PRIMARY_CAP
    idx = [k for k, t in enumerate(two_orders) if t > 1]
    den = 1
    for k in idx:
        den = math.lcm(den, two_orders[k] ** 2)
    num = {}
    for a in idx:
        for b in idx:
            val = pair(gens[a], b) * (orders[a] // two_orders[a]) \
                * (orders[b] // two_orders[b]) * den
            assert val.denominator == 1
            num[a, b] = int(val)
    integer = True
    counters = {k: 0 for k in idx}
    while True:
        q_num = sum(counters[a] * counters[b] * num[a, b]
                    for a in idx for b in idx)
        if q_num % den:
            integer = False
            break
        for k in idx:
            counters[k] += 1
            if counters[k] < two_orders[k]:
                break
            counters[k] = 0
        else:
            break
    return tuple(orders), tuple(gens), q_vals, b_vals, integer


def assert_matches_oracle(g, label):
    df = discriminant_form(g)
    assert all(type(x) is int for v in df.generators for x in v), label
    assert all(type(x) is int for row in df.w for x in row), label
    orders = df.group.invariant_factors
    gens = tuple(tuple(Fraction(x, d) for x in v)
                 for v, d in zip(df.generators, orders))
    # b(g_i, g_j) = W_ij / (d_i d_j) mod 1
    b_vals = tuple(tuple(_mod(Fraction(x, di * dj), 1)
                         for x, dj in zip(row, orders))
                   for row, di in zip(df.w, orders))
    assert all(d > 0 and math.gcd(n, d) == 1 for n, d in df.q_values), label
    q_vals = tuple(Fraction(*q) for q in df.q_values)
    got = (orders, gens, q_vals, b_vals, df.two_part_integer)
    assert got == oracle_form(g), label
    assert df.group.two_rank == sum(1 for d in got[0] if d % 2 == 0), label


def two_primary_order(g):
    factors, _, _ = smith_normal_form(g.rows())
    return math.prod(_two_part(d) for d in factors if d > 1)


def test_matches_oracle_on_examples():
    for text in ["<2>", "U(2)", "E8(2)", "<6>"]:
        assert_matches_oracle(gram(parse_lattice_expr(text)), text)


ATOMS = ["A1", "A2", "A3", "A4", "D4", "D5", "E6", "E7", "E8", "U",
         "<2>", "<-2>", "<4>", "<6>", "<-1>", "<3>", "<12>", "<-8>"]


def random_small_expr(rng, max_rank=8):
    while True:
        terms = []
        for _ in range(rng.randint(1, 4)):
            t = rng.choice(ATOMS)
            if rng.random() < 0.4:
                t += f"({rng.randint(2, 4)})"
            if rng.random() < 0.3:
                t = f"{rng.randint(2, 3)}*{t}"
            terms.append(t)
        expr = parse_lattice_expr("+".join(terms))
        if expr.rank <= max_rank:
            return expr


def test_matches_oracle_on_random_expressions():
    rng = random.Random(20240906)
    checked = verdicts = 0
    while checked < 300:
        expr = random_small_expr(rng)
        g = gram(expr)
        if two_primary_order(g) > ORACLE_TWO_PRIMARY_CAP:
            continue
        assert_matches_oracle(g, str(expr))
        checked += 1
        verdicts += discriminant_form(g).two_part_integer
    # both verdicts occur, so the comparison exercises both branches
    assert 0 < verdicts < checked


def test_matches_oracle_on_atlas_eigenlattices(k4):
    seen = 0
    for v in k4.vertices.values():
        for expr in (v.m_plus0, v.m_minus):
            assert_matches_oracle(gram(expr), f"{v.id}: {expr}")
            # the form's group is the cokernel of G, as the group alone is
            g = gram(expr)
            assert discriminant_form(g).group == discriminant_group(g), expr
            seen += 1
    assert seen == 150


def test_no_two_primary_cap():
    # 2-primary part of order 2^24, past what an enumeration can visit
    df = discriminant_form(gram(parse_lattice_expr("3*E8(2)")))
    assert df.group.invariant_factors == (2,) * 24
    assert df.two_part_integer


def _scaled_inverse(rows, det):
    """det * G^-1, an integer matrix, by Gauss-Jordan over Fractions."""
    n = len(rows)
    a = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(rows)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c])
        a[c], a[p] = a[p], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                a[r] = [x - a[r][c] * y for x, y in zip(a[r], a[c])]
    inv = [[x * det for x in r[n:]] for r in a]
    assert all(x.denominator == 1 for r in inv for x in r)
    return [[int(x) for x in r] for r in inv]


def brute_element_orders(g):
    """Counter of element orders of L*/L, from the classes of G^-1 e mod Z^n
    for every e in [0, |det|)^n."""
    import numpy as np

    d = abs(g.det())
    inv = np.array(_scaled_inverse(g.rows(), d), dtype=np.int64)
    e = np.array(list(itertools.product(range(d), repeat=g.rank)),
                 dtype=np.int64)
    classes = np.unique(e @ inv.T % d, axis=0)  # d * (G^-1 e mod Z^n)
    return Counter(d // math.gcd(d, *map(int, c)) for c in classes)


def group_element_orders(factors):
    """Counter of element orders of Z/d_1 + ... + Z/d_k."""
    return Counter(
        math.lcm(*(d // math.gcd(c, d) for c, d in zip(cs, factors)))
        for cs in itertools.product(*map(range, factors)))


@st.composite
def small_nondegenerate_sums(draw) -> LatticeExpr:
    """A grammar sum of rank <= 4 with |det| <= 12, scales included."""
    terms, rank = [], 0
    for _ in range(draw(st.integers(1, 4))):
        atom = draw(st.sampled_from(["A1", "A2", "A3", "A4", "D4", "U",
                                     "<k>"]))
        if atom == "<k>":
            atom = f"<{draw(st.integers(-12, 12).filter(bool))}>"
        scale = draw(st.sampled_from((1, 1, 1, 2, 3)))
        term = parse_lattice_expr(f"{draw(st.integers(1, 2))}*{atom}({scale})")
        if rank + term.rank > 4:
            break
        terms.append(term.terms[0])
        rank += term.rank
    expr = LatticeExpr(tuple(terms)) if terms else parse_lattice_expr("U")
    assume(abs(gram(expr).det()) <= 12)
    return expr


def test_discriminant_group_matches_brute_force_enumeration():
    seen = Counter()

    @settings(max_examples=150, derandomize=True, database=None,
              deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.filter_too_much])
    @given(small_nondegenerate_sums())
    def check(expr):
        g = gram(expr)
        factors = discriminant_group(g).invariant_factors
        orders = brute_element_orders(g)
        assert sum(orders.values()) == abs(g.det()), expr
        assert orders == group_element_orders(factors), expr
        seen[len(factors)] += 1

    check()
    # trivial, cyclic and non-cyclic groups all occur
    assert {0, 1, 2} <= set(seen), seen
