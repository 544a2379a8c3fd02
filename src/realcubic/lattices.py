"""Exact arithmetic on integer lattices.

Covers the lattice-expression language of the classification tables
(A_n, D_n, E6/E7/E8, U, rank-1 <k>, integer rescaling), Gram matrices (one
per expression), signatures and determinants by fraction-free (Bareiss)
elimination of each orthogonal component, discriminant groups and
finite quadratic forms, short-vector enumeration in definite lattices with
exact integer bounds from the same elimination, and 6-roots. Inertia,
determinant and the 2-part of the discriminant form are computed once per
distinct component, memoized by its entries, and added up over the sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .intmat import det, matmul, smith_normal_form

Vector = tuple[int, ...]


class LatticeError(ValueError):
    pass


class ParseError(LatticeError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DegenerateLatticeError(LatticeError):
    pass


class IndefiniteLatticeError(LatticeError):
    pass


# ---------------------------------------------------------------------------
# lattice expressions


@dataclass(frozen=True)
class Term:
    """One summand: ``mult`` copies of an atom, form rescaled by ``scale``.

    ``kind`` is one of "A", "D", "E", "U", "diag"; for "diag" the field ``n``
    is the (nonzero) diagonal entry k of the rank-1 form <k>.
    """

    mult: int
    kind: str
    n: int
    scale: int = 1

    def __post_init__(self):
        if self.mult < 1:
            raise LatticeError(f"multiplicity must be >= 1, got {self.mult}")
        if self.scale < 1:
            raise LatticeError(f"scale must be >= 1, got {self.scale}")
        if self.kind == "A" and self.n < 1:
            raise LatticeError(f"A_n requires n >= 1, got n={self.n}")
        if self.kind == "D" and self.n < 4:
            raise LatticeError(f"D_n requires n >= 4, got n={self.n}")
        if self.kind == "E" and self.n not in (6, 7, 8):
            raise LatticeError(f"E_n requires n in 6,7,8, got n={self.n}")
        if self.kind == "diag" and self.n == 0:
            raise LatticeError("rank-1 form <0> is degenerate")
        if self.kind not in ("A", "D", "E", "U", "diag"):
            raise LatticeError(f"unknown atom kind {self.kind!r}")

    @property
    def atom_rank(self) -> int:
        if self.kind == "U":
            return 2
        if self.kind == "diag":
            return 1
        return self.n

    def atom_label(self) -> str:
        if self.kind == "U":
            return "U"
        if self.kind == "diag":
            return f"<{self.n}>"
        return f"{self.kind}{self.n}"

    def __str__(self) -> str:
        s = self.atom_label()
        if self.scale != 1:
            s += f"({self.scale})"
        if self.mult != 1:
            s = f"{self.mult}*{s}"
        return s


@dataclass(frozen=True)
class LatticeExpr:
    terms: tuple[Term, ...]

    @property
    def rank(self) -> int:
        return sum(t.mult * t.atom_rank for t in self.terms)

    def __str__(self) -> str:
        return "+".join(str(t) for t in self.terms)


def parse_lattice_expr(text: str) -> LatticeExpr:
    """Parse the textual grammar; parse o print is the identity.

    expr := term ("+" term)* ; term := [INT "*"] atom ["(" INT ")"] ;
    atom := "A"INT | "D"INT | "E"INT | "U" | "<" SIGNED_INT ">".
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


# ---------------------------------------------------------------------------
# Gram matrices

# E8 in a frozen root basis chosen so that every one of the 240 roots has
# coordinates in [-2, 2] (the Dynkin simple-root basis does not have this
# property: its highest root has a coefficient 6, outside the enumeration
# window used by the brute-force cross-checks).
_E8_GRAM = [
    [2, 1, 0, 1, 0, 0, -1, 0],
    [1, 2, 1, 0, 0, 0, 0, 1],
    [0, 1, 2, 0, 0, 0, 1, 0],
    [1, 0, 0, 2, 1, 0, 0, -1],
    [0, 0, 0, 1, 2, -1, 0, 0],
    [0, 0, 0, 0, -1, 2, 0, -1],
    [-1, 0, 1, 0, 0, 0, 2, 0],
    [0, 1, 0, -1, 0, -1, 0, 2],
]


def _path_gram(n: int) -> list[list[int]]:
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2
    for i in range(n - 1):
        g[i][i + 1] = g[i + 1][i] = -1
    return g


def _atom_gram(term: Term) -> list[list[int]]:
    if term.kind == "U":
        return [[0, 1], [1, 0]]
    if term.kind == "diag":
        return [[term.n]]
    n = term.n
    if term.kind == "A":
        return _path_gram(n)
    if term.kind == "D":
        # path on nodes 0..n-3, nodes n-2 and n-1 both attached to node n-3
        g = _path_gram(n)
        g[n - 2][n - 1] = g[n - 1][n - 2] = 0
        g[n - 3][n - 1] = g[n - 1][n - 3] = -1
        return g
    # E6 / E7: Bourbaki shape, node 1 hangs off node 3 of the path
    if n == 8:
        return [row[:] for row in _E8_GRAM]
    # reorder: path is alpha1-alpha3-alpha4-...-alphan; alpha2 attaches to alpha4
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2
    path = [0] + list(range(2, n))
    for a, b in zip(path, path[1:]):
        g[a][b] = g[b][a] = -1
    g[1][3] = g[3][1] = -1
    return g


@dataclass(frozen=True)
class Block:
    """Location of one atom copy inside a block-diagonal Gram matrix."""

    label: str
    start: int
    size: int
    scale: int


@dataclass(frozen=True)
class GramMatrix:
    entries: tuple[tuple[int, ...], ...]
    blocks: tuple[Block, ...] = ()

    @property
    def rank(self) -> int:
        return len(self.entries)

    def rows(self) -> list[list[int]]:
        return [list(r) for r in self.entries]

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Index sets of the orthogonal summands of G, each ascending.

        They are the connected components of the nonzero pattern of
        ``entries`` (not ``blocks``, which need not cover every row), in
        the order of their least index; a dense G is one component.
        """
        seen = [False] * self.rank
        out = []
        for s in range(self.rank):
            if seen[s]:
                continue
            seen[s] = True
            comp, stack = [s], [s]
            while stack:
                for j, x in enumerate(self.entries[stack.pop()]):
                    if x and not seen[j]:
                        seen[j] = True
                        comp.append(j)
                        stack.append(j)
            out.append(tuple(sorted(comp)))
        return tuple(out)

    @cached_property
    def component_blocks(self) -> tuple[tuple[Vector, ...], ...]:
        """The principal submatrix of each component, as tuples of rows.

        A block is hashable and its key is its content, so the per-block
        memos below share one result among equal blocks of any lattice.
        """
        return tuple(tuple(tuple(self.entries[i][j] for j in c) for i in c)
                     for c in self.components)

    @cached_property
    def _sparse_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The nonzero (j, G_ij) of each row i of G."""
        return tuple(tuple((j, x) for j, x in enumerate(r) if x)
                     for r in self.entries)

    def det(self) -> int:
        """The product of the determinants of the orthogonal components,
        one Bareiss elimination per distinct block (``_block_det``)."""
        return math.prod(_block_det(b) for b in self.component_blocks)

    def apply(self, v: Vector) -> Vector:
        """G.v as the sum of x_j times column j over the nonzero x_j of v;
        G is symmetric, so column j is the sparse row j."""
        _check_dim(self, v)
        out = [0] * self.rank
        rows = self._sparse_rows
        for j, x in enumerate(v):
            if x:
                for i, e in rows[j]:
                    out[i] += e * x
        return tuple(out)

    def inner(self, v: Vector, w: Vector) -> int:
        """v.G.w, summed over the nonzero v_i and the nonzero G_ij only."""
        _check_dim(self, v)
        _check_dim(self, w)
        rows = self._sparse_rows
        return sum(x * sum(e * w[j] for j, e in rows[i])
                   for i, x in enumerate(v) if x)

    def norm(self, v: Vector) -> int:
        return self.inner(v, v)


def _check_dim(g: GramMatrix, v: Vector) -> None:
    if len(v) != g.rank:
        raise LatticeError(f"vector length {len(v)} != lattice rank {g.rank}")


@lru_cache(maxsize=None)
def gram(expr: LatticeExpr) -> GramMatrix:
    """Block-diagonal Gram matrix of the expression, with block layout.

    Built once per expression: ``LatticeExpr`` is frozen and hashable, and a
    ``GramMatrix`` holds only tuples, so every caller can share it.
    """
    blocks: list[Block] = []
    size = expr.rank
    g = [[0] * size for _ in range(size)]
    pos = 0
    for term in expr.terms:
        base = _atom_gram(term)
        k = len(base)
        for _ in range(term.mult):
            for i in range(k):
                for j in range(k):
                    g[pos + i][pos + j] = base[i][j] * term.scale
            blocks.append(Block(term.atom_label(), pos, k, term.scale))
            pos += k
    return GramMatrix(tuple(tuple(r) for r in g), tuple(blocks))


def gram_from_rows(rows: list[list[int]]) -> GramMatrix:
    g = [[int(x) for x in r] for r in rows]
    n = len(g)
    if any(len(r) != n for r in g):
        raise LatticeError("Gram matrix must be square")
    for i in range(n):
        for j in range(n):
            if g[i][j] != g[j][i]:
                raise LatticeError("Gram matrix must be symmetric")
    return GramMatrix(tuple(tuple(r) for r in g))


# ---------------------------------------------------------------------------
# signatures


def _eliminate(a: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Symmetric fraction-free (Bareiss) elimination: (minors D, rows B).

    ``a`` holds the rows of a symmetric G and is reduced in place into B.
    D_1..D_n are the leading principal minors (D_0 = 1) and B the reduced
    integer rows, B_kk = D_k: G = R^T diag(D_k / D_{k-1}) R with
    R_kj = B_kj / D_k for j >= k. Each active entry is a minor (Sylvester's
    identity), so every division by the previous pivot is exact. A zero
    pivot is cleared by adding s times row and column j > k to row and
    column k (s = 1 if 2 a_jk + a_jj != 0, else -1), a congruence that keeps
    the inertia and whose D and B are returned; no such j means degenerate.
    """
    n = len(a)
    minors: list[int] = []
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            j = next((j for j in range(k + 1, n) if a[j][k]), None)
            if j is None:
                raise DegenerateLatticeError("degenerate Gram matrix")
            s = 1 if 2 * a[j][k] + a[j][j] else -1
            for c in range(k, n):
                a[k][c] += s * a[j][c]
            for r in range(n):
                a[r][k] += s * a[r][j]
        p, rk = a[k][k], a[k]
        for i in range(k + 1, n):
            ri, c = a[i], a[i][k]
            for j in range(k + 1, n):
                ri[j] = (p * ri[j] - c * rk[j]) // prev
        minors.append(p)
        prev = p
    return minors, a


@lru_cache(maxsize=None)
def _block_inertia(block: tuple[Vector, ...]) -> tuple[int, int]:
    """Inertia (pos, neg) of one component: neg counts the sign changes
    along 1, D_1..D_k of its elimination."""
    minors, _ = _eliminate([list(r) for r in block])
    neg = sum((p > 0) != (d > 0) for p, d in zip((1, *minors), minors))
    return len(block) - neg, neg


@lru_cache(maxsize=None)
def _block_det(block: tuple[Vector, ...]) -> int:
    return det([list(r) for r in block])


def signature(g: GramMatrix) -> tuple[int, int]:
    """Inertia (pos, neg), summed over the orthogonal components of G.

    A permutation congruence makes G block diagonal, and inertia adds over
    an orthogonal sum (Sylvester). Each distinct component block is
    eliminated once (``_block_inertia``); a degenerate component makes G
    degenerate, and raises on every call.
    """
    neg = sum(_block_inertia(b)[1] for b in g.component_blocks)
    return g.rank - neg, neg


# ---------------------------------------------------------------------------
# discriminant groups and forms


@dataclass(frozen=True)
class DiscriminantGroup:
    invariant_factors: tuple[int, ...]  # each > 1, divisibility chain
    two_rank: int

    @property
    def order(self) -> int:
        out = 1
        for f in self.invariant_factors:
            out *= f
        return out

    def __str__(self) -> str:
        if not self.invariant_factors:
            return "trivial"
        return " + ".join(f"Z/{f}" for f in self.invariant_factors)


def _smith(g: GramMatrix, *, v: bool
           ) -> tuple[list[int], list[list[int]] | None]:
    """Smith factors of a nondegenerate Gram matrix, with its right
    transform V if ``v`` (else None); U is never built."""
    factors, _, right = smith_normal_form(g.rows(), u=False, v=v)
    if 0 in factors:
        raise DegenerateLatticeError("degenerate Gram matrix")
    return factors, right


def _group(factors: list[int]) -> DiscriminantGroup:
    inv = tuple(f for f in factors if f > 1)
    return DiscriminantGroup(inv, sum(1 for f in inv if f % 2 == 0))


def discriminant_group(g: GramMatrix) -> DiscriminantGroup:
    """The sum of Z/d over G's Smith factors d > 1; the Smith form builds
    neither transform."""
    return _group(_smith(g, v=False)[0])


@dataclass(frozen=True)
class DiscriminantForm:
    """Discriminant group of a lattice with its finite forms, in integers.

    Generator i is g_i = v_i / d_i, with v_i = ``generators[i]`` an integer
    column of V in lattice basis coordinates and d_i the i-th invariant
    factor; ``w`` is the integer matrix W = V^T G V over those columns, so

        q(g_i) = W_ii / d_i^2 mod 2,    b(g_i, g_j) = W_ij / (d_i d_j) mod 1.
    """

    group: DiscriminantGroup
    generators: tuple[Vector, ...]
    w: tuple[tuple[int, ...], ...]
    two_part_integer: bool

    @property
    def q_values(self) -> tuple[Fraction, ...]:
        """q(g_i) mod 2 as reduced rationals, for display."""
        return tuple(Fraction(self.w[i][i] % (2 * d * d), d * d)
                     for i, d in enumerate(self.group.invariant_factors))


def discriminant_form(g: GramMatrix) -> DiscriminantForm:
    """Discriminant group of ``g`` with its quadratic and bilinear forms.

    One Smith normal form U*G*V = diag(d) gives everything: the group is
    the sum of Z/d_i over the factors d_i > 1, and g_i = v_i / d_i, with v_i
    the matching columns of V, generate it (G g_i = U^-1 e_i is integral);
    q and b are read off W = V^T G V over those columns. The Smith form
    builds V only: U is never read.

    The 2-primary part is generated by y_i = (d_i / t_i) g_i, where t_i is
    the 2-part of d_i. Since q(x + y) = q(x) + q(y) + 2 b(x, y) exactly, q
    is integer-valued on it iff every q(y_i) = W_ii / t_i^2 and every
    2 b(y_i, y_j) = 2 W_ij / (t_i t_j) is an integer: t_i^2 | W_ii and
    t_i t_j | 2 W_ij (i < j).
    """
    factors, v = _smith(g, v=True)
    group = _group(factors)
    cols = [i for i, d in enumerate(factors) if d > 1]
    vsel = [[row[i] for i in cols] for row in v]
    vt = [list(c) for c in zip(*vsel)]
    w = matmul(vt, matmul(g.rows(), vsel))
    k = len(cols)

    t = [d & -d for d in group.invariant_factors]  # 2-parts of the orders
    integer = (all(w[i][i] % (t[i] * t[i]) == 0 for i in range(k))
               and all(2 * w[i][j] % (t[i] * t[j]) == 0
                       for i in range(k) for j in range(i + 1, k)))
    return DiscriminantForm(group, tuple(map(tuple, vt)),
                            tuple(map(tuple, w)), integer)


@lru_cache(maxsize=None)
def _block_two_part(block: tuple[Vector, ...]) -> tuple[int, bool]:
    form = discriminant_form(GramMatrix(block))
    return form.group.two_rank, form.two_part_integer


def two_part(g: GramMatrix) -> tuple[int, bool]:
    """(two_rank, two_part_integer) of G's discriminant form, from its
    components: one Smith normal form per distinct block (``_block_two_part``).

    The discriminant form of an orthogonal sum is the orthogonal sum of the
    forms (Nikulin 1980, §1), so the two-ranks add up; b vanishes between
    summands, so q(x + y) = q(x) + q(y) there, and q is integer-valued on the
    2-primary part iff it is on each summand's.
    """
    parts = [_block_two_part(b) for b in g.component_blocks]
    return sum(d for d, _ in parts), all(t for _, t in parts)


# ---------------------------------------------------------------------------
# short vectors and 6-roots


def enumerate_norm_vectors(g: GramMatrix, norm: int) -> list[Vector]:
    """All v with v.g.v == norm in a positive definite lattice, sorted.

    Fincke-Pohst depth-first search in integers: with D, B from _eliminate
    and y_k = D_k x_k + sum_{j>k} B_kj x_j, v.g.v = sum y_k^2 / (D_{k-1} D_k).
    Scaled by L = lcm(D_{k-1} D_k), the weights w_k = L / (D_{k-1} D_k) and
    the remaining norm are integers, so |y_k| <= isqrt(rem // w_k) bounds
    x_k exactly. Positive definite iff every minor is positive (Sylvester).
    """
    if norm <= 0:
        raise LatticeError("norm must be positive")
    minors, b = _eliminate(g.rows())
    if any(d <= 0 for d in minors):
        raise IndefiniteLatticeError(
            "short-vector enumeration requires a positive definite lattice")
    n = g.rank
    dens = [p * d for p, d in zip((1, *minors), minors)]
    scale = math.lcm(*dens)
    w = [scale // q for q in dens]
    # the nonzero B_kj, j > k: Gram matrices of sums are sparse
    cols = [[(j, r[j]) for j in range(k + 1, n) if r[j]]
            for k, r in enumerate(b)]

    out: list[Vector] = []
    x = [0] * n

    def dfs(k: int, rem: int) -> None:
        if k < 0:
            if rem == 0:
                out.append(tuple(x))
            return
        d, t = minors[k], sum(bkj * x[j] for j, bkj in cols[k])
        m = math.isqrt(rem // w[k])
        for xk in range(-((m + t) // d), (m - t) // d + 1):
            x[k] = xk
            y = d * xk + t
            dfs(k - 1, rem - w[k] * y * y)

    dfs(n - 1, scale * norm)
    return sorted(out)


def is_six_root(v: Vector, g: GramMatrix) -> bool:
    """True iff v has square 6 and pairs divisibly by 3 with the lattice."""
    _check_dim(g, v)
    if g.norm(v) != 6:
        return False
    return all(p % 3 == 0 for p in g.apply(v))


# ambient middle-cohomology lattice of a cubic fourfold, and its primitive
# part orthogonal to the polarization h = (1, 1, 1) in the 3<1> block
# (h.h = 3)
AMBIENT_M_EXPR = parse_lattice_expr("3*<1>+2*U+2*E8")
AMBIENT_M = gram(AMBIENT_M_EXPR)
AMBIENT_M0_EXPR = parse_lattice_expr("A2+2*U+2*E8")
AMBIENT_M0 = gram(AMBIENT_M0_EXPR)
