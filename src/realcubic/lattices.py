"""Exact arithmetic on integer lattices.

Covers the lattice-expression language of the classification tables
(A_n, D_n, E6/E7/E8, U, rank-1 <k>, integer rescaling), Gram matrices (one
per expression), signatures and determinants, discriminant groups (the
cokernel of G, an ``intmat.AbelianGroup``) and finite quadratic forms,
short-vector enumeration in definite lattices with exact integer bounds,
and 6-roots. Each atom's rank, det, inertia, roots and least square are
closed forms in one catalogue (``_ATOMS``). A Gram matrix is held as its
orthogonal components and nothing else: the atom copies of an expression,
each named by its atom and whose inertia and det add up from the
catalogue, or the connected blocks of a matrix given as rows, each
eliminated once (fraction-free, Bareiss) for both. One memoized
Smith form per distinct component gives its discriminant form's 2-part; a
Gram matrix keeps its F2 two-rank, one elimination mod 2 per distinct
block. An expression hashes once, at construction.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

from .intmat import AbelianGroup, cokernel, matmul, smith_normal_form

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


class AtomFacts(NamedTuple):
    """Closed forms for one unscaled copy of an atom (Conway and Sloane,
    SPLAG, ch. 4); at scale s, det is s^rank * det and every square s-fold."""

    rank: int
    det: int
    neg: int    # negative index of inertia
    roots: int  # vectors of square 2, counted on positive definite atoms
    least: int  # least square of a nonzero vector; 0 if not positive definite


_ATOMS = {  # the catalogue, per kind as a function of n
    "A": lambda n: AtomFacts(n, n + 1, 0, n * (n + 1), 2),
    "D": lambda n: AtomFacts(n, 4, 0, 2 * n * (n - 1), 2),
    "E": lambda n: AtomFacts(n, 9 - n, 0, {6: 72, 7: 126, 8: 240}[n], 2),
    "U": lambda n: AtomFacts(2, -1, 1, 0, 0),
    "diag": lambda n: AtomFacts(1, n, int(n < 0), 2 * (n == 2), max(n, 0)),
}


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
        if self.kind not in _ATOMS:
            raise LatticeError(f"unknown atom kind {self.kind!r}")

    @property
    def facts(self) -> AtomFacts:
        return _ATOMS[self.kind](self.n)

    @property
    def atom_rank(self) -> int:
        return self.facts.rank

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
    """A sum of terms. Its hash is computed once, at construction, so every
    memo keyed by an expression (``gram``, the cusp verdicts) reads it in
    constant time; equality still compares the terms."""

    terms: tuple[Term, ...]

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(self.terms))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt from the terms, so that an unpickled expression hashes as
        # its process hashes strings
        return LatticeExpr, (self.terms,)

    @property
    def rank(self) -> int:
        return sum(t.mult * t.atom_rank for t in self.terms)

    def __str__(self) -> str:
        return "+".join(str(t) for t in self.terms)


# one term, with whitespace allowed around and inside it, then "+" or the end
_TERM = re.compile(r"""
    \s* (?P<term>
        (?: (?P<mult>\d+) \s* \* \s* )?
        (?: (?P<kind>[ADE]) \s* (?P<n>\d+) | U | < \s* (?P<k>-?\d+) \s* > )
        (?: \s* \( \s* (?P<scale>\d+) \s* \) )?
    ) \s* (?P<sep> \+ | \Z )?
""", re.VERBOSE)


def parse_lattice_expr(text: str) -> LatticeExpr:
    """Parse the textual grammar; parse o print is the identity.

    expr := term ("+" term)* ; term := [INT "*"] atom ["(" INT ")"] ;
    atom := "A"INT | "D"INT | "E"INT | "U" | "<" SIGNED_INT ">".
    ``_TERM`` matches one term at a time; a term that breaks ``Term``'s
    rules is a ParseError at the term's first character, and so is an
    integer too long for ``int`` (Python's limit on the digits of an
    integer string).
    """
    terms, pos = [], 0
    while True:
        m = _TERM.match(text, pos)
        if m is None:
            raise ParseError("expected a lattice term",
                             len(text) - len(text[pos:].lstrip()))
        try:
            terms.append(Term(int(m["mult"] or 1),
                              m["kind"] or ("diag" if m["k"] else "U"),
                              int(m["n"] or m["k"] or 0),
                              int(m["scale"] or 1)))
        except LatticeError as exc:
            raise ParseError(str(exc), m.start("term")) from None
        except ValueError:
            raise ParseError("integer has too many digits",
                             m.start("term")) from None
        if m["sep"] is None:
            raise ParseError("expected '+'", m.end())
        if m["sep"] == "":  # the end of the text
            return LatticeExpr(tuple(terms))
        pos = m.end()


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
class GramMatrix:
    """A symmetric integer matrix G, held as its orthogonal components.

    ``components`` are the index sets of the orthogonal summands, each
    ascending and in the order of their least index, and
    ``component_blocks`` the principal submatrix of G on each, as tuples of
    rows; every other entry of G is 0, and every read of G (``apply``,
    ``inner``, ``entries``) goes block by block. A block is hashable and its
    key is its content, so the per-block memos below share one result among
    equal blocks of any lattice. An expression also names the atom of each
    component, as a ``Term`` of multiplicity 1 (``atoms``), and its
    catalogue (neg, det).
    """

    components: tuple[tuple[int, ...], ...]
    component_blocks: tuple[tuple[Vector, ...], ...]
    atoms: tuple[Term, ...] = ()
    atom_inertia: tuple[int, int] | None = None

    @cached_property
    def rank(self) -> int:
        return sum(map(len, self.components))

    @cached_property
    def inertia(self) -> tuple[int, int]:
        """(neg, det) of G, for ``signature`` and ``det``: the catalogue's,
        or one elimination per component (``_block_inertia``) added up."""
        if self.atom_inertia is not None:
            return self.atom_inertia
        parts = [_block_inertia(b) for b in self.component_blocks]
        return sum(n for n, _ in parts), math.prod(d for _, d in parts)

    @cached_property
    def two_rank(self) -> int:
        """n - rank(G mod 2): for a nondegenerate G the number of even Smith
        factors, dim A/2A of the discriminant group A. Summed over the
        components, each distinct block eliminated over F2 once
        (``_block_corank_f2``); it shares no arithmetic with the Smith forms
        of ``two_part``. On a degenerate G a zero factor is even but counts
        in no A, so rule that out first (as ``signature`` does)."""
        return sum(_block_corank_f2(b) for b in self.component_blocks)

    @cached_property
    def entries(self) -> tuple[Vector, ...]:
        """The dense rows of G, for the whole-matrix Smith form and the
        short-vector walk."""
        out = [[0] * self.rank for _ in range(self.rank)]
        for c, b in zip(self.components, self.component_blocks):
            for i, r in zip(c, b):
                for j, x in zip(c, r):
                    out[i][j] = x
        return tuple(map(tuple, out))

    def rows(self) -> list[list[int]]:
        return [list(r) for r in self.entries]

    def det(self) -> int:
        return self.inertia[1]

    def apply(self, v: Vector) -> Vector:
        """G.v as the sum of x_j times column j over the nonzero x_j of v;
        G is symmetric, so column j is row j of j's block."""
        _check_dim(self, v)
        out = [0] * self.rank
        for c, b in zip(self.components, self.component_blocks):
            for j, r in zip(c, b):
                if x := v[j]:
                    for i, e in zip(c, r):
                        out[i] += e * x
        return tuple(out)

    def inner(self, v: Vector, w: Vector) -> int:
        """v.G.w, summed over the nonzero v_i, each against row i of its
        block."""
        _check_dim(self, v)
        _check_dim(self, w)
        return sum(x * sum(e * w[j] for j, e in zip(c, r))
                   for c, b in zip(self.components, self.component_blocks)
                   for i, r in zip(c, b) if (x := v[i]))

    def norm(self, v: Vector) -> int:
        return self.inner(v, v)


def _check_dim(g: GramMatrix, v: Vector) -> None:
    if len(v) != g.rank:
        raise LatticeError(f"vector length {len(v)} != lattice rank {g.rank}")


@lru_cache(maxsize=None)
def _atom_block(kind: str, n: int, scale: int) -> tuple:
    """(rows, neg, det, atom) of one atom copy, rescaled: its Gram matrix,
    its negative index and determinant from the catalogue, and the atom as a
    ``Term`` of multiplicity 1; built once per (kind, n, scale) and shared
    by every expression that holds the atom."""
    atom = Term(1, kind, n, scale)
    facts, rows = atom.facts, _atom_gram(atom)
    return (tuple(tuple(x * scale for x in r) for r in rows), facts.neg,
            scale ** facts.rank * facts.det, atom)


@lru_cache(maxsize=None)
def gram(expr: LatticeExpr) -> GramMatrix:
    """Block-diagonal Gram matrix of the expression, one component per atom.

    Each atom copy is one orthogonal component, laid out in term order: the
    graphs of A_n, D_n, E6/E7/E8, U and <k> are connected, so no component
    needs to be searched for, and the negative index and the determinant
    are added up from the catalogue (``_atom_block``). Built once per
    expression: ``LatticeExpr`` is frozen and hashable, and a
    ``GramMatrix`` holds only tuples, so every caller can share it.
    """
    comps: list[tuple[int, ...]] = []
    mats: list[tuple[Vector, ...]] = []
    atoms: list[Term] = []
    pos, neg, det = 0, 0, 1
    for term in expr.terms:
        m, atom_neg, atom_det, atom = _atom_block(term.kind, term.n,
                                                  term.scale)
        neg += term.mult * atom_neg
        det *= atom_det ** term.mult
        k = len(m)
        end = pos + term.mult * k
        comps += [tuple(range(p, p + k)) for p in range(pos, end, k)]
        mats += [m] * term.mult
        atoms += [atom] * term.mult
        pos = end
    return GramMatrix(tuple(comps), tuple(mats), tuple(atoms), (neg, det))


def _components(g: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """The connected components of the nonzero pattern of a symmetric
    ``g``, each ascending, in the order of their least index; a dense
    ``g`` is one component."""
    seen = [False] * len(g)
    out = []
    for s in range(len(g)):
        if seen[s]:
            continue
        seen[s] = True
        comp, stack = [s], [s]
        while stack:
            for j, x in enumerate(g[stack.pop()]):
                if x and not seen[j]:
                    seen[j] = True
                    comp.append(j)
                    stack.append(j)
        out.append(tuple(sorted(comp)))
    return tuple(out)


def gram_from_rows(rows: list[list[int]]) -> GramMatrix:
    """The Gram matrix with the given rows, split by a scan of its nonzero
    pattern (``_components``)."""
    g = [[int(x) for x in r] for r in rows]
    if any(len(r) != len(g) for r in g):
        raise LatticeError("Gram matrix must be square")
    if g != [list(c) for c in zip(*g)]:
        raise LatticeError("Gram matrix must be symmetric")
    comps = _components(g)
    return GramMatrix(comps, tuple(tuple(tuple(g[i][j] for j in c) for i in c)
                                   for c in comps))


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


def _block_inertia(block: tuple[Vector, ...]) -> tuple[int, int]:
    """(neg, det) of one component from one elimination, or (0, 0) if it
    is degenerate. neg counts the sign changes along 1, D_1..D_n; D_n is
    the determinant, since the zero-pivot congruence has determinant 1."""
    try:
        minors, _ = _eliminate([list(r) for r in block])
    except DegenerateLatticeError:
        return 0, 0
    neg = sum((p > 0) != (d > 0) for p, d in zip((1, *minors), minors))
    return neg, minors[-1]


@lru_cache(maxsize=None)
def _block_corank_f2(block: tuple[Vector, ...]) -> int:
    """n - rank(B mod 2) of one component block B, by elimination over F2
    with rows as bitmasks."""
    pivots: dict[int, int] = {}  # lowest set bit -> reduced row
    for r in block:
        x = sum(1 << j for j, e in enumerate(r) if e % 2)
        while x:
            low = x & -x
            if low not in pivots:
                pivots[low] = x
                break
            x ^= pivots[low]
    return len(block) - len(pivots)


def signature(g: GramMatrix) -> tuple[int, int]:
    """Inertia (pos, neg) of G, from ``g.inertia``; raises if degenerate."""
    neg, det = g.inertia
    if det == 0:
        raise DegenerateLatticeError("degenerate Gram matrix")
    return g.rank - neg, neg


# ---------------------------------------------------------------------------
# discriminant groups and forms


def discriminant_group(g: GramMatrix) -> AbelianGroup:
    """G^*/G, the cokernel of G; raises DegenerateLatticeError when it has
    a free part (a zero Smith factor)."""
    group = cokernel(g.rows())
    if group.free_rank:
        raise DegenerateLatticeError("degenerate Gram matrix")
    return group


@dataclass(frozen=True)
class DiscriminantForm:
    """Discriminant group of a lattice with its finite forms, in integers.

    Generator i is g_i = v_i / d_i, with v_i = ``generators[i]`` an integer
    column of V in lattice basis coordinates and d_i the i-th invariant
    factor; ``w`` is the integer matrix W = V^T G V over those columns, so

        q(g_i) = W_ii / d_i^2 mod 2,    b(g_i, g_j) = W_ij / (d_i d_j) mod 1.
    """

    group: AbelianGroup
    generators: tuple[Vector, ...]
    w: tuple[tuple[int, ...], ...]
    two_part_integer: bool

    @property
    def q_values(self) -> tuple[tuple[int, int], ...]:
        """q(g_i) mod 2 as reduced (numerator, denominator) pairs, for
        display; 0 is (0, 1)."""
        out = []
        for i, d in enumerate(self.group.invariant_factors):
            num, den = self.w[i][i] % (2 * d * d), d * d
            c = math.gcd(num, den)
            out.append((num // c, den // c))
        return tuple(out)


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
    factors, _, v = smith_normal_form(g.rows(), u=False, v=True)
    if 0 in factors:
        raise DegenerateLatticeError("degenerate Gram matrix")
    group = AbelianGroup(tuple(d for d in factors if d > 1))
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
    form = discriminant_form(GramMatrix((tuple(range(len(block))),), (block,)))
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


def _walk(g: GramMatrix, norm: int, leaf) -> None:
    """Call leaf(x, v.g.v) on every v with v.g.v <= norm in a positive
    definite g; x is the live coordinate list, to be copied if kept.

    Fincke-Pohst depth-first search in integers: with D, B from _eliminate
    and y_k = D_k x_k + sum_{j>k} B_kj x_j, v.g.v = sum y_k^2 / (D_{k-1} D_k).
    Scaled by L = lcm(D_{k-1} D_k), the weights w_k = L / (D_{k-1} D_k) and
    the remaining norm are integers, so |y_k| <= isqrt(rem // w_k) bounds
    x_k exactly, and at leaf level rem = L (norm - v.g.v). Positive definite
    iff every minor is positive (Sylvester).
    """
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
    x = [0] * n

    def dfs(k: int, rem: int) -> None:
        if k < 0:
            leaf(x, norm - rem // scale)
            return
        d, t = minors[k], sum(bkj * x[j] for j, bkj in cols[k])
        m = math.isqrt(rem // w[k])
        for xk in range(-((m + t) // d), (m - t) // d + 1):
            x[k] = xk
            y = d * xk + t
            dfs(k - 1, rem - w[k] * y * y)

    dfs(n - 1, scale * norm)


def enumerate_norm_vectors(g: GramMatrix, norm: int) -> list[Vector]:
    """All v with v.g.v == norm in a positive definite lattice, sorted:
    the leaves of ``_walk`` at that square."""
    if norm <= 0:
        raise LatticeError("norm must be positive")
    out: list[Vector] = []

    def keep(x: list[int], square: int) -> None:
        if square == norm:
            out.append(tuple(x))

    _walk(g, norm, keep)
    return sorted(out)


class _TooMany(Exception):
    """A count passed the caller's limit."""


def _norm_counts(g: GramMatrix, norm: int, limit: int) -> dict[int, int]:
    """{k: number of v with v.g.v == k} for 0 <= k <= norm, tallied over the
    leaves of ``_walk``. Stops with _TooMany once more than ``limit``
    nonzero vectors are reached."""
    counts: dict[int, int] = {}
    reached = -1  # the zero vector is free

    def tally(x: list[int], square: int) -> None:
        nonlocal reached
        counts[square] = counts.get(square, 0) + 1
        reached += 1
        if reached > limit:
            raise _TooMany

    _walk(g, norm, tally)
    return counts


def _times(p: dict[int, int], q: dict[int, int], norm: int,
           limit: int) -> dict[int, int]:
    """The product of two theta series, cut at ``norm``; _TooMany once it
    holds more than ``limit`` nonzero vectors. Each inner step adds at least
    one vector, so the work is bounded by the limit."""
    out: dict[int, int] = {}
    reached = -1
    q_items = sorted(q.items())
    for a, ca in p.items():
        for b, cb in q_items:
            if a + b > norm:
                break
            out[a + b] = out.get(a + b, 0) + ca * cb
            reached += ca * cb
        if reached > limit:
            raise _TooMany
    return out


def count_short_vectors(expr: LatticeExpr, norm: int,
                        limit: int) -> int | None:
    """How many v with 0 < v.v <= norm a positive definite expression has,
    or None when that is more than ``limit``.

    This bounds both the output and the work of enumerate_norm_vectors,
    whose search reaches every such vector. The theta series of an
    orthogonal sum is the product of its summands' series, so each distinct
    atom is searched once, and no search or product goes past the limit
    (a summand has no more short vectors than the whole sum). Before any
    search, closed forms bound the count from below: a positive definite
    atom copy at scale s has its roots (square 2s) and the 2 * isqrt(norm //
    (m * s)) multiples of a least vector (square m * s), all the vectors of
    a rank-1 atom. No atom is searched whose least square times its scale
    is past the norm (U and negative <k> have none: the search refuses it).
    """
    if norm <= 0:
        raise LatticeError("norm must be positive")
    if sum(t.mult * max(t.facts.roots * (2 * t.scale <= norm),
                        2 * math.isqrt(norm // (t.facts.least * t.scale))
                        if t.facts.least else 0)
           for t in expr.terms) > limit:
        return None
    series = {0: 1}
    atoms: dict[LatticeExpr, dict[int, int]] = {}
    try:
        for t in expr.terms:
            if t.facts.least * t.scale > norm:  # no short vector
                continue
            atom = LatticeExpr((Term(1, t.kind, t.n, t.scale),))
            if atom not in atoms:
                atoms[atom] = _norm_counts(gram(atom), norm, limit)
            # each copy adds at least two short vectors, +-v at the least
            # square, so this loop stops within limit / 2 copies
            for _ in range(t.mult):
                series = _times(series, atoms[atom], norm, limit)
    except _TooMany:
        return None
    return sum(series.values()) - 1


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
