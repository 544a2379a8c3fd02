"""Wall-crossing moves and cuspidal strata.

Classifies adjacency moves between coarse deformation classes by the parity
of a vanishing cycle's pairings, and decides whether a wall carries a
cuspidal stratum: A2-pair certificates built from named direct summands
(a root summand or <2> + U, shifted by an isotropic vector of U when the
pair fails the mod-3 condition), and a sound mod-2 refutation for the two
exceptional walls, decided by the F2 normal form of x.x/2 and its Arf
invariant (C. Arf, J. reine angew. Math. 183 (1941)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .atlas import MoveKind, VertexData, move_between
from .lattices import (
    GramMatrix,
    LatticeExpr,
    LatticeError,
    Term,
    Vector,
    gram,
    is_six_root,
)


def _plus_gram(vertex: VertexData) -> GramMatrix:
    # M_+ contains M_+^0 + <h> with h of square 3 and odd index over it, so
    # pairing parities over these generators determine parities over all of
    # M_+; the final coordinate of a vector is its h-coefficient.
    return gram(LatticeExpr(vertex.m_plus0.terms + (Term(1, "diag", 3),)))


def classify_move(v: Vector, side: str, vertex: VertexData) -> MoveKind:
    """Move kind of the wall with vanishing cycle v on the given eigenlattice.

    side = "minus": v is a 2-root of M_-; side = "plus": v is a 2-root of
    M_+^0 extended by h (last coordinate = h-coefficient).
    """
    if side not in ("plus", "minus"):
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    g = _plus_gram(vertex) if side == "plus" else gram(vertex.m_minus)
    if g.norm(v) != 2:
        raise LatticeError(f"vanishing cycle must have square 2, got {g.norm(v)}")
    all_even = all(p % 2 == 0 for p in g.apply(v))
    if side == "plus":
        return MoveKind.R if all_even else MoveKind.L_INVERSE
    return MoveKind.L if all_even else MoveKind.R_INVERSE


# ---------------------------------------------------------------------------
# A2 pairs


@dataclass(frozen=True)
class A2Certificate:
    v1: Vector
    v2: Vector
    host: str  # description of the summand(s) supplying the pair

    def verify(self, g: GramMatrix) -> bool:
        return (g.norm(self.v1) == 2 and g.norm(self.v2) == 2
                and g.inner(self.v1, self.v2) == -1)


def _unit(rank: int, at: int, coeff: int = 1) -> Vector:
    v = [0] * rank
    v[at] = coeff
    return tuple(v)


def _add(a: Vector, b: Vector, s: int = 1) -> Vector:
    return tuple(x + s * y for x, y in zip(a, b))


def _unscaled_u(g: GramMatrix) -> Optional[tuple[int, ...]]:
    """Coordinates (u1, u2) of the first unscaled U summand, or None."""
    return next((c for a, c in zip(g.atoms, g.components)
                 if a.kind == "U" and a.scale == 1), None)


def find_a2_pair(expr: LatticeExpr) -> Optional[A2Certificate]:
    """A pair v1, v2 with v1^2 = v2^2 = 2, v1.v2 = -1, or None.

    Only named constructions from unscaled summands are tried: adjacent
    simple roots of the first A/D/E summand of rank >= 2, else e - u1 and
    u1 + u2 from a <2> (or A1) summand and a U. None means neither summand
    exists, not that no pair does. Each construction is an A2 pair by
    algebra, so none is checked here: the simple roots e_i, -m_ij e_j of an
    unscaled A/D/E block (diagonal 2, |m_ij| = 1) have squares 2, 2 and
    pairing -m_ij^2 = -1, and e - u1, u1 + u2 (e^2 = 2, u1^2 = u2^2 = 0,
    u1.u2 = 1) have squares 2, 2 and pairing -1. The verdict checks the
    certificate it returns (``_verdict``).
    """
    g = gram(expr)
    rank = g.rank
    # adjacent simple roots inside one unscaled A/D/E summand (an A1 has
    # none), at the coordinates of its component
    for a, c, m in zip(g.atoms, g.components, g.component_blocks):
        if a.scale == 1 and a.kind in ("A", "D", "E"):
            for i in range(len(c)):
                for j in range(i + 1, len(c)):
                    if abs(m[i][j]) == 1:
                        v1 = _unit(rank, c[i])
                        v2 = _unit(rank, c[j], -m[i][j])
                        return A2Certificate(v1, v2, f"root summand {a}")
    # <2> + U: v1 = e - u1, v2 = u1 + u2
    e = next((c for a, c in zip(g.atoms, g.components) if a.scale == 1
              and (a.kind, a.n) in (("diag", 2), ("A", 1))), None)
    u = _unscaled_u(g)
    if e and u:
        u1, u2 = u
        v1 = _add(_unit(rank, e[0]), _unit(rank, u1), -1)
        v2 = _add(_unit(rank, u1), _unit(rank, u2))
        return A2Certificate(v1, v2, "<2> + U")
    return None


def mod3_condition(v1: Vector, v2: Vector, g: GramMatrix) -> bool:
    """True iff (v1 - v2) pairs nontrivially mod 3 with some basis vector."""
    d = _add(v1, v2, -1)
    return any(p % 3 != 0 for p in g.apply(d))


@dataclass(frozen=True)
class Mod2Refutation:
    candidate_classes: int
    rank: int

    def __str__(self) -> str:
        return (f"all {self.candidate_classes} candidate classes mod 2L pair "
                f"evenly (rank {self.rank} residue sweep)")


def refute_a2_mod2(expr: LatticeExpr) -> Optional[Mod2Refutation]:
    """Prove no v1, v2 with squares 2 and pairing -1 exist, or return None.

    Sound but incomplete: refutes when the classes of L/2L of norm
    Q(x) = x.x = 2 mod 4 (the candidates) pair evenly. They lie in the space
    U of classes of even norm, where q = Q/2 is an F2 quadratic form with
    polar form x.y mod 2. Split U = R + W, R the radical and W symplectic of
    dimension 2k: the candidates pair evenly iff k = 0, or k = 1, q vanishes
    on R and Arf(q|W) = 0 (C. Arf, J. reine angew. Math. 183 (1941)). They
    number 2^(dim U - 1) or 0 (q nonzero or zero on R) if k = 0, and
    2^(dim R) if k = 1.
    """
    g = gram(expr)
    n = g.rank
    # 0/1 vectors as bitmasks; odd[i] is row i of the Gram matrix mod 2,
    # read off the block of i's component
    odd = [0] * n
    for c, rows in zip(g.components, g.component_blocks):
        for i, r in zip(c, rows):
            odd[i] = sum(1 << j for j, e in zip(c, r) if e % 2)

    def b(x: int, y: int) -> int:
        return sum((odd[i] & y).bit_count()
                   for i in range(n) if x >> i & 1) % 2

    def q(x: int) -> int:
        return g.norm(tuple(x >> i & 1 for i in range(n))) // 2 % 2

    # basis of U: e_i, plus e_d if e_i has odd norm, d the first such unit
    d = next((i for i in range(n) if odd[i] >> i & 1), n)
    basis = [1 << i | (odd[i] >> i & 1) << d for i in range(n) if i != d]
    dim_u, radical, planes = len(basis), [], []
    while basis and len(planes) < 2:  # symplectic Gram-Schmidt
        x = basis.pop()
        y = next((z for z in basis if b(x, z)), None)
        if y is None:
            radical.append(x)
            continue
        basis.remove(y)
        planes.append((x, y))
        basis = [z ^ x * b(z, y) ^ y * b(z, x) for z in basis]
    q_on_r = any(q(r) for r in radical)
    if not planes:
        return Mod2Refutation(1 << (dim_u - 1) if q_on_r else 0, n)
    if len(planes) > 1 or q_on_r or q(planes[0][0]) * q(planes[0][1]):
        return None
    return Mod2Refutation(1 << len(radical), n)


# ---------------------------------------------------------------------------
# cusp verdicts


@dataclass(frozen=True)
class CuspVerdict:
    kind: str  # "Yes" | "No" | "Unknown"
    certificate: Optional[A2Certificate] = None
    refutation: Optional[Mod2Refutation] = None
    detail: str = ""

    def to_dict(self) -> dict:
        out = {"verdict": self.kind, "detail": self.detail}
        if self.certificate is not None:
            out["certificate"] = {
                "v1": list(self.certificate.v1),
                "v2": list(self.certificate.v2),
                "host": self.certificate.host,
            }
        if self.refutation is not None:
            out["refutation"] = str(self.refutation)
        return out


def _mod3_pair(cert: A2Certificate, g: GramMatrix) -> Optional[A2Certificate]:
    """``cert`` if it meets the mod-3 condition, else (v1, v2 - u1), or None.

    Only a root-summand pair can fail (e.g. an isolated A2, whose difference
    is a 6-root): the <2> + U pair has v1 - v2 pairing with u1 by -1. The
    root summand is orthogonal to U and u1 is isotropic, so (v1, v2 - u1) is
    again an A2 pair, and v1 - v2 + u1 pairs with u2 by 1.
    """
    if mod3_condition(cert.v1, cert.v2, g):
        return cert
    u = _unscaled_u(g)
    if u is None:
        return None
    return A2Certificate(cert.v1, _add(cert.v2, _unit(g.rank, u[0]), -1),
                         f"{cert.host}, v2 shifted by -u1 of U")


def cusp_stratum(edge) -> CuspVerdict:
    """Decide whether the wall between two adjacent classes carries a cusp.

    ``edge`` is (source VertexData, target VertexData) in edge order, the
    target the lower-d endpoint X_-. R-walls are searched in M_-(X_-),
    L-walls in M_+^0(X_-). The verdict depends on that host lattice alone,
    so each host is judged once per process (``_verdict``) and its verdict
    shared: every part of a verdict is frozen.
    """
    src, dst = edge
    move = move_between(src.id, dst.id)
    if move is None:
        raise ValueError(
            f"vertices {src.id} and {dst.id} are not adjacent by one move")
    return _verdict(dst.m_minus if move == MoveKind.R else dst.m_plus0)


@lru_cache(maxsize=None)
def _verdict(expr: LatticeExpr) -> CuspVerdict:
    """The cusp verdict of the wall whose host lattice is ``expr``."""
    pair = find_a2_pair(expr)
    if pair is None:
        refutation = refute_a2_mod2(expr)
        if refutation is not None:
            return CuspVerdict("No", refutation=refutation,
                               detail=f"no A2 pair embeds in {expr}")
        return CuspVerdict("Unknown", detail=f"no A2 pair found in {expr}")
    # an A2 pair exists, so the sound refuter cannot refute
    g = gram(expr)
    cert = _mod3_pair(pair, g)
    if cert is None:
        return CuspVerdict(
            "Unknown", detail=f"A2 pair in {expr} ({pair.host}) fails the "
            f"mod-3 condition and {expr} has no unscaled U to shift it by")
    # v1^2 = v2^2 = 2 and v1.v2 = -1 give (v1 - v2)^2 = 6, so v1 - v2 is
    # not a 6-root exactly when it meets the mod-3 condition
    if not (cert.verify(g) and not is_six_root(_add(cert.v1, cert.v2, -1), g)):
        raise AssertionError(f"A2 pair in {expr} ({cert.host}) fails its "
                             "check")
    return CuspVerdict("Yes", certificate=cert,
                       detail=f"A2 pair in {expr} ({cert.host})")
