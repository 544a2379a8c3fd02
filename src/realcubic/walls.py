"""Wall-crossing moves and cuspidal strata.

Classifies adjacency moves between coarse deformation classes by the parity
of a vanishing cycle's pairings, and decides whether a wall carries a
cuspidal stratum: constructive A2-pair certificates where a suitable direct
summand exists, a bounded height search as fallback, and a sound mod-2
residue refutation for the two exceptional walls.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .lattices import (
    GramMatrix,
    LatticeExpr,
    LatticeError,
    Vector,
    gram,
    is_six_root,
)

if TYPE_CHECKING:
    from .atlas import VertexData


class MoveKind(enum.Enum):
    L = "L"
    R = "R"
    L_INVERSE = "L_inverse"
    R_INVERSE = "R_inverse"

    def __str__(self) -> str:
        return self.value


# coordinate height H of the fallback box search, and the cap on
# (2H+1)^rank above which it is skipped
_SEARCH_HEIGHT = 4
_SEARCH_BUDGET = 3_000_000
# largest candidate count the mod-2 refuter pairs: its int64 pairing matrix
# is then 2 GiB
_MAX_CANDIDATES = 1 << 14


def _plus_gram(vertex: "VertexData") -> GramMatrix:
    # M_+ contains M_+^0 + <h> with h of square 3 and odd index over it, so
    # pairing parities over these generators determine parities over all of
    # M_+; the final coordinate of a vector is its h-coefficient.
    g0 = gram(vertex.m_plus0)
    n = g0.rank
    rows = [list(r) + [0] for r in g0.entries]
    rows.append([0] * n + [3])
    return GramMatrix(tuple(tuple(r) for r in rows), g0.blocks)


def classify_move(v: Vector, side: str, vertex: "VertexData") -> MoveKind:
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


def find_a2_pair(expr: LatticeExpr) -> Optional[A2Certificate]:
    """A pair v1, v2 with v1^2 = v2^2 = 2, v1.v2 = -1, or None.

    Constructive certificates from unscaled summands (<2> + U, or a rank >= 2
    root summand) come first; otherwise a bounded box search of coordinate
    height <= 4 runs when the box is small enough. None means no pair was
    found, not that none exists.
    """
    g = gram(expr)
    rank = g.rank
    # adjacent simple roots inside one unscaled A/D/E summand of rank >= 2
    for b in g.blocks:
        if b.scale == 1 and b.size >= 2 and b.label[0] in "ADE":
            for i in range(b.start, b.start + b.size):
                for j in range(i + 1, b.start + b.size):
                    if abs(g.entries[i][j]) != 1:
                        continue
                    v1 = _unit(rank, i)
                    v2 = _unit(rank, j, -g.entries[i][j])
                    cert = A2Certificate(v1, v2, f"root summand {b.label}")
                    if cert.verify(g):
                        return cert
    # <2> + U: v1 = e - u1, v2 = u1 + u2
    e_block = next((b for b in g.blocks
                    if b.scale == 1 and b.size == 1
                    and g.entries[b.start][b.start] == 2), None)
    u_block = next((b for b in g.blocks if b.scale == 1 and b.label == "U"), None)
    if e_block and u_block:
        u1, u2 = u_block.start, u_block.start + 1
        v1 = _add(_unit(rank, e_block.start), _unit(rank, u1), -1)
        v2 = _add(_unit(rank, u1), _unit(rank, u2))
        cert = A2Certificate(v1, v2, "<2> + U")
        if cert.verify(g):
            return cert
    # bounded fallback search, skipped when the coordinate box is too large
    if (2 * _SEARCH_HEIGHT + 1) ** rank <= _SEARCH_BUDGET:
        rng = range(-_SEARCH_HEIGHT, _SEARCH_HEIGHT + 1)
        roots = [v for v in itertools.product(rng, repeat=rank)
                 if any(v) and g.norm(v) == 2]
        for a in range(len(roots)):
            for b in range(a + 1, len(roots)):
                if g.inner(roots[a], roots[b]) == -1:
                    return A2Certificate(roots[a], roots[b],
                                         f"height-{_SEARCH_HEIGHT} search")
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
    # all residue classes as rows of a (2^rank, rank) 0/1 matrix
    classes = np.array(list(itertools.product((0, 1), repeat=rank)),
                       dtype=np.int64)
    norms = np.einsum("ij,jk,ik->i", classes, gm, classes)
    cand = classes[norms % 4 == 2]
    if len(cand) == 0:
        return Mod2Refutation(0, rank)
    if len(cand) > _MAX_CANDIDATES:
        raise LatticeError(f"mod-2 refutation limited to {_MAX_CANDIDATES} "
                           f"candidate classes, got {len(cand)}")
    pairings = cand @ gm @ cand.T
    if np.all(pairings % 2 == 0):
        return Mod2Refutation(len(cand), rank)
    return None


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


def _a2_pairs_with_mod3(expr: LatticeExpr) -> Optional[A2Certificate]:
    """First A2 certificate also satisfying the mod-3 condition."""
    g = gram(expr)
    cert = find_a2_pair(expr)
    if cert is None:
        return None
    if mod3_condition(cert.v1, cert.v2, g):
        return cert
    # the constructive pair can fail mod 3 (e.g. an isolated A2 block whose
    # difference vector is a 6-root); retry with mixed pairs across summands
    rank = g.rank
    candidates = [cert.v1, cert.v2]
    for b in g.blocks:
        if b.scale == 1 and b.size == 1 and g.entries[b.start][b.start] == 2:
            candidates.append(_unit(rank, b.start))
    u_block = next((b for b in g.blocks if b.scale == 1 and b.label == "U"),
                   None)
    if u_block:
        u1, u2 = u_block.start, u_block.start + 1
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


def cusp_stratum(edge) -> CuspVerdict:
    """Decide whether the wall between two adjacent classes carries a cusp.

    ``edge`` is (source VertexData, target VertexData) with the target the
    lower-d endpoint X_-. R-walls are searched in M_-(X_-), L-walls in
    M_+^0(X_-).
    """
    src, dst = edge
    di, dj = dst.id.i - src.id.i, dst.id.j - src.id.j
    if (abs(di), abs(dj)) not in ((0, 1), (1, 0)):
        raise ValueError(
            f"vertices {src.id} and {dst.id} are not adjacent by one move")
    is_r = dj != 0
    expr = dst.m_minus if is_r else dst.m_plus0
    g = gram(expr)
    cert = _a2_pairs_with_mod3(expr)
    if cert is not None:
        assert cert.verify(g) and mod3_condition(cert.v1, cert.v2, g)
        v6 = _add(cert.v1, cert.v2, -1)
        assert g.norm(v6) == 6 and not is_six_root(v6, g)
        return CuspVerdict("Yes", certificate=cert,
                           detail=f"A2 pair in {expr} ({cert.host})")
    refutation = refute_a2_mod2(expr)
    if refutation is not None:
        return CuspVerdict("No", refutation=refutation,
                           detail=f"no A2 pair embeds in {expr}")
    return CuspVerdict("Unknown",
                       detail=f"search bound reached for {expr}")
