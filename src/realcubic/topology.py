"""Morse-move bookkeeping on real-locus descriptors.

A descriptor is RP^n with connected-sum handles S^p x S^q and disjoint
n-spheres — the closure of everything the classification constructs. Morse
events transform descriptors only in the supported cases; the propagation
routine walks the K4-graph and assigns every class its real locus together
with a justification chain; ``verify`` runs it after the atlas checks and the
R-wall cusp sweep.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .atlas import (
    TERMINAL,
    Atlas,
    CheckResult,
    Edge,
    VertexId,
    validate_atlas,
)
from .walls import CuspVerdict, MoveKind, cusp_stratum


class UnsupportedMorseError(ValueError):
    """The event needs deeper smooth topology than the descriptor algebra."""


@dataclass(frozen=True)
class RealLocusDescriptor:
    dimension: int = 4
    handles: tuple[tuple[int, int], ...] = ()  # sorted (p, q), p <= q, p+q = n
    disjoint_spheres: int = 0

    def __post_init__(self):
        n = self.dimension
        for (p, q) in self.handles:
            if p + q != n or p < 0 or p > q:
                raise ValueError(f"bad handle ({p}, {q}) in dimension {n}")
        if tuple(sorted(self.handles)) != self.handles:
            raise ValueError("handles must be sorted")
        if self.disjoint_spheres < 0:
            raise ValueError("negative sphere count")

    def with_handle(self, p: int, q: int) -> "RealLocusDescriptor":
        if p + q != self.dimension:
            raise ValueError(f"handle ({p}, {q}) does not fit dimension "
                             f"{self.dimension}")
        h = tuple(sorted(self.handles + (tuple(sorted((p, q))),)))
        return RealLocusDescriptor(self.dimension, h, self.disjoint_spheres)

    def with_sphere(self) -> "RealLocusDescriptor":
        return RealLocusDescriptor(self.dimension, self.handles,
                                   self.disjoint_spheres + 1)

    @property
    def connected(self) -> bool:
        return self.disjoint_spheres == 0

    @property
    def b_star(self) -> int:
        return (self.dimension + 1) + 2 * len(self.handles) \
            + 2 * self.disjoint_spheres

    @property
    def chi(self) -> int:
        n = self.dimension
        chi_rp = 1 if n % 2 == 0 else 0
        chi_sn = 1 + (-1) ** n
        total = chi_rp
        for (p, q) in self.handles:
            total += (1 + (-1) ** p) * (1 + (-1) ** q) - chi_sn
        total += self.disjoint_spheres * chi_sn
        return total

    def __str__(self) -> str:
        parts = [f"RP{self.dimension}"]
        counts = Counter(self.handles)
        for (p, q) in sorted(counts, reverse=True):
            parts.append(f"{counts[(p, q)]}(S{p}xS{q})")
        s = " # ".join(parts)
        if self.disjoint_spheres:
            s += f" + {self.disjoint_spheres}S{self.dimension}" \
                if self.disjoint_spheres > 1 else f" + S{self.dimension}"
        return s


RP4 = RealLocusDescriptor()


@dataclass(frozen=True)
class MorseEvent:
    index: int
    core_trivial: bool = True

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("negative Morse index")


def descriptor_invariants(d: RealLocusDescriptor
                          ) -> tuple[int, int, int, int, int, int]:
    """(b_star, chi, r, d_coord, i, j) of a 4-dimensional descriptor."""
    b_star, chi = d.b_star, d.chi
    if d.dimension != 4:
        raise ValueError("coordinate formulas require dimension 4")
    if (1 - chi) % 2 or (27 - b_star) % 2:
        raise ValueError(f"non-integer coordinates from (b*, chi) = "
                         f"({b_star}, {chi})")
    r = 11 + (1 - chi) // 2
    d_coord = (27 - b_star) // 2
    if (22 - r - d_coord) % 2 or (r - d_coord) % 2:
        raise ValueError(f"malformed descriptor: (r, d) = ({r}, {d_coord})")
    return b_star, chi, r, d_coord, (22 - r - d_coord) // 2, (r - d_coord) // 2


_BIRTH_WALL = (VertexId(0, 0), VertexId(1, 0, special=True))


def facet_index_options(move: MoveKind, source: VertexId,
                        target: VertexId) -> set[int]:
    """Possible Morse indices of the facet, on the d-decreasing orientation."""
    if move in (MoveKind.L_INVERSE, MoveKind.R_INVERSE):
        raise ValueError("facet indices are defined on d-decreasing moves")
    if move == MoveKind.L:
        return {0, 4} if (source, target) == _BIRTH_WALL else {2}
    return {1, 3}


def apply_morse(d: RealLocusDescriptor, e: MorseEvent) -> RealLocusDescriptor:
    """Apply a supported Morse modification.

    Index 0 births a sphere; index 1 on a connected non-orientable locus adds
    S^1 x S^(n-1); index 2 with trivial core (w2 = 0 throughout) adds
    S^2 x S^2 in dimension 4. Everything else is rejected.
    """
    if e.index == 0:
        return d.with_sphere()
    if e.index == 1:
        if not d.connected:
            raise UnsupportedMorseError(
                "index-1 modification supported only on a connected locus")
        return d.with_handle(1, d.dimension - 1)
    if e.index == 2 and d.dimension == 4:
        if not e.core_trivial:
            raise UnsupportedMorseError(
                "index-2 modification requires a trivial core class")
        return d.with_handle(2, 2)
    raise UnsupportedMorseError(
        f"no descriptor rule for index {e.index} in dimension {d.dimension}")


@dataclass(frozen=True)
class Assignment:
    descriptor: RealLocusDescriptor
    justification: tuple[str, ...]


def _wall_step(e: Edge, options: set[int], index: int) -> str:
    """The justification line for crossing ``e`` by its index-``index`` facet."""
    listed = sorted(options)
    effect = "births S4" if index == 0 else f"adds S{index}xS{4 - index}"
    if e.move == MoveKind.R:
        return (f"R-wall {e.source}-{e.target} carries a cuspidal stratum: "
                "of the adjacent facet pair with indices "
                f"{{{', '.join(map(str, listed))}}} the index-{index} facet "
                f"applies; {effect}")
    chosen = f"index {index} " if len(listed) > 1 else ""
    return (f"L-wall {e.source}-{e.target} has index "
            f"{' or '.join(map(str, listed))}; {chosen}{effect}")


def propagate(atlas: Atlas, cusp_results: dict | None = None
              ) -> dict[VertexId, Assignment]:
    """Assign a real-locus descriptor to every vertex of the K4 atlas.

    Every class but the base and the two terminal classes is derived from
    the one wall into it, its R-wall if it has one and else its L-wall, by
    the lowest Morse index that wall's facet admits. ``cusp_results`` maps
    (source id, target id) of R-edges to CuspVerdict; every R-wall crossed
    needs verdict "Yes". When it is None, ``r_edge_verdicts`` supplies it.
    """
    if cusp_results is None:
        cusp_results = r_edge_verdicts(atlas)
    into: dict[VertexId, Edge] = {}
    for e in atlas.edges:
        if e.target not in TERMINAL and (e.move == MoveKind.R
                                         or e.target not in into):
            into[e.target] = e

    out = {VertexId(0, 0): Assignment(RP4, ("base class: real locus RP4",))}
    # each wall raises i + j by one, so sources come before targets
    for vid in sorted(into, key=lambda v: v.i + v.j):
        e = into[vid]
        prev = out.get(e.source)
        if prev is None:
            continue  # a broken chain: reported below as unassigned
        if e.move == MoveKind.R:
            v = cusp_results.get((e.source, e.target))
            kind = v.kind if v else "no verdict"
            if kind != "Yes":
                raise ValueError(f"R-edge {e.source}-{e.target} needs a cusp "
                                 f"verdict Yes, got {kind}")
        options = facet_index_options(e.move, e.source, e.target)
        index = min(options)
        out[vid] = Assignment(
            apply_morse(prev.descriptor, MorseEvent(index)),
            prev.justification + (_wall_step(e, options, index),))

    # C10,1: the K3 cover has L+ = U, which hosts no A2 pair, so the branch
    # locus collapses through an index-0 event that lifts to index 1 upstairs
    from .ramified import add_unknotted_handle, lift_morse_index
    prev = out[VertexId(10, 0)]
    lifted = lift_morse_index(0)
    out[VertexId(10, 1)] = Assignment(
        apply_morse(prev.descriptor, MorseEvent(lifted)),
        prev.justification
        + ("terminal wall C10,0-C10,1: K3 locus S10 collapses to S10 + S2 "
           "(L+ = U admits no A2 pair); branch index 0 lifts to index "
           f"{lifted}; adds S1xS3",))

    # C2,1_I: ramified sum over the 2-torus K3 locus adds an unknotted
    # (2,2)-handle together with the mandatory S1xS3
    prev = out[VertexId(1, 0)]
    out[VertexId(2, 1, special=True)] = Assignment(
        add_unknotted_handle(prev.descriptor, 2, 2),
        prev.justification
        + ("terminal wall C2,0-C2,1_I: the K3 locus gains a torus; the "
           "double cover gains an unknotted S2xS2 handle plus S1xS3",))

    missing = set(atlas.vertices) - set(out)
    if missing:
        raise ValueError(f"unassigned vertices: {sorted(map(str, missing))}")

    for vid, asg in out.items():
        vdata = atlas.vertex(vid)
        _, _, r, d_coord, i, j = descriptor_invariants(asg.descriptor)
        if (r, d_coord) != (vdata.r, vdata.d):
            raise ValueError(
                f"{vid}: descriptor (r, d) = ({r}, {d_coord}) does not match "
                f"lattice values ({vdata.r}, {vdata.d})")
    return out


def r_edge_verdicts(atlas: Atlas) -> dict[tuple[VertexId, VertexId],
                                          CuspVerdict]:
    """Cusp verdict of every R-edge, keyed by (source id, target id)."""
    return {(e.source, e.target): cusp_stratum((atlas.vertex(e.source),
                                                atlas.vertex(e.target)))
            for e in atlas.edges if e.move == MoveKind.R}


def verify(atlas: Atlas) -> list[CheckResult]:
    """The atlas checks, then the R-wall cusp verdicts and the propagation.

    Every R-wall carries a cusp ("Yes") except the walls into the terminal
    classes ("No"); the verdicts are computed once and reused by
    ``propagate``.
    """
    out = validate_atlas(atlas)
    verdicts = r_edge_verdicts(atlas)
    bad = []
    for (s, t), v in verdicts.items():
        want = "No" if t in TERMINAL else "Yes"
        if v.kind != want:
            bad.append(f"{s}-{t}: {v.kind}, expected {want}")
    out.append(CheckResult("cusp-verdicts", "fail" if bad else "pass",
                           "; ".join(bad) or "all R-walls as asserted"))
    try:
        propagate(atlas, verdicts)
        out.append(CheckResult("propagation", "pass",
                               "75 descriptors, invariants consistent"))
    except ValueError as exc:
        out.append(CheckResult("propagation", "fail", str(exc)))
    return out
