"""Morse-move bookkeeping on real-locus descriptors.

A descriptor is RP4 with connected-sum handles S^p x S^q (p + q = 4) and
disjoint 4-spheres — the closure of everything the classification
constructs, the real loci of cubic fourfolds being 4-manifolds. Morse
events transform descriptors only in the supported cases; the propagation
routine walks the K4-graph and assigns every class its real locus together
with a justification chain. ``facet_index_options`` is the one home of the
facet indices and ``r_wall_problems`` the one sweep of the R-walls, where
their verdicts are judged; ``propagate`` runs the sweep, then the walk, and
``verify`` reports the two as separate checks. The two terminal classes take
the ramified arguments of ``ramified``, worded from the K3-graph
annotations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .atlas import (
    K3_L_PLUS,
    K3_REAL_LOCUS,
    TERMINAL,
    Atlas,
    CheckResult,
    Edge,
    MoveKind,
    VertexId,
    coordinates,
    validate_atlas,
)
from .ramified import add_unknotted_handle, lift_morse_index
from .walls import Mod2Refutation, cusp_stratum


class UnsupportedMorseError(ValueError):
    """The event needs deeper smooth topology than the descriptor algebra."""


@dataclass(frozen=True)
class RealLocusDescriptor:
    handles: tuple[tuple[int, int], ...] = ()  # sorted (p, q), p <= q, p+q = 4
    disjoint_spheres: int = 0

    def __post_init__(self):
        for (p, q) in self.handles:
            if p + q != 4 or p < 0 or p > q:
                raise ValueError(f"bad handle ({p}, {q}) in dimension 4")
        if tuple(sorted(self.handles)) != self.handles:
            raise ValueError("handles must be sorted")
        if self.disjoint_spheres < 0:
            raise ValueError("negative sphere count")

    def with_handle(self, p: int, q: int) -> "RealLocusDescriptor":
        h = tuple(sorted(self.handles + (tuple(sorted((p, q))),)))
        return RealLocusDescriptor(h, self.disjoint_spheres)

    def with_sphere(self) -> "RealLocusDescriptor":
        return RealLocusDescriptor(self.handles, self.disjoint_spheres + 1)

    @property
    def connected(self) -> bool:
        return self.disjoint_spheres == 0

    @property
    def b_star(self) -> int:
        return 5 + 2 * len(self.handles) + 2 * self.disjoint_spheres

    @property
    def chi(self) -> int:
        # a handle adds chi(S^p x S^q) - chi(S4): +2 for p even, -2 for p odd
        return (1 + sum(2 if p % 2 == 0 else -2 for p, _ in self.handles)
                + 2 * self.disjoint_spheres)

    def __str__(self) -> str:
        parts = ["RP4"]
        counts = Counter(self.handles)
        for (p, q) in sorted(counts, reverse=True):
            parts.append(f"{counts[(p, q)]}(S{p}xS{q})")
        s = " # ".join(parts)
        if self.disjoint_spheres:
            s += f" + {self.disjoint_spheres}S4" \
                if self.disjoint_spheres > 1 else " + S4"
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
    """(b_star, chi, r, d_coord, i, j) of a descriptor.

    b* and chi are odd, so r = 11 + (1 - chi) / 2 and d = (27 - b*) / 2 are
    integers, and r - d = 2 #(S1xS3): with a handles with p even, b handles
    S1xS3 and s spheres, (i, j) = (a + s, b).
    """
    b_star, chi = d.b_star, d.chi
    r, d_coord = 11 + (1 - chi) // 2, (27 - b_star) // 2
    return b_star, chi, r, d_coord, *coordinates(r, d_coord)


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
    S^1 x S^3; index 2 with trivial core (w2 = 0 throughout) adds S^2 x S^2.
    Everything else is rejected.
    """
    if e.index == 0:
        return d.with_sphere()
    if e.index == 1:
        if not d.connected:
            raise UnsupportedMorseError(
                "index-1 modification supported only on a connected locus")
        return d.with_handle(1, 3)
    if e.index == 2:
        if not e.core_trivial:
            raise UnsupportedMorseError(
                "index-2 modification requires a trivial core class")
        return d.with_handle(2, 2)
    raise UnsupportedMorseError(
        f"no descriptor rule for index {e.index} in dimension 4")


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


def propagate(atlas: Atlas) -> dict[VertexId, Assignment]:
    """Assign a real-locus descriptor to every vertex of the K4 atlas.

    Raises ValueError with the problems of ``r_wall_problems`` when an
    R-wall breaks its rule, and otherwise returns the walk: every class but
    the base and the two terminal classes is derived from the one wall into
    it, its R-wall if it has one and else its L-wall, by the lowest Morse
    index that wall's facet admits.
    """
    if bad := r_wall_problems(atlas):
        raise ValueError("; ".join(bad))
    return _walk(atlas)


def _walk(atlas: Atlas) -> dict[VertexId, Assignment]:
    """The descriptors of ``propagate``, without judging the R-walls.

    Only walls whose two ends are classes of the atlas are crossed, so a
    dangling edge assigns nothing. Raises ValueError when a class stays
    unassigned or its descriptor's (r, d) differs from its lattice values.
    """
    into: dict[VertexId, Edge] = {}
    for e in atlas.edges:
        if (e.source in atlas.vertices and e.target in atlas.vertices
                and e.target not in TERMINAL
                and (e.move == MoveKind.R or e.target not in into)):
            into[e.target] = e

    out = {VertexId(0, 0): Assignment(RP4, ("base class: real locus RP4",))}
    # each wall raises i + j by one, so sources come before targets
    for vid in sorted(into, key=lambda v: v.i + v.j):
        e = into[vid]
        prev = out.get(e.source)
        if prev is None:
            continue  # a broken chain: reported below as unassigned
        options = facet_index_options(e.move, e.source, e.target)
        index = min(options)
        out[vid] = Assignment(
            apply_morse(prev.descriptor, MorseEvent(index)),
            prev.justification + (_wall_step(e, options, index),))

    # C10,1: the K3 cover's L+ hosts no A2 pair (the wall's refuted "No"),
    # so the branch locus collapses through an index-0 event that lifts to
    # index 1 upstairs
    c10_0, c10_1 = VertexId(10, 0), VertexId(10, 1)
    prev = out.get(c10_0)
    if prev is not None and c10_1 in atlas.vertices:
        lifted = lift_morse_index(0)
        out[c10_1] = Assignment(
            apply_morse(prev.descriptor, MorseEvent(lifted)),
            prev.justification
            + (f"terminal wall {c10_0}-{c10_1}: K3 locus "
               f"{K3_REAL_LOCUS[c10_0]} collapses to "
               f"{K3_REAL_LOCUS[c10_1]} (L+ = {K3_L_PLUS[c10_1]} admits "
               f"no A2 pair); branch index 0 lifts to index {lifted}; "
               "adds S1xS3",))

    # C2,1_I: ramified sum over the 2-torus K3 locus adds an unknotted
    # (2,2)-handle together with the mandatory S1xS3
    c2_1 = VertexId(2, 1, special=True)
    prev = out.get(VertexId(1, 0))
    if prev is not None and c2_1 in atlas.vertices:
        out[c2_1] = Assignment(
            add_unknotted_handle(prev.descriptor, 2, 2),
            prev.justification
            + ("terminal wall C2,0-C2,1_I: the K3 locus gains a torus; the "
               "double cover gains an unknotted S2xS2 handle plus S1xS3",))

    missing = set(atlas.vertices) - set(out)
    if missing:
        raise ValueError(f"unassigned vertices: {sorted(map(str, missing))}")

    for vid, vdata in atlas.vertices.items():
        _, _, r, d_coord, i, j = descriptor_invariants(out[vid].descriptor)
        if (r, d_coord) != (vdata.r, vdata.d):
            raise ValueError(
                f"{vid}: descriptor (r, d) = ({r}, {d_coord}) does not match "
                f"lattice values ({vdata.r}, {vdata.d})")
    return out


def r_wall_problems(atlas: Atlas) -> list[str]:
    """The one R-wall sweep: how each R-edge of ``atlas`` breaks its rule.

    A wall into a terminal class carries no cusp: it needs "No" with a mod-2
    refutation. Every other R-wall carries one and needs "Yes". An R-edge
    that leaves the atlas or joins classes that are not one move apart gets
    no verdict and is named for that.
    """
    problems = []
    for e in atlas.edges:
        if e.move != MoveKind.R:
            continue
        wall = f"R-edge {e.source}-{e.target}"
        ends = [atlas.vertices.get(x) for x in (e.source, e.target)]
        if None in ends:
            problems.append(f"{wall} leaves the atlas")
            continue
        try:
            v = cusp_stratum(ends)
        except ValueError as exc:  # the endpoints are not one move apart
            problems.append(f"{wall}: {exc}")
            continue
        want = "No" if e.target in TERMINAL else "Yes"
        got = v.kind
        if got == "No" and not isinstance(v.refutation, Mod2Refutation):
            got = "No without a refutation"
        if got != want:
            problems.append(f"{wall} needs a cusp verdict {want}, got {got}")
    return problems


def verify(atlas: Atlas) -> list[CheckResult]:
    """The atlas checks, then the R-wall sweep, then the walk.

    ``cusp-verdicts`` reports the problems of ``r_wall_problems`` and
    ``propagation`` the faults of ``_walk``, so each R-wall is judged once
    and a broken one is named by ``cusp-verdicts``, never by
    ``propagation``.
    """
    out = validate_atlas(atlas)
    bad = r_wall_problems(atlas)
    out.append(CheckResult("cusp-verdicts", "fail" if bad else "pass",
                           "; ".join(bad) or "all R-walls as asserted"))
    try:
        out.append(CheckResult(
            "propagation", "pass",
            f"{len(_walk(atlas))} descriptors, invariants consistent"))
    except ValueError as exc:
        out.append(CheckResult("propagation", "fail", str(exc)))
    return out
