"""Ramified connected sums and handle counts.

Double branched covers enter the classification only through a handful of
computable facts: an Euler-characteristic formula for perturbations, the
index shift from branch locus to double cover, the unknotted-handle rule
(both used by ``topology.propagate`` on the two terminal walls), and the
binomial handle counts of the higher-dimensional spiral construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .topology import RealLocusDescriptor


@dataclass(frozen=True)
class PerturbationData:
    chi_P: int
    chi_P_plus: int
    chi_L: int


def euler_perturbation(d: PerturbationData) -> int:
    """chi of the perturbed double cover: chi(P) + 2 chi(P+) - chi(L).

    Both perturbation orders of the defining polynomial give one deformation
    type (quasi-homogeneous rescaling), so the formula needs no orientation
    choice.
    """
    return d.chi_P + 2 * d.chi_P_plus - d.chi_L


def lift_morse_index(q: int) -> int:
    """Index shift from the branch locus to the double cover."""
    if q < 0:
        raise ValueError("Morse index must be nonnegative")
    return q + 1


def add_unknotted_handle(d: RealLocusDescriptor, p: int, q: int
                         ) -> RealLocusDescriptor:
    """Connected sum with an unknotted S^p x S^q, p + q = 4: costs an extra
    S^1 x S^3."""
    return d.with_handle(1, 3).with_handle(p, q)


def handle_counts(n: int, k: int) -> int:
    """Number of index-k handles in the n-dimensional spiral construction."""
    if not 0 <= k < (n + 1) / 2:
        raise ValueError(f"index k = {k} out of range for dimension {n}")
    return comb(n + 1, k)

