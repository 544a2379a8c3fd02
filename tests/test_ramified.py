from math import comb

import pytest

from realcubic.ramified import (
    PerturbationData,
    add_unknotted_handle,
    euler_perturbation,
    handle_counts,
    lift_morse_index,
)
from realcubic.topology import RP4, descriptor_invariants


def test_euler_perturbation():
    assert euler_perturbation(PerturbationData(1, 1, 0)) == 3
    assert euler_perturbation(PerturbationData(1, 1, 2)) == 1
    assert euler_perturbation(PerturbationData(1, 0, 0)) == 1
    # chi = 3 gives r = 10, the column shared by the two torus-cover classes
    assert 11 + (1 - 3) // 2 == 10


def test_euler_perturbation_linear(rng):
    for _ in range(50):
        a = PerturbationData(rng.randint(-9, 9), rng.randint(-9, 9),
                             rng.randint(-9, 9))
        b = PerturbationData(rng.randint(-9, 9), rng.randint(-9, 9),
                             rng.randint(-9, 9))
        s = PerturbationData(a.chi_P + b.chi_P,
                             a.chi_P_plus + b.chi_P_plus,
                             a.chi_L + b.chi_L)
        assert euler_perturbation(s) == euler_perturbation(a) \
            + euler_perturbation(b)


def test_lift_morse_index():
    assert lift_morse_index(0) == 1
    assert lift_morse_index(1) == 2
    assert lift_morse_index(4) == 5
    with pytest.raises(ValueError):
        lift_morse_index(-1)


def test_add_unknotted_handle():
    d = add_unknotted_handle(RP4.with_handle(2, 2), 2, 2)
    assert str(d) == "RP4 # 2(S2xS2) # 1(S1xS3)"
    d = add_unknotted_handle(RP4, 2, 2)
    assert str(d) == "RP4 # 1(S2xS2) # 1(S1xS3)"
    with pytest.raises(ValueError):
        add_unknotted_handle(RP4, 2, 3)


def test_add_unknotted_handle_invariant_steps():
    for (p, q) in [(2, 2), (1, 3), (0, 4)]:
        base = RP4.with_handle(2, 2)
        out = add_unknotted_handle(base, p, q)
        assert out.b_star == base.b_star + 4
        # the (p,q) handle contributes its own chi on top of the -2 from
        # the mandatory S1xS3
        handle_chi = (1 + (-1) ** p) * (1 + (-1) ** q) - 2
        assert out.chi == base.chi + handle_chi - 2


def test_handle_counts():
    assert handle_counts(4, 1) == 5
    assert handle_counts(6, 3) == 35
    assert handle_counts(4, 0) == 1
    for n in range(2, 13):
        assert handle_counts(n, 1) == n + 1
        for k in range((n + 1) // 2):
            assert handle_counts(n, k) == comb(n + 1, k)
    with pytest.raises(ValueError):
        handle_counts(4, 3)  # 3 >= (4+1)/2
    with pytest.raises(ValueError):
        handle_counts(1, 1)  # 1 >= (1+1)/2
