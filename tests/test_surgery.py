import pytest

from realcubic.intmat import AbelianGroup
from realcubic.surgery import (
    SEIFERT_PI1,
    GroupPresentation,
    abelianization,
    blow_down,
    blow_up,
    h1_from_linking,
    lifted_framing,
    presentation_from_linking,
    slide,
    spiral_scenario,
)


def random_symmetric(rng, n, bound=9):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(-bound, bound)
    return m


def test_h1_examples():
    assert str(h1_from_linking([[-4, 2], [2, -2]])) == "Z/2 + Z/2"
    assert str(h1_from_linking([[0]])) == "Z"
    assert str(h1_from_linking([[1]])) == "trivial"
    with pytest.raises(ValueError):
        h1_from_linking([[0, 1], [2, 0]])


def test_abelian_group_str_and_order():
    assert str(AbelianGroup((2, 4), 1)) == "Z/2 + Z/4 + Z"
    assert str(AbelianGroup(())) == "trivial"
    assert AbelianGroup((2, 4)).order == 8
    assert AbelianGroup((), 2).order is None
    # the two-rank counts the even factors; the free part adds none
    assert AbelianGroup((2, 4), 1).two_rank == 2
    assert AbelianGroup((3, 6, 12)).two_rank == 2
    assert AbelianGroup((3,), 2).two_rank == 0


def test_blow_up_and_slide():
    m = [[-4, 2], [2, -2]]
    up = blow_up(m, -1)
    assert up == [[-4, 2, 0], [2, -2, 0], [0, 0, -1]]
    slid = slide(up, 0, 2)
    assert slid[0][0] == -5 and slid[0][2] == -1
    assert slid == [list(r) for r in zip(*slid)]  # symmetric
    with pytest.raises(ValueError):
        blow_up(m, 2)
    with pytest.raises(ValueError):
        slide(m, 1, 1)


def test_blow_down():
    m = [[3, 0, 0], [0, -1, 0], [0, 0, 5]]
    assert blow_down(m, 1) == [[3, 0], [0, 5]]
    with pytest.raises(ValueError):
        blow_down([[2, 0], [0, 2]], 0)  # framing not +-1
    with pytest.raises(ValueError):
        blow_down([[1, 1], [1, 0]], 0)  # still linked


def test_kirby_invariance_randomized(rng):
    """Cokernel survives slides and blow-up/blow-down (spot check; the
    1000-case sweep lives in the acceptance suite)."""
    cases = 0
    while cases < 200:
        n = rng.randint(1, 6)
        m = random_symmetric(rng, n)
        before = str(h1_from_linking(m))
        # random transvection chain
        t = m
        for _ in range(rng.randint(1, 10)):
            if n >= 2:
                i, j = rng.sample(range(n), 2)
                t = slide(t, i, j, rng.choice([1, -1]))
        assert str(h1_from_linking(t)) == before
        # stabilize and undo
        sign = rng.choice([1, -1])
        up = blow_up(m, sign)
        assert str(h1_from_linking(up)) == before
        assert blow_down(up, n) == m
        cases += 1


def test_abelianization_examples():
    assert str(abelianization(SEIFERT_PI1)) == "Z/2 + Z/2"
    assert str(abelianization(GroupPresentation(1, ((1,),)))) == "trivial"
    assert str(abelianization(GroupPresentation(2, ()))) == "Z + Z"
    with pytest.raises(ValueError):
        GroupPresentation(2, ((1,),))


def test_presentation_matches_linking(rng):
    for _ in range(100):
        n = rng.randint(1, 5)
        m = random_symmetric(rng, n)
        assert str(abelianization(presentation_from_linking(m))) \
            == str(h1_from_linking(m))


def test_framings():
    assert lifted_framing(-2) == -4
    assert lifted_framing(0) == -2
    assert lifted_framing(2) == 0


def test_spiral_scenario():
    rep = spiral_scenario()
    assert str(rep.h1) == "Z/2 + Z/2"
    assert str(rep.h1_presentation) == "Z/2 + Z/2"
    assert rep.steps[0].matrix == [[-4, 2], [2, -2]]
    final = rep.steps[-1].matrix
    assert final[0][1] == 0  # the two lifted components end up unlinked
    assert all(str(s.h1) == "Z/2 + Z/2" for s in rep.steps)
    assert rep.lines()[-1] == "H1 = Z/2 + Z/2 (two routes agree)"
    assert any("lk(K1, K2) = 2" in a for a in rep.assumptions)
