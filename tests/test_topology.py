import re
from collections import Counter
from dataclasses import replace
from itertools import product

import pytest

from realcubic import topology
from realcubic.atlas import Edge, VertexId
from realcubic.topology import (
    RP4,
    MorseEvent,
    RealLocusDescriptor,
    UnsupportedMorseError,
    apply_morse,
    descriptor_invariants,
    facet_index_options,
    propagate,
    r_wall_problems,
    verify,
)
from realcubic.walls import CuspVerdict, MoveKind


def test_descriptor_invariants_base_cases():
    assert descriptor_invariants(RP4) == (5, 1, 11, 11, 0, 0)
    rp4_s4 = RP4.with_sphere()
    assert descriptor_invariants(rp4_s4) == (7, 3, 10, 10, 1, 0)
    d = RP4.with_handle(2, 2).with_handle(2, 2).with_handle(1, 3)
    assert str(d) == "RP4 # 2(S2xS2) # 1(S1xS3)"
    assert descriptor_invariants(d) == (11, 3, 10, 8, 2, 1)


def test_descriptor_formulas():
    for i in range(4):
        for j in range(4):
            for s in range(3):
                d = RealLocusDescriptor(
                    tuple(sorted([(2, 2)] * i + [(1, 3)] * j)), s)
                assert d.b_star == 5 + 2 * i + 2 * j + 2 * s
                assert d.chi == 1 + 2 * i - 2 * j + 2 * s


def test_descriptor_coordinates_count_handles_and_spheres():
    # a handles with p even, b handles S1xS3 and s spheres give
    # (i, j) = (a + s, b): r and d are integers and r - d is even for every
    # descriptor, so descriptor_invariants has nothing to refuse
    for a0, a2, b, s in product(range(3), repeat=4):
        d = RealLocusDescriptor(
            tuple(sorted([(0, 4)] * a0 + [(2, 2)] * a2 + [(1, 3)] * b)), s)
        *_, i, j = descriptor_invariants(d)
        assert (i, j) == (a0 + a2 + s, b)


def test_descriptor_validation():
    with pytest.raises(ValueError):
        RealLocusDescriptor(((2, 3),))
    with pytest.raises(ValueError):
        RealLocusDescriptor((), -1)
    with pytest.raises(ValueError):
        RP4.with_handle(2, 3)


def test_descriptor_str():
    assert str(RP4) == "RP4"
    assert str(RP4.with_sphere()) == "RP4 + S4"
    two = RP4.with_sphere().with_sphere()
    assert str(two) == "RP4 + 2S4"
    d = RealLocusDescriptor(((1, 3), (2, 2), (2, 2)))
    assert str(d) == "RP4 # 2(S2xS2) # 1(S1xS3)"


def test_facet_index_options():
    birth = (VertexId(0, 0), VertexId(1, 0, special=True))
    assert facet_index_options(MoveKind.L, *birth) == {0, 4}
    assert facet_index_options(MoveKind.L, VertexId(3, 0),
                               VertexId(4, 0)) == {2}
    assert facet_index_options(MoveKind.R, VertexId(0, 0),
                               VertexId(0, 1)) == {1, 3}
    with pytest.raises(ValueError):
        facet_index_options(MoveKind.L_INVERSE, VertexId(1, 0),
                            VertexId(0, 0))


def test_apply_morse_supported():
    assert apply_morse(RP4, MorseEvent(0)) == RP4.with_sphere()
    assert apply_morse(RP4, MorseEvent(2)) == RP4.with_handle(2, 2)
    d = RP4.with_handle(2, 2)
    assert apply_morse(d, MorseEvent(1)) == d.with_handle(1, 3)


def test_apply_morse_chi_parity():
    d = RP4
    for index in (0, 1, 2):
        before = d.chi
        after = apply_morse(RP4, MorseEvent(index)).chi
        delta = after - before
        assert delta == (2 if index % 2 == 0 else -2)
        assert apply_morse(RP4, MorseEvent(index)).b_star == RP4.b_star + 2


def test_apply_morse_unsupported():
    with pytest.raises(UnsupportedMorseError):
        apply_morse(RP4.with_sphere(), MorseEvent(1))  # disconnected
    with pytest.raises(UnsupportedMorseError):
        apply_morse(RP4, MorseEvent(2, core_trivial=False))
    with pytest.raises(UnsupportedMorseError):
        apply_morse(RP4, MorseEvent(3))


def test_propagation_covers_all(k4, propagation):
    assert set(propagation) == set(k4.vertices)


def test_propagation_main_table(k4, propagation):
    for vid, asg in propagation.items():
        if vid == VertexId(1, 0, special=True):
            assert str(asg.descriptor) == "RP4 + S4"
            continue
        want = "RP4"
        if vid.i:
            want += f" # {vid.i}(S2xS2)"
        if vid.j:
            want += f" # {vid.j}(S1xS3)"
        assert str(asg.descriptor) == want, str(vid)


def test_propagation_invariants_match_lattices(k4, propagation):
    for vid, asg in propagation.items():
        _, _, r, d, i, j = descriptor_invariants(asg.descriptor)
        v = k4.vertex(vid)
        assert (r, d) == (v.r, v.d)
        assert (i, j) == (vid.i, vid.j)


def test_single_disconnected_class(propagation):
    disconnected = [vid for vid, asg in propagation.items()
                    if not asg.descriptor.connected]
    assert disconnected == [VertexId(1, 0, special=True)]


def test_justification_chains(propagation):
    for vid, asg in propagation.items():
        assert asg.justification
        assert asg.justification[0].startswith("base class")
    j21 = propagation[VertexId(2, 1, special=True)].justification
    assert "C2,0-C2,1_I" in j21[-1]
    j101 = propagation[VertexId(10, 1)].justification
    assert "C10,0-C10,1" in j101[-1] and "index 1" in j101[-1]


def _force(monkeypatch, wall, forced):
    """Make the sweep's ``cusp_stratum`` give ``forced`` on ``wall``."""
    real = topology.cusp_stratum
    monkeypatch.setattr(
        topology, "cusp_stratum",
        lambda ends: forced if (ends[0].id, ends[1].id) == wall
        else real(ends))


def _named_by_the_sweep_alone(a, wall):
    """``verify(a)`` names ``wall`` under cusp-verdicts only."""
    checks = {c.name: c for c in verify(a)}
    name = f"{wall[0]}-{wall[1]}"
    assert checks["cusp-verdicts"].status == "fail"
    assert name in checks["cusp-verdicts"].detail
    assert checks["propagation"].status == "pass"
    assert name not in checks["propagation"].detail


def test_propagation_requires_yes_verdicts(k4, monkeypatch):
    wall = (VertexId(0, 0), VertexId(0, 1))
    _force(monkeypatch, wall, CuspVerdict("Unknown", detail="forced for test"))
    with pytest.raises(ValueError, match="^R-edge C0,0-C0,1 needs a cusp "
                       "verdict Yes, got Unknown$"):
        propagate(k4)
    _named_by_the_sweep_alone(k4, wall)


_TERMINAL_WALLS = [(VertexId(10, 0), VertexId(10, 1)),
                   (VertexId(2, 0), VertexId(2, 1, special=True))]


@pytest.mark.parametrize("wall", _TERMINAL_WALLS, ids=lambda w: str(w[1]))
@pytest.mark.parametrize("forced, got", [
    (CuspVerdict("Yes", detail="forced for test"), "Yes"),
    (CuspVerdict("No", detail="forced for test: no refutation"),
     "No without a refutation"),
], ids=["Yes", "No-without-refutation"])
def test_terminal_walls_need_a_refuted_no(k4, cusp_verdicts, monkeypatch,
                                          wall, forced, got):
    assert cusp_verdicts[wall].kind == "No"
    _force(monkeypatch, wall, forced)
    with pytest.raises(ValueError, match=f"^R-edge {wall[0]}-{wall[1]} needs "
                       f"a cusp verdict No, got {got}$"):
        propagate(k4)
    _named_by_the_sweep_alone(k4, wall)


_C03_I, _C53, _C54_I = (VertexId(0, 3, special=True), VertexId(5, 3),
                        VertexId(5, 4, special=True))


def _drop(vid):
    """The table without class ``vid``; the edges into it dangle."""
    return lambda a: replace(a, vertices={v: d for v, d in a.vertices.items()
                                          if v != vid})


def _retarget_c53(target):
    """The table with its R-edge C5,3-C5,4_I pointed at ``target``."""
    return lambda a: replace(a, edges=tuple(
        Edge(e.source, target, e.move, e.provenance)
        if (e.source, e.target) == (_C53, _C54_I) else e for e in a.edges))


@pytest.mark.parametrize("mutate, detail, bad_move, unassigned", [
    (_drop(_C03_I), "R-edge C0,2-C0,3_I leaves the atlas", None, None),
    # the terminal walls are crossed by the walk itself, not along an edge
    (_drop(VertexId(10, 1)), "R-edge C10,0-C10,1 leaves the atlas", None,
     None),
    (_drop(VertexId(2, 1, special=True)),
     "R-edge C2,0-C2,1_I leaves the atlas", None, None),
    (_retarget_c53(VertexId(4, 4)),
     "R-edge C5,3-C4,4: vertices C5,3 and C4,4 are not adjacent by one move",
     "C5,3->C4,4", "C5,4_I"),
    (_retarget_c53(VertexId(6, 4)),
     "R-edge C5,3-C6,4: vertices C5,3 and C6,4 are not adjacent by one move",
     "C5,3->C6,4", "C5,4_I"),
], ids=["drop-C0,3_I", "drop-C10,1", "drop-C2,1_I",
        "retarget-C5,3-C5,4_I-to-C4,4",
        "retarget-C5,3-C5,4_I-to-C6,4"])
def test_verify_reports_a_mutated_table(k4, mutate, detail, bad_move,
                                        unassigned):
    a = mutate(k4)
    checks = {c.name: c for c in verify(a)}
    assert checks["cusp-verdicts"].status == "fail"
    assert checks["cusp-verdicts"].detail == detail
    assert r_wall_problems(a) == [detail]
    # each misplaced edge is named once, with no separate d-step entry
    moves = checks["edge-move-kinds"]
    assert (moves.status, moves.detail) == (
        ("pass", "all edges match coordinate differences") if bad_move is None
        else ("fail", bad_move))
    # the walk reports only its own faults, never the broken wall
    walk = checks["propagation"]
    assert (walk.status, walk.detail) == (
        ("pass", "74 descriptors, invariants consistent") if unassigned is None
        else ("fail", f"unassigned vertices: ['{unassigned}']"))
    if unassigned is None:
        # the dangling edge assigns nothing: the walk stays in the atlas
        assert set(topology._walk(a)) == set(a.vertices)
    with pytest.raises(ValueError, match=f"^{re.escape(detail)}$"):
        propagate(a)


# one step per wall kind: what crossing the wall adds to the descriptor
_STEPS = {
    "L": ("S2xS2", lambda d: d.with_handle(2, 2)),
    "R": ("S1xS3", lambda d: d.with_handle(1, 3)),
    "birth": ("S4", lambda d: d.with_sphere()),
}


def test_every_edge_adds_one_step(k4, propagation):
    added = Counter()
    for e in k4.edges:
        kind = ("birth" if e.target == VertexId(1, 0, special=True)
                else str(e.move))
        name, step = _STEPS[kind]
        source = propagation[e.source].descriptor
        assert propagation[e.target].descriptor == step(source), \
            f"{e.source}-{e.target}"
        added[(str(e.move), name)] += 1
    assert added == {("L", "S2xS2"): 54, ("R", "S1xS3"): 62,
                     ("L", "S4"): 1}


def test_ten_descriptor_twins(k4, propagation):
    by_coords, by_descriptor = {}, {}
    for vid in k4.vertices:
        by_coords.setdefault((vid.i, vid.j), set()).add(vid)
        by_descriptor.setdefault(propagation[vid].descriptor, set()).add(vid)
    coordinate_twins = [frozenset(vs) for vs in by_coords.values()
                        if len(vs) == 2]
    descriptor_twins = [frozenset(vs) for vs in by_descriptor.values()
                        if len(vs) > 1]
    assert len(coordinate_twins) == 11
    assert len(descriptor_twins) == 10
    assert set(coordinate_twins) - set(descriptor_twins) == {
        frozenset({VertexId(1, 0), VertexId(1, 0, special=True)})}


def test_propagate_sweeps_r_edges_once(k4, propagation, monkeypatch):
    calls = []
    real = topology.cusp_stratum
    monkeypatch.setattr(topology, "cusp_stratum",
                        lambda ends: calls.append(ends) or real(ends))
    assert propagate(k4) == propagation
    assert len(calls) == 62  # one per R-edge


def test_verify_reports_a_broken_wall_chain(k4):
    cut = (VertexId(0, 0), VertexId(0, 1))
    a = replace(k4, edges=tuple(e for e in k4.edges
                                if (e.source, e.target) != cut))
    checks = {c.name: c for c in verify(a)}
    assert checks["propagation"].status == "fail"
    assert checks["propagation"].detail.startswith(
        "unassigned vertices: ['C0,1', 'C0,2', 'C0,3', 'C0,3_I',")


_L_CHAIN = tuple(f"L-wall C{i - 1},0-C{i},0 has index 2; adds S2xS2"
                 for i in range(1, 11))
_R_STEP = ("R-wall {} carries a cuspidal stratum: of the adjacent facet "
           "pair with indices {{1, 3}} the index-1 facet applies; adds S1xS3")


@pytest.mark.parametrize("name, chain", [
    ("C1,0_I", (
        "L-wall C0,0-C1,0_I has index 0 or 4; index 0 births S4",)),
    ("C9,0_I", _L_CHAIN[:8] + (
        "L-wall C8,0-C9,0_I has index 2; adds S2xS2",)),
    ("C5,4_I", _L_CHAIN[:5] + tuple(
        _R_STEP.format(w) for w in ("C5,0-C5,1", "C5,1-C5,2", "C5,2-C5,3",
                                    "C5,3-C5,4_I"))),
    ("C10,1", _L_CHAIN + (
        "terminal wall C10,0-C10,1: K3 locus S10 collapses to S10 + S2 "
        "(L+ = U admits no A2 pair); branch index 0 lifts to index 1; "
        "adds S1xS3",)),
    ("C2,1_I", _L_CHAIN[:1] + (
        "terminal wall C2,0-C2,1_I: the K3 locus gains a torus; the double "
        "cover gains an unknotted S2xS2 handle plus S1xS3",)),
])
def test_full_justification_chains(propagation, name, chain):
    got = propagation[VertexId.parse(name)].justification
    assert got == ("base class: real locus RP4",) + chain
