import dataclasses
import json

import pytest

import realcubic.atlas
import realcubic.lattices
from realcubic.atlas import (
    K3_L_PLUS,
    K3_REAL_LOCUS,
    PRINCIPAL_TYPE_ONE,
    VertexId,
    atlas_to_dot,
    atlas_to_json,
    build_atlas,
    table1_domain,
    table2_domain,
    table_vertex,
    validate_atlas,
    vertex_ids,
    vertex_invariants,
)
from realcubic.lattices import (
    discriminant_form,
    discriminant_group,
    gram,
    parse_lattice_expr,
    signature,
)
from realcubic.walls import MoveKind


def test_vertex_id_parse_and_str():
    assert VertexId.parse("C2,1_I") == VertexId(2, 1, special=True)
    assert VertexId.parse("C10,0") == VertexId(10, 0)
    assert str(VertexId(3, 4, True)) == "C3,4_I"
    assert VertexId(3, 4, True).dot_id() == "C3_4_I"
    with pytest.raises(ValueError):
        VertexId.parse("D2,1")
    with pytest.raises(ValueError):
        VertexId.parse("C2;1")


def test_domains_agree_and_count():
    dom1, dom2 = table1_domain(), table2_domain()
    assert dom1 == dom2
    assert len(dom1) == 64


def test_atlas_counts(k4):
    assert len(k4.vertices) == 75
    special = [v for v in k4.vertices.values() if v.id.special]
    assert len(special) == 11
    assert len(k4.vertices) - len(special) == 64


def test_vertex_invariants_examples(k4):
    r, d, i, j, b_star, chi = vertex_invariants(k4.vertex(VertexId(0, 0)))
    assert (r, d, b_star, chi) == (11, 11, 5, 1)
    v = k4.vertex(VertexId(10, 1))
    assert str(v.m_minus) == "U"
    assert (v.r, v.d) == (2, 0)
    v = k4.vertex(VertexId(1, 0, special=True))
    assert str(v.m_minus) == "U(2)+E8(2)"
    r, d, i, j, b_star, chi = vertex_invariants(v)
    assert (r, d, b_star, chi) == (10, 10, 7, 3)


def test_all_vertices_consistent(k4):
    for v in k4.vertices.values():
        r, d, i, j, b_star, chi = vertex_invariants(v)
        assert (i, j) == (v.id.i, v.id.j)
        assert gram(v.m_plus0).rank + r == 22
        assert signature(gram(v.m_minus)) == (r - 1, 1)
        assert discriminant_group(gram(v.m_plus0)).two_rank == d


def test_type_classification(k4):
    assert all(k4.vertex(vid).type_one for vid in k4.vertices
               if vid.special)
    principal_one = {vid for vid in k4.vertices
                     if not vid.special and k4.vertex(vid).type_one}
    assert principal_one == PRINCIPAL_TYPE_ONE
    assert len(principal_one) == 5


def test_twin_pairs(k4):
    coords = {}
    for vid in k4.vertices:
        coords.setdefault((vid.i, vid.j), []).append(vid)
    twins = [v for v in coords.values() if len(v) == 2]
    assert len(twins) == 11
    for pair in twins:
        types = sorted(k4.vertex(v).type_one for v in pair)
        assert types == [False, True]


def test_edges(k4):
    ids = set(k4.vertices)
    for e in k4.edges:
        assert e.source in ids and e.target in ids
        di = e.target.i - e.source.i
        dj = e.target.j - e.source.j
        assert (di, dj) == ((1, 0) if e.move == MoveKind.L else (0, 1))
        assert e.provenance in ("paper", "grid")
    # terminal classes: exactly one attaching edge each, paper-asserted
    for t in (VertexId(10, 1), VertexId(2, 1, special=True)):
        at = k4.edges_at(t)
        assert len(at) == 1 and at[0].provenance == "paper"
        assert at[0].move == MoveKind.R
    # the two special L-attachments
    paper = {(e.source, e.target) for e in k4.edges if e.provenance == "paper"}
    assert (VertexId(0, 0), VertexId(1, 0, special=True)) in paper
    assert (VertexId(8, 0), VertexId(9, 0, special=True)) in paper


def test_validation_report(k4):
    report = validate_atlas(k4)
    by_name = {c.name: c for c in report}
    assert all(c.status != "fail" for c in report)
    assert by_name["twin-pairs"].status == "warn"
    assert "11" in by_name["twin-pairs"].detail
    assert by_name["edge-endpoints"].detail == "117 edges"


def test_edge_endpoints_names_the_dangling_edges(k4):
    c03 = VertexId(0, 3, special=True)
    dropped = dataclasses.replace(k4, vertices={
        vid: v for vid, v in k4.vertices.items() if vid != c03})
    by_name = {c.name: c for c in validate_atlas(dropped)}
    assert by_name["edge-endpoints"].status == "fail"
    assert by_name["edge-endpoints"].detail == "dangling: C0,2->C0,3_I"


def test_json_export(k4):
    data = json.loads(atlas_to_json(k4))
    assert data["kind"] == "K4"
    assert len(data["vertices"]) == 75
    types = {v["type"] for v in data["vertices"]}
    assert types == {"I", "II"}
    assert all(e["move"] in ("L", "R") for e in data["edges"])


def test_dot_export(k4):
    dot = atlas_to_dot(k4)
    assert dot.startswith("graph K4 {")
    assert dot.count("--") == len(k4.edges)
    assert "C10_1" in dot and "C2_1_I" in dot
    assert "style=solid" in dot and "style=dashed" in dot


def test_k3_atlas(k3):
    # the annotations live once, in the atlas tables; only the K3 export
    # carries them
    assert k3.kind == "K3"
    assert set(k3.vertices) == set(build_atlas("K4").vertices)
    assert K3_REAL_LOCUS == {VertexId(1, 0): "1 torus",
                             VertexId(2, 1, special=True): "2 tori",
                             VertexId(10, 0): "S10",
                             VertexId(10, 1): "S10 + S2"}
    assert K3_L_PLUS == {VertexId(10, 1): "U"}
    data = json.loads(atlas_to_json(k3))
    assert list(data)[-2:] == ["k3_real_locus", "k3_l_plus"]
    assert data["k3_real_locus"] == {"C1,0": "1 torus", "C2,1_I": "2 tori",
                                     "C10,0": "S10", "C10,1": "S10 + S2"}
    assert data["k3_l_plus"] == {"C10,1": "U"}
    assert "k3_real_locus" not in json.loads(atlas_to_json(build_atlas("K4")))


def test_unknown_kind():
    with pytest.raises(ValueError):
        build_atlas("K5")


def test_k3_shares_the_k4_vertex_table(k4, k3):
    assert k3.edges == k4.edges
    assert all(k3.vertex(vid) is v for vid, v in k4.vertices.items())


def test_table_vertex_is_the_atlas_vertex(k4):
    assert vertex_ids() == list(k4.vertices)
    for vid in vertex_ids():
        assert table_vertex(vid) == k4.vertex(vid)
    for vid in (VertexId(0, 10), VertexId(11, 0), VertexId(0, 0, True)):
        with pytest.raises(KeyError):
            table_vertex(vid)


def test_classify_type_rejects_disagreeing_eigenlattices(monkeypatch):
    # <-2>+9*A1+A2 is type II (q(z/2) = -1/2), U(2)+E8(2) is type I
    monkeypatch.setitem(realcubic.atlas._TABLE_SPECIAL, (1, 0),
                        ("<-2>+9*A1+A2", "U(2)+E8(2)"))
    with pytest.raises(ValueError, match="type verdicts disagree"):
        table_vertex(VertexId(1, 0, special=True))


def test_vertex_invariants_rejects_a_wrong_table_two_rank(k4, monkeypatch):
    # the two-ranks a Gram matrix keeps are its own, not the table's: once
    # they are computed, a wrong d is still caught with no F2 elimination
    v = k4.vertex(VertexId(0, 0))
    vertex_invariants(v)
    monkeypatch.setattr(realcubic.lattices, "_block_corank_f2", None)
    with pytest.raises(ValueError, match="two-rank 11 != the table's 10"):
        vertex_invariants(dataclasses.replace(v, d=10))


def test_table_vertex_reads_no_stale_memo(k4, monkeypatch):
    # the invariant memos are keyed by component entries, so a patched
    # table entry after a warm build gets its own d and type, and undoing
    # the patch rebuilds the cached atlas exactly
    vid = VertexId(1, 0, special=True)
    assert (k4.vertex(vid).d, k4.vertex(vid).type_one) == (10, True)
    plus, minus = "<-2>+5*A1+A2", "<-2>+5*A1"
    with monkeypatch.context() as m:
        m.setitem(realcubic.atlas._TABLE_SPECIAL, (1, 0), (plus, minus))
        v = table_vertex(vid)
    whole = discriminant_form(gram(parse_lattice_expr(minus)))
    assert (v.d, v.type_one) == (whole.group.two_rank,
                                 whole.two_part_integer) == (6, False)
    assert build_atlas.__wrapped__("K4") == build_atlas("K4")
