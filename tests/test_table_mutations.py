"""A fixed table of mutations of the classification data, and what catches
each one.

Each case edits the atlas module's tables (``monkeypatch``), builds K4
past ``build_atlas``'s memo and, for a grid edge, drops it from the built
atlas. It pins the set of ``topology.verify`` checks that fail, or the
``ValueError`` the build raises. Every library memo is emptied before and
after, so that no case sees another's lattices or verdicts.

Known misses are pinned as they are: ``<24>`` and ``<54>`` for column 0's
``<6>`` give the same rank, two-rank and type (ROADMAP items 5 and 17),
the added L-edge C3,3->C4,3_I is a genuine wall (item 3), and no check
counts the grid edges. Three mutations raise where a check should fail
(item 11).
"""

import dataclasses

import pytest

import realcubic.atlas as atlas_module
from realcubic.atlas import MoveKind, VertexId, build_atlas
from realcubic.topology import verify
from test_kernels import clear_memos

PAPER_C1_8 = ((1, 7, False), (1, 8, True), MoveKind.R)
PAPER_C5_4 = ((5, 3, False), (5, 4, True), MoveKind.R)


def replace_row(table: str, key, value):
    return lambda mp: mp.setitem(getattr(atlas_module, table), key, value)


def drop_special(key):
    return lambda mp: mp.delitem(atlas_module._TABLE_SPECIAL, key)


def edit_paper_edges(edit):
    return lambda mp: mp.setattr(atlas_module, "_PAPER_EDGES",
                                 edit(list(atlas_module._PAPER_EDGES)))


def without(edges, edge):
    return [e for e in edges if e != edge]


def swapped(edges, old, new):
    return [new if e == old else e for e in edges]


def drop_grid_edge(source: str, target: str):
    ends = (VertexId.parse(source), VertexId.parse(target))
    return lambda a: dataclasses.replace(a, edges=tuple(
        e for e in a.edges if (e.source, e.target) != ends))


# (name, table edit, edit of the built atlas, failing checks or the message
# of the ValueError raised)
MUTATIONS = [
    ("none", None, None, set()),
    ("column 0 <6> -> <24>",
     replace_row("_TABLE_PLUS", 0, (9, "<-2>+{k}*A1+<24>")), None, set()),
    ("column 0 <6> -> <54>",
     replace_row("_TABLE_PLUS", 0, (9, "<-2>+{k}*A1+<54>")), None, set()),
    ("column 0 <6> -> <-6>",
     replace_row("_TABLE_PLUS", 0, (9, "<-2>+{k}*A1+<-6>")), None,
     {"per-vertex-invariants"}),
    ("C1,0_I M+0 A2 -> <6>",
     replace_row("_TABLE_SPECIAL", (1, 0), ("U(2)+<6>+E8(2)", "U(2)+E8(2)")),
     None, "type verdicts disagree"),
    ("C1,4_I M- U+3*D4 -> U(2)+3*D4",
     replace_row("_TABLE_SPECIAL", (1, 4), ("U+E6(2)", "U(2)+3*D4")), None,
     {"per-vertex-invariants", "propagation"}),
    ("drop C0,3_I", drop_special((0, 3)), None,
     {"vertex-count", "special-count", "edge-endpoints", "cusp-verdicts"}),
    ("drop paper edge C1,7->C1,8_I",
     edit_paper_edges(lambda es: without(es, PAPER_C1_8)), None,
     {"propagation"}),
    ("C5,3->C5,4_I flipped to L",
     edit_paper_edges(lambda es: swapped(
         es, PAPER_C5_4, (PAPER_C5_4[0], PAPER_C5_4[1], MoveKind.L))), None,
     {"edge-move-kinds", "propagation"}),
    ("C5,3->C5,4_I retargeted to C6,4",
     edit_paper_edges(lambda es: swapped(
         es, PAPER_C5_4, (PAPER_C5_4[0], (6, 4, False), MoveKind.R))), None,
     {"edge-move-kinds", "cusp-verdicts", "propagation"}),
    ("_TABLE_PLUS[3] max j 6 -> 5",
     replace_row("_TABLE_PLUS", 3, (5, "U+{k}*A1+A2+D4")), None,
     "principal coordinate domains disagree"),
    ("_TABLE_MINUS[2] D4 -> E7",
     replace_row("_TABLE_MINUS", 2, (7, "U+{k}*A1+E7")), None,
     "type verdicts disagree"),
    ("add L-edge C3,3->C4,3_I (a genuine wall)",
     edit_paper_edges(lambda es: es + [((3, 3, False), (4, 3, True),
                                        MoveKind.L)]), None, set()),
    ("drop grid edge C3,3->C4,3", None, drop_grid_edge("C3,3", "C4,3"),
     set()),
    ("drop grid edge C3,3->C3,4", None, drop_grid_edge("C3,3", "C3,4"),
     set()),
]


@pytest.fixture()
def no_memos():
    clear_memos()
    yield
    clear_memos()


@pytest.mark.parametrize("name,table_edit,atlas_edit,outcome", MUTATIONS,
                         ids=[m[0] for m in MUTATIONS])
def test_each_mutation_is_caught_as_pinned(k4, no_memos, monkeypatch, name,
                                           table_edit, atlas_edit, outcome):
    if table_edit is not None:
        table_edit(monkeypatch)
    if isinstance(outcome, str):
        with pytest.raises(ValueError, match=outcome):
            build_atlas.__wrapped__("K4")
        return
    atlas = build_atlas.__wrapped__("K4")
    if atlas_edit is not None:
        atlas = atlas_edit(atlas)
    assert (atlas == k4) == (name == "none")  # the mutation took
    failed = {c.name for c in verify(atlas) if c.status == "fail"}
    assert failed == outcome
