"""Deformation-class atlas of real cubic fourfolds.

The classification tables are encoded as data: 64 principal classes indexed
by coordinates (i, j) and 11 special (type I) classes, each carrying the
eigenlattice pair (M_+^0, M_-). The K4-graph connects classes by L- and
R-moves (``MoveKind``); the mirrored K3-graph reuses its skeleton, and its
export adds the real-locus annotations the surgery arguments consume.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from functools import lru_cache

from .lattices import (
    LatticeExpr,
    Term,
    gram,
    parse_lattice_expr,
    signature,
    two_part,
)


class MoveKind(enum.Enum):
    L = "L"
    R = "R"
    L_INVERSE = "L_inverse"
    R_INVERSE = "R_inverse"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, order=True)
class VertexId:
    i: int
    j: int
    special: bool = False

    def __str__(self) -> str:
        return f"C{self.i},{self.j}" + ("_I" if self.special else "")

    def dot_id(self) -> str:
        return f"C{self.i}_{self.j}" + ("_I" if self.special else "")

    @staticmethod
    def parse(text: str) -> "VertexId":
        s = text.strip()
        if not s.startswith("C"):
            raise ValueError(f"bad vertex name {text!r}")
        s = s[1:]
        special = s.endswith("_I")
        if special:
            s = s[:-2]
        try:
            i_str, j_str = s.split(",")
            return VertexId(int(i_str), int(j_str), special)
        except ValueError:
            raise ValueError(f"bad vertex name {text!r}") from None


def move_between(source: VertexId, target: VertexId) -> MoveKind | None:
    """The move from ``source`` to ``target``: L raises i by one, R raises j
    by one, and any other step is None."""
    step = (target.i - source.i, target.j - source.j)
    return {(1, 0): MoveKind.L, (0, 1): MoveKind.R}.get(step)


@dataclass(frozen=True)
class VertexData:
    id: VertexId
    m_plus0: LatticeExpr
    m_minus: LatticeExpr
    r: int
    d: int
    type_one: bool


@dataclass(frozen=True)
class Edge:
    source: VertexId  # higher-d endpoint
    target: VertexId  # lower-d endpoint
    move: MoveKind
    provenance: str   # "paper" or "grid"


@dataclass(frozen=True)
class Atlas:
    kind: str  # "K4" | "K3"
    vertices: dict[VertexId, VertexData]
    edges: tuple[Edge, ...]

    def vertex(self, vid: VertexId) -> VertexData:
        return self.vertices[vid]

    def edges_at(self, vid: VertexId) -> list[Edge]:
        return [e for e in self.edges if vid in (e.source, e.target)]


# ---------------------------------------------------------------------------
# table data

# principal M_+^0 by i: (max j, expression with {k} = count of A1 summands)
_TABLE_PLUS = {
    0: (9, "<-2>+{k}*A1+<6>"),
    1: (9, "<-2>+{k}*A1+A2"),
    2: (9, "U+{k}*A1+A2"),
    3: (6, "U+{k}*A1+A2+D4"),
    4: (5, "<-2>+{k}*A1+<6>+E8"),
    5: (5, "<-2>+{k}*A1+A2+E8"),
    6: (5, "U+{k}*A1+A2+E8"),
    7: (2, "U+{k}*A1+A2+D4+E8"),
    8: (1, "<-2>+{k}*A1+<6>+2*E8"),
    9: (1, "<-2>+{k}*A1+A2+2*E8"),
    10: (1, "U+{k}*A1+A2+2*E8"),
}

# principal M_- by j: (max i, expression template)
_TABLE_MINUS = {
    0: (10, "<-2>+{k}*A1"),
    1: (10, "U+{k}*A1"),
    2: (7, "U+{k}*A1+D4"),
    3: (6, "<-2>+{k}*A1+E7"),
    4: (6, "<-2>+{k}*A1+E8"),
    5: (6, "U+{k}*A1+E8"),
    6: (3, "U+{k}*A1+D4+E8"),
    7: (2, "<-2>+{k}*A1+E7+E8"),
    8: (2, "<-2>+{k}*A1+2*E8"),
    9: (2, "U+{k}*A1+2*E8"),
}

# special (type I) classes: (i, j) -> (M_+^0, M_-)
_TABLE_SPECIAL = {
    (1, 0): ("U(2)+A2+E8(2)", "U(2)+E8(2)"),
    (2, 1): ("U+A2+E8(2)", "U+E8(2)"),
    (9, 0): ("U(2)+A2+2*E8", "U(2)"),
    (6, 1): ("U(2)+A2+D4+E8", "U(2)+D4"),
    (5, 4): ("U(2)+A2+E8", "U(2)+E8"),
    (4, 3): ("U+A2+2*D4", "U+2*D4"),
    (3, 2): ("U(2)+A2+2*D4", "U(2)+2*D4"),
    (2, 5): ("U(2)+A2+D4", "U(2)+D4+E8"),
    (1, 4): ("U+E6(2)", "U+3*D4"),
    (1, 8): ("U(2)+A2", "U(2)+2*E8"),
    (0, 3): ("U(2)+E6(2)", "U(2)+3*D4"),
}

# attachments of the special vertices and the two terminal vertices, all
# asserted explicitly by the classification argument
_PAPER_EDGES = [
    ((0, 0, False), (1, 0, True), MoveKind.L),
    ((8, 0, False), (9, 0, True), MoveKind.L),
    ((2, 0, False), (2, 1, True), MoveKind.R),   # terminal
    ((10, 0, False), (10, 1, False), MoveKind.R),  # terminal
    ((6, 0, False), (6, 1, True), MoveKind.R),
    ((5, 3, False), (5, 4, True), MoveKind.R),
    ((4, 2, False), (4, 3, True), MoveKind.R),
    ((3, 1, False), (3, 2, True), MoveKind.R),
    ((2, 4, False), (2, 5, True), MoveKind.R),
    ((1, 3, False), (1, 4, True), MoveKind.R),
    ((1, 7, False), (1, 8, True), MoveKind.R),
    ((0, 2, False), (0, 3, True), MoveKind.R),
]

# the two terminal classes: they take no grid-inferred edges, and the
# R-walls into them are the only ones without a cuspidal stratum
TERMINAL = frozenset({VertexId(10, 1), VertexId(2, 1, special=True)})

# K3-graph real-locus annotations consumed by the double-cover arguments
K3_REAL_LOCUS = {
    VertexId(1, 0): "1 torus",
    VertexId(2, 1, special=True): "2 tori",
    VertexId(10, 0): "S10",
    VertexId(10, 1): "S10 + S2",
}
K3_L_PLUS = {VertexId(10, 1): "U"}


@lru_cache(maxsize=None)
def _table_term(text: str) -> Term:
    (term,) = parse_lattice_expr(text).terms
    return term


def _principal_expr(template: str, k: int) -> LatticeExpr:
    """The template with k copies of A1 as its "{k}*A1" term (none if
    k = 0); every other term is parsed once (``_table_term``)."""
    return LatticeExpr(tuple(
        Term(k, "A", 1) if "{k}" in p else _table_term(p)
        for p in template.split("+") if k or "{k}" not in p))


def table1_domain() -> set[tuple[int, int]]:
    return {(i, j) for i, (jmax, _) in _TABLE_PLUS.items()
            for j in range(jmax + 1)}


def table2_domain() -> set[tuple[int, int]]:
    return {(i, j) for j, (imax, _) in _TABLE_MINUS.items()
            for i in range(imax + 1)}


def classify_type(m_plus0: LatticeExpr,
                  m_minus: LatticeExpr) -> tuple[int, bool]:
    """(d, type_one): M_-'s two-rank, and the type both eigenlattices give.

    The class is type I when q is integer-valued on the 2-primary
    discriminant part. Both come from ``two_part``: d is the sum of the
    two-ranks of M_-'s components, and each eigenlattice's verdict is the
    AND of its components' verdicts. Both eigenlattices must give the same
    verdict; disagreement signals a data error.
    """
    d, v_minus = two_part(gram(m_minus))
    _, v_plus = two_part(gram(m_plus0))
    if v_minus != v_plus:
        raise ValueError(
            f"type verdicts disagree for ({m_plus0}, {m_minus}): "
            f"M+0 says {v_plus}, M- says {v_minus}")
    return d, v_minus


def vertex_ids() -> list[VertexId]:
    """The 75 classes: the 64 principal ones, then the 11 special ones."""
    dom = table1_domain()
    if dom != table2_domain():
        raise ValueError("principal coordinate domains disagree")
    return ([VertexId(i, j) for (i, j) in sorted(dom)]
            + [VertexId(i, j, True) for (i, j) in sorted(_TABLE_SPECIAL)])


def table_vertex(vid: VertexId) -> VertexData:
    """One class with its invariants, from the tables; KeyError if none."""
    i, j = vid.i, vid.j
    if vid.special and (i, j) in _TABLE_SPECIAL:
        plus, minus = _TABLE_SPECIAL[(i, j)]
        m_plus0, m_minus = parse_lattice_expr(plus), parse_lattice_expr(minus)
    elif not vid.special and i in _TABLE_PLUS and 0 <= j <= _TABLE_PLUS[i][0]:
        # (i, j) in table1_domain(), read off the table without building it
        jmax_p, tpl_p = _TABLE_PLUS[i]
        imax_m, tpl_m = _TABLE_MINUS[j]
        m_plus0 = _principal_expr(tpl_p, jmax_p - j)
        m_minus = _principal_expr(tpl_m, imax_m - i)
    else:
        raise KeyError(f"{vid} is not a class of the tables")
    d, type_one = classify_type(m_plus0, m_minus)
    return VertexData(vid, m_plus0, m_minus, m_minus.rank, d, type_one)


@lru_cache(maxsize=None)
def build_atlas(kind: str = "K4") -> Atlas:
    """The K4-graph, or the K3-graph: the same vertices and edges with the
    real-locus annotations. Each process builds the vertex table once."""
    if kind == "K3":
        k4 = build_atlas("K4")
        return Atlas("K3", dict(k4.vertices), k4.edges)
    if kind != "K4":
        raise ValueError(f"unknown graph kind {kind!r}")
    vertices = {vid: table_vertex(vid) for vid in vertex_ids()}
    return Atlas(kind, vertices, table_edges())


def table_edges() -> tuple[Edge, ...]:
    """The 117 edges: the paper's 12, then the grid's, from the coordinate
    tables alone (no vertex invariants are computed)."""
    edges: list[Edge] = []
    paper_pairs = set()
    for (src, dst, move) in _PAPER_EDGES:
        s, t = VertexId(*src), VertexId(*dst)
        edges.append(Edge(s, t, move, "paper"))
        paper_pairs.add((s, t))
    dom = table1_domain()
    for (i, j) in sorted(dom):
        s = VertexId(i, j)
        for t in (VertexId(i + 1, j), VertexId(i, j + 1)):  # L, then R
            if ((t.i, t.j) in dom and t not in TERMINAL
                    and (s, t) not in paper_pairs):
                edges.append(Edge(s, t, move_between(s, t), "grid"))
    return tuple(edges)


def coordinates(r: int, d: int) -> tuple[int, int]:
    """The (i, j) of a class with invariants (r, d): i = (22 - r - d) / 2 and
    j = (r - d) / 2, integers iff r - d is even (then so is 22 - r - d)."""
    if (r - d) % 2:
        raise ValueError(f"(r, d) = ({r}, {d}) gives non-integer (i, j)")
    return (22 - r - d) // 2, (r - d) // 2


def vertex_invariants(v: VertexData) -> tuple[int, int, int, int, int, int]:
    """(r, d, i, j, b_star, chi), checked against the stored id.

    d is the F2 two-rank of each Gram matrix (``GramMatrix.two_rank``), a
    route that shares no arithmetic with ``table_vertex`` (only the split
    into components), and must equal the table's d.
    """
    g_plus, g_minus = gram(v.m_plus0), gram(v.m_minus)
    r = g_minus.rank
    if g_plus.rank + r != 22:
        raise ValueError(f"{v.id}: rank sum {g_plus.rank + r} != 22")
    for name, g in (("M+0", g_plus), ("M-", g_minus)):
        sig = signature(g)
        if sig != (g.rank - 1, 1):
            raise ValueError(f"{v.id}: signature({name}) = {sig}, "
                             f"expected ({g.rank - 1}, 1)")
    d_plus, d_minus = g_plus.two_rank, g_minus.two_rank
    if d_plus != d_minus:
        raise ValueError(f"{v.id}: two-ranks differ: {d_plus} != {d_minus}")
    d = d_minus
    if d != v.d:
        raise ValueError(f"{v.id}: two-rank {d} != the table's {v.d}")
    try:
        i, j = coordinates(r, d)
    except ValueError as exc:
        raise ValueError(f"{v.id}: {exc}") from None
    if (i, j) != (v.id.i, v.id.j) or i < 0 or j < 0:
        raise ValueError(f"{v.id}: computed coordinates ({i}, {j}) mismatch")
    return r, d, i, j, 27 - 2 * d, 23 - 2 * r


PRINCIPAL_TYPE_ONE = {VertexId(10, 1), VertexId(7, 2), VertexId(6, 5),
                      VertexId(3, 6), VertexId(2, 9)}


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "warn"
    detail: str

    def to_dict(self) -> dict:
        return {"name": self.name, "status": self.status, "detail": self.detail}


def validate_atlas(a: Atlas) -> list[CheckResult]:
    out: list[CheckResult] = []

    def check(name: str, ok: bool, detail: str):
        out.append(CheckResult(name, "pass" if ok else "fail", detail))

    n_special = sum(1 for v in a.vertices.values() if v.id.special)
    n_principal = len(a.vertices) - n_special
    check("vertex-count", len(a.vertices) == 75,
          f"{len(a.vertices)} vertices ({n_principal} principal, "
          f"{n_special} special)")
    check("principal-count", n_principal == 64, f"{n_principal} principal")
    check("special-count", n_special == 11, f"{n_special} special")
    check("domain-agreement", table1_domain() == table2_domain(),
          "both tables span the same 64 coordinate pairs")

    bad = []
    for v in a.vertices.values():
        try:
            vertex_invariants(v)
        except ValueError as exc:
            bad.append(str(exc))
    check("per-vertex-invariants", not bad,
          "all 75 pass" if not bad else "; ".join(bad))

    special_ok = all(v.type_one for v in a.vertices.values() if v.id.special)
    check("special-all-type-one", special_ok, "11/11 special are type I")
    principal_one = {v.id for v in a.vertices.values()
                     if v.type_one and not v.id.special}
    check("principal-type-one-set", principal_one == PRINCIPAL_TYPE_ONE,
          "{" + ", ".join(str(x) for x in sorted(principal_one)) + "}")

    coords = {}
    for v in a.vertices.values():
        coords.setdefault((v.id.i, v.id.j), []).append(v)
    twins = [vs for vs in coords.values() if len(vs) == 2]
    n_twins = len(twins)
    out.append(CheckResult(
        "twin-pairs", "warn" if n_twins != 10 else "pass",
        f"computed {n_twins} twin pairs; prose claims 10"))
    twin_types = all(sum(1 for v in vs if v.type_one) == 1 for vs in twins)
    check("twin-type-split", twin_types,
          "each twin pair has exactly one type I member")

    dangling = [e for e in a.edges
                if e.source not in a.vertices or e.target not in a.vertices]
    check("edge-endpoints", not dangling,
          f"{len(a.edges)} edges" if not dangling else
          "dangling: " + ", ".join(f"{e.source}->{e.target}"
                                   for e in dangling))
    bad_moves = [f"{e.source}->{e.target}" for e in a.edges
                 if move_between(e.source, e.target) != e.move]
    check("edge-move-kinds", not bad_moves,
          "all edges match coordinate differences" if not bad_moves
          else "; ".join(bad_moves))
    terminal_bad = [str(t) for t in TERMINAL
                    if len(a.edges_at(t)) != 1]
    check("terminal-vertices", not terminal_bad,
          "C10,1 and C2,1_I have a single attaching edge"
          if not terminal_bad else "; ".join(terminal_bad))
    return out


# ---------------------------------------------------------------------------
# export


def atlas_to_json(a: Atlas) -> str:
    data = {
        "kind": a.kind,
        "vertices": [
            {
                "i": v.id.i, "j": v.id.j, "special": v.id.special,
                "m_plus0": str(v.m_plus0), "m_minus": str(v.m_minus),
                "r": v.r, "d": v.d,
                "type": "I" if v.type_one else "II",
            }
            for v in sorted(a.vertices.values(), key=lambda v: v.id)
        ],
        "edges": [
            {"from": str(e.source), "to": str(e.target),
             "move": str(e.move), "provenance": e.provenance}
            for e in a.edges
        ],
    }
    if a.kind == "K3":
        data["k3_real_locus"] = {str(k): v for k, v in K3_REAL_LOCUS.items()}
        data["k3_l_plus"] = {str(k): v for k, v in K3_L_PLUS.items()}
    return json.dumps(data, indent=2)


def atlas_to_dot(a: Atlas) -> str:
    lines = [f"graph {a.kind} {{"]
    for v in sorted(a.vertices.values(), key=lambda v: v.id):
        label = (f"{v.id}\\n(r={v.r}, d={v.d}) "
                 f"type {'I' if v.type_one else 'II'}")
        lines.append(f'  {v.id.dot_id()} [label="{label}"];')
    for e in a.edges:
        style = "solid" if e.move == MoveKind.L else "dashed"
        lines.append(f"  {e.source.dot_id()} -- {e.target.dot_id()} "
                     f'[style={style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
