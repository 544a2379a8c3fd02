"""Property test: invariants read off the components equal the whole matrix's.

Signature, determinant, two-rank and the type verdict are computed once per
distinct orthogonal component block and added up (or ANDed) over the sum;
``apply`` and ``inner`` read the blocks too. Hypothesis draws orthogonal sums
of grammar atoms (with multiplicities and scales, U(k) and <k> included)
and dense nondegenerate blocks, and conjugates each sum by a permutation so
that the components interleave, as in ``test_elimination``. Every example
is compared with whole-matrix oracles: the Fraction signature, the Bareiss
determinant, and the Smith normal form's group and form. A second property
checks that the components ``gram`` lays out, one per atom copy, are the
ones a scan of the same rows finds.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from realcubic.intmat import det
from realcubic.lattices import (
    Term,
    discriminant_form,
    discriminant_group,
    gram,
    gram_from_rows,
    parse_lattice_expr,
    signature,
    two_part,
)
from test_elimination import oracle_signature
from test_kernels import oracle_apply, oracle_inner

MAX_RANK = 24


@st.composite
def atom_blocks(draw) -> list[list[int]]:
    """The Gram matrix of one term "m*X(s)" of the expression grammar."""
    kind = draw(st.sampled_from("ADEU<"))
    atom = {
        "A": lambda: f"A{draw(st.integers(1, 6))}",
        "D": lambda: f"D{draw(st.integers(4, 6))}",
        "E": lambda: f"E{draw(st.integers(6, 8))}",
        "U": lambda: "U",
        "<": lambda: f"<{draw(st.integers(-12, 12).filter(bool))}>",
    }[kind]()
    mult, scale = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    text = f"{mult}*{atom}" + (f"({scale})" if scale > 1 else "")
    return gram(parse_lattice_expr(text)).rows()


@st.composite
def dense_blocks(draw) -> list[list[int]]:
    """A nondegenerate symmetric block with no zero off the diagonal."""
    n = draw(st.integers(1, 4))
    entry = st.sampled_from((-4, -2, -1, 1, 2, 3, 4, 6))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = draw(st.sampled_from((-4, -2, 0, 2, 3, 4, 6)))
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = draw(entry)
    return m


@st.composite
def interleaved_sums(draw) -> list[list[int]]:
    """Rows of a nondegenerate orthogonal sum of rank <= MAX_RANK, its rows
    and columns permuted."""
    blocks, n = [], 0
    for _ in range(draw(st.integers(1, 5))):
        b = draw(st.one_of(atom_blocks(), dense_blocks()
                           .filter(lambda m: det(m) != 0)))
        if n + len(b) > MAX_RANK:
            break
        blocks.append(b)
        n += len(b)
    full = [[0] * n for _ in range(n)]
    pos = 0
    for b in blocks:
        for i, row in enumerate(b):
            full[pos + i][pos:pos + len(b)] = row
        pos += len(b)
    perm = draw(st.permutations(range(n)))
    return [[full[i][j] for j in perm] for i in perm]


def vectors(n: int):
    return st.lists(st.one_of(st.just(0), st.integers(-3, 3)),
                    min_size=n, max_size=n).map(tuple)


def test_component_invariants_match_the_whole_matrix():
    seen = {"two-ranks": set(), "verdicts": set(), "components": 0}

    @settings(max_examples=150, derandomize=True, database=None,
              deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def check(data):
        rows = data.draw(interleaved_sums())
        g = gram_from_rows(rows)
        d, type_one = two_part(g)
        form = discriminant_form(g)
        assert signature(g) == oracle_signature(g)
        assert g.det() == det(rows)
        assert d == g.two_rank == discriminant_group(g).two_rank
        assert type_one == form.two_part_integer
        v, w = data.draw(vectors(g.rank)), data.draw(vectors(g.rank))
        assert g.apply(v) == oracle_apply(g, v)
        assert g.inner(v, w) == oracle_inner(g, v, w)
        seen["two-ranks"].add(d)
        seen["verdicts"].add(type_one)
        seen["components"] = max(seen["components"], len(g.components))

    check()
    # the comparison covers more than trivial groups and single blocks
    assert len(seen["two-ranks"]) >= 5
    assert seen["verdicts"] == {True, False}
    assert seen["components"] >= 4


@st.composite
def expression_texts(draw) -> str:
    """A sum of 1 to 6 grammar terms "m*X(s)" of rank <= MAX_RANK."""
    terms: list[str] = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from("ADEU<"))
        atom = {
            "A": lambda: f"A{draw(st.integers(1, 6))}",
            "D": lambda: f"D{draw(st.integers(4, 6))}",
            "E": lambda: f"E{draw(st.integers(6, 8))}",
            "U": lambda: "U",
            "<": lambda: f"<{draw(st.integers(-12, 12).filter(bool))}>",
        }[kind]()
        mult, scale = draw(st.integers(1, 3)), draw(st.integers(1, 4))
        term = f"{mult}*{atom}" + (f"({scale})" if scale > 1 else "")
        if parse_lattice_expr("+".join(terms + [term])).rank > MAX_RANK:
            break
        terms.append(term)
    return "+".join(terms)


def test_atom_split_matches_the_scan():
    # gram lays out one component per atom copy; gram_from_rows finds the
    # components by a scan of the nonzero pattern of the same rows
    seen = {"components": 0, "scaled": False}

    @settings(max_examples=200, derandomize=True, database=None,
              deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(expression_texts())
    def check(text):
        expr = parse_lattice_expr(text)
        g = gram(expr)
        scanned = gram_from_rows(g.rows())
        assert g.components == scanned.components
        assert g.component_blocks == scanned.component_blocks
        assert g.entries == scanned.entries
        assert g.atoms == tuple(Term(1, t.kind, t.n, t.scale)
                                for t in expr.terms for _ in range(t.mult))
        assert [len(c) for c in g.components] \
            == [a.atom_rank for a in g.atoms]
        assert [j for c in g.components for j in c] == list(range(g.rank))
        assert signature(g) == signature(scanned) == oracle_signature(g)
        assert g.det() == scanned.det() == det(g.rows())
        assert two_part(g) == two_part(scanned)
        seen["components"] = max(seen["components"], len(g.components))
        seen["scaled"] |= any(a.scale > 1 for a in g.atoms)

    check()
    assert seen["components"] >= 8 and seen["scaled"]
