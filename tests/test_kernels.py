"""Differential tests of the integer kernels on the atlas check path.

The oracles are the former library code, kept as it was: the Smith normal
form that scanned every entry for its pivot, swept for divisibility after a
unit pivot and ran column operations over every row; and the dense
``GramMatrix.inner`` and ``apply``, which multiplied all n^2 entries. The
library picks the same pivots with less work, so it must return the same
(factors, U, V), and sums only over nonzero coordinates. The F2 two-rank of
``vertex_invariants`` (``GramMatrix.two_rank``) is checked against
``discriminant_group``, which reads it off the Smith factors; each Gram
matrix keeps it, and an expression its hash, so that a memo read does no
arithmetic. A work-count guard pins the number of Smith normal forms the
atlas build and its check make: one per distinct orthogonal component,
since the 2-part of each block's discriminant form is memoized by its
entries.
A second guard records which transforms each caller asks the Smith normal
form for, so that no caller builds a U or V it does not read. The oracle
of ``surgery.slide`` is the former dense congruence E^T M E.
"""

import dataclasses
import importlib
import os
import pickle
import pkgutil
import random
import subprocess
import sys

import pytest

import realcubic.atlas
import realcubic.intmat
import realcubic.lattices
import realcubic.walls
from realcubic.atlas import build_atlas, validate_atlas, vertex_invariants
from realcubic.cli import main
from realcubic.intmat import (
    AbelianGroup,
    Matrix,
    cokernel,
    identity,
    matmul,
    smith_normal_form,
)
from realcubic.lattices import (
    DegenerateLatticeError,
    GramMatrix,
    LatticeError,
    LatticeExpr,
    Term,
    discriminant_group,
    gram,
    gram_from_rows,
    parse_lattice_expr,
    signature,
)
from realcubic.surgery import h1_from_linking, slide
from realcubic.walls import cusp_stratum
from test_elimination import interleaved_blocks


def oracle_smith_normal_form(m: Matrix) -> tuple[list[int], Matrix, Matrix]:
    """Return (factors, U, V) with U*m*V diagonal, U and V unimodular.

    ``factors`` is the full diagonal of length min(rows, cols), nonnegative
    and in a divisibility chain (trailing zeros for rank deficit).
    """
    a = [[int(x) for x in row] for row in m]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    u = identity(nr)
    v = identity(nc)

    def row_add(i: int, j: int, c: int) -> None:
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def col_add(i: int, j: int, c: int) -> None:
        for r in range(nr):
            a[r][i] += c * a[r][j]
        for r in range(nc):
            v[r][i] += c * v[r][j]

    def row_swap(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i: int, j: int) -> None:
        for r in range(nr):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(nc):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def row_neg(i: int) -> None:
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(nr, nc):
        # smallest-magnitude pivot; re-selected after every reduction pass so
        # the pivot strictly shrinks and the loop terminates
        piv = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] and (piv is None
                                or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != t:
            row_swap(piv[0], t)
        if piv[1] != t:
            col_swap(piv[1], t)

        p = a[t][t]
        clean = True
        for i in range(t + 1, nr):
            if a[i][t]:
                row_add(i, t, -(a[i][t] // p))
                if a[i][t]:
                    clean = False
        for j in range(t + 1, nc):
            if a[t][j]:
                col_add(j, t, -(a[t][j] // p))
                if a[t][j]:
                    clean = False
        if not clean:
            continue  # leftover remainders are smaller than the pivot

        # divisibility: a[t][t] must divide the remaining block
        bad = None
        for i in range(t + 1, nr):
            if any(a[i][j] % p for j in range(t + 1, nc)):
                bad = i
                break
        if bad is not None:
            row_add(t, bad, 1)
            continue
        if p < 0:
            row_neg(t)
        t += 1

    factors = [a[i][i] for i in range(min(nr, nc))]
    return factors, u, v



def oracle_apply(g: GramMatrix, v) -> tuple:
    return tuple(sum(r[j] * v[j] for j in range(g.rank)) for r in g.entries)


def oracle_inner(g: GramMatrix, v, w) -> int:
    return sum(v[i] * g.entries[i][j] * w[j]
               for i in range(g.rank) for j in range(g.rank))


def eigenlattice_grams(k4) -> list[GramMatrix]:
    """The 150 Gram matrices of the table: M_+^0 and M_- of each class."""
    return [gram(e) for v in k4.vertices.values()
            for e in (v.m_plus0, v.m_minus)]


def random_matrix(rng, rows, cols, bound):
    return [[rng.randint(-bound, bound) for _ in range(cols)]
            for _ in range(rows)]


def random_symmetric(rng, n):
    """Entries biased to even values, so that the two-rank varies."""
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.choice((-4, -2, -2, -1, 0, 0, 2, 2, 3, 4))
    return m


def test_snf_matches_oracle_on_the_eigenlattices(k4):
    grams = eigenlattice_grams(k4)
    assert len(grams) == 150
    for g in grams:
        assert smith_normal_form(g.rows()) == \
            oracle_smith_normal_form(g.rows())


def test_snf_matches_oracle_on_random_matrices():
    rng = random.Random(16)
    cases = 0
    for _ in range(300):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        m = random_matrix(rng, rows, cols, rng.choice((1, 3, 20)))
        assert smith_normal_form(m) == oracle_smith_normal_form(m)
        cases += 1
    for _ in range(150):
        # rank at most k < min(rows, cols): a product through Z^k
        rows, cols = rng.randint(2, 7), rng.randint(2, 7)
        k = rng.randint(0, min(rows, cols) - 1)
        m = matmul(random_matrix(rng, rows, k, 4),
                   random_matrix(rng, k, cols, 4)) if k else \
            [[0] * cols for _ in range(rows)]
        factors, u, v = smith_normal_form(m)
        assert (factors, u, v) == oracle_smith_normal_form(m)
        assert factors.count(0) >= min(rows, cols) - k
        cases += 1
    assert cases == 450


def test_snf_examples_match_oracle():
    for m in ([[2, 0], [0, 2]], [[1, -1, -1], [-1, 3, -1], [-1, -1, 5]],
              [[0]], [[0, 0, 0]], [[-1]], identity(4), [[6, 4], [4, 6]]):
        assert smith_normal_form(m) == oracle_smith_normal_form(m)


def test_two_rank_matches_discriminant_group_on_the_eigenlattices(k4):
    for g in eigenlattice_grams(k4):
        assert g.two_rank == discriminant_group(g).two_rank


def test_two_rank_matches_discriminant_group_on_random_forms():
    rng = random.Random(16)
    seen = set()
    tried = 0
    while tried < 200:
        g = gram_from_rows(random_symmetric(rng, rng.randint(1, 8)))
        if g.det() == 0:
            continue
        tried += 1
        d = g.two_rank
        assert d == discriminant_group(g).two_rank
        seen.add(d)
    assert len(seen) >= 4  # the comparison is not all zeros


def test_an_expression_hashes_its_terms_once(monkeypatch):
    # built before the patch, then read by the memos of gram and the cusp
    # verdicts without hashing a term again: a No, a Yes and an Unknown
    exprs = [parse_lattice_expr(t) for t in (
        "U(2)+E8(2)", "U+7*A1+A2+D4+<6>", "<-2>+5*A1+A2+E8(2)")]
    hashes = [hash(LatticeExpr(e.terms)) for e in exprs]

    def refuse(term):
        raise AssertionError(f"hashed the term {term}")

    monkeypatch.setattr(Term, "__hash__", refuse)
    for e, h in zip(exprs, hashes):
        assert hash(e) == h
        assert gram(e).rank == e.rank and gram(e) is gram(e)
        assert realcubic.walls._verdict(e) is realcubic.walls._verdict(e)
    assert [realcubic.walls._verdict(e).kind for e in exprs] == [
        "No", "Yes", "Unknown"]


def test_an_unpickled_expression_hashes_as_its_process_does():
    # the kept hash is rebuilt, not copied: string hashes differ between
    # processes, so a copied one would miss every memo
    code = ("import pickle, sys; from realcubic.lattices import "
            "parse_lattice_expr as p; sys.stdout.buffer.write("
            "pickle.dumps(p('U(2)+A2+E8(2)')))")
    src = os.path.dirname(os.path.dirname(realcubic.__file__))
    env = dict(os.environ, PYTHONHASHSEED="1", PYTHONPATH=src)
    data = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, check=True).stdout
    e = pickle.loads(data)
    assert e == parse_lattice_expr("U(2)+A2+E8(2)")
    assert hash(e) == hash(LatticeExpr(e.terms))


def test_a_second_vertex_check_reads_the_kept_two_ranks(k4, monkeypatch):
    first = [vertex_invariants(v) for v in k4.vertices.values()]

    def refuse(block):
        raise AssertionError("eliminated a block over F2 again")

    monkeypatch.setattr(realcubic.lattices, "_block_corank_f2", refuse)
    assert [vertex_invariants(v) for v in k4.vertices.values()] == first


def test_sparse_inner_and_apply_match_dense_formulas(k4):
    # expressions lay out contiguous components; matrices given as rows
    # interleave them, degenerate ones included, and ``entries`` gives back
    # the rows
    rng = random.Random(16)
    grams = eigenlattice_grams(k4) + [
        gram(parse_lattice_expr(t)) for t in ("A1", "U", "<-2>+A2", "E8")]
    for i in range(60):
        rows, _ = interleaved_blocks(rng, degenerate=i % 3 == 0)
        g = gram_from_rows(rows)
        assert g.entries == tuple(map(tuple, rows))
        grams.append(g)
    assert any(c != tuple(range(c[0], c[-1] + 1))
               for g in grams for c in g.components)
    assert any(g.det() == 0 for g in grams)
    for g in grams:
        n = g.rank
        vectors = [(0,) * n, tuple(1 if i == n - 1 else 0 for i in range(n))]
        for density in (0.1, 0.5, 1.0):
            vectors += [tuple(rng.randint(-3, 3) if rng.random() < density
                              else 0 for _ in range(n)) for _ in range(3)]
        for v in vectors:
            assert g.apply(v) == oracle_apply(g, v)
            for w in vectors:
                got = g.inner(v, w)
                assert got == oracle_inner(g, v, w) and type(got) is int


def test_sparse_inner_and_apply_check_the_length():
    g = gram(parse_lattice_expr("A2"))
    for bad in ((), (0,), (0, 0, 0), (1, 0, 0)):
        with pytest.raises(LatticeError):
            g.apply(bad)
        with pytest.raises(LatticeError):
            g.inner(bad, (1, 0))
        with pytest.raises(LatticeError):
            g.inner((1, 0), bad)


def fresh_k4():
    """A new K4 build that leaves build_atlas's memo, and so the session's
    k4 and k3 fixtures, as they were."""
    return build_atlas.__wrapped__("K4")


# every memo (lru_cache) of the library, so that a test can start from none
MEMOS = (
    realcubic.lattices._atom_block,
    realcubic.lattices.gram,
    realcubic.lattices._block_two_part,
    realcubic.lattices._block_corank_f2,
    realcubic.atlas._table_term,
    build_atlas,
    realcubic.walls._verdict,
)


def clear_memos():
    """Empty every memo but build_atlas's, whose entries are the session's
    k4 and k3 fixtures (``fresh_k4`` builds past it)."""
    for memo in MEMOS:
        if memo is not build_atlas:
            memo.cache_clear()


def test_every_library_memo_is_listed():
    found = {}
    for info in pkgutil.iter_modules(realcubic.__path__):
        module = importlib.import_module(f"realcubic.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_clear"):
                found[id(value)] = f"{module.__name__}.{name}"
    assert len(found) > 1  # the scan sees memos at all
    listed = {id(memo) for memo in MEMOS}
    assert [name for key, name in found.items() if key not in listed] == []


def counting_snf(calls: list):
    """A smith_normal_form that appends (rows, u, v) of each call to calls."""
    def counting(m: Matrix, *, u: bool = True, v: bool = True):
        calls.append((len(m), u, v))
        return smith_normal_form(m, u=u, v=v)

    return counting


def test_smith_normal_form_counts_on_the_atlas_paths(monkeypatch):
    # a fresh build takes one SNF per distinct component block of the 150
    # eigenlattices in classify_type: <-2>, A1, <6>, A2, U, D4, E7, E8,
    # U(2), E8(2) and E6(2); the check (vertex_invariants) gets d over F2
    # and takes none. Each block's discriminant form reads V, never U.
    calls = []
    monkeypatch.setattr(realcubic.lattices, "smith_normal_form",
                        counting_snf(calls))
    clear_memos()
    atlas = fresh_k4()
    assert sorted(n for n, _, _ in calls) == [1, 1, 1, 2, 2, 2, 4, 6, 7, 8, 8]
    assert all((u, v) == (False, True) for _, u, v in calls)
    calls.clear()
    validate_atlas(atlas)
    assert calls == []


def test_smith_normal_form_builds_only_the_transforms_read(monkeypatch,
                                                           capsys):
    # H1 and the discriminant group are the factors alone; lattice info's
    # discriminant form reads V (its generators and W), never U
    calls = []
    for module in (realcubic.intmat, realcubic.lattices):
        monkeypatch.setattr(module, "smith_normal_form", counting_snf(calls))
    assert cokernel([[2, 1], [1, 2]]) == AbelianGroup((3,))
    assert str(h1_from_linking([[-4, 2], [2, -2]])) == "Z/2 + Z/2"
    g = gram(parse_lattice_expr("U(2)+A2"))
    assert discriminant_group(g).invariant_factors == (2, 6)
    assert calls == [(2, False, False), (2, False, False), (4, False, False)]
    calls.clear()
    assert main(["lattice", "info", "U(2)+A2"]) == 0
    assert "Z/2 + Z/6" in capsys.readouterr().out
    assert calls == [(4, False, True)]


def oracle_slide(m: Matrix, i: int, j: int, sign: int) -> Matrix:
    """The former ``slide``: E^T M E with E = I + sign * e_j e_i^T."""
    n = len(m)
    e = identity(n)
    e[j][i] = sign
    et = [[e[r][c] for r in range(n)] for c in range(n)]
    return matmul(et, matmul(m, e))


def test_slide_matches_the_transvection_formula():
    rng = random.Random(24)
    cases = 0
    for n in range(2, 7):
        for _ in range(8):
            m = random_symmetric(rng, n)
            before = [row[:] for row in m]
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    for sign in (1, -1):
                        assert slide(m, i, j, sign) == \
                            oracle_slide(m, i, j, sign)
                        cases += 1
            assert m == before  # the input is not modified
    assert cases == 8 * 2 * sum(n * (n - 1) for n in range(2, 7))


def test_slide_rejects_bad_arguments():
    m = [[2, 1, 0], [1, -2, 1], [0, 1, 4]]
    with pytest.raises(ValueError, match="symmetric"):
        slide([[2, 1], [0, 2]], 0, 1)
    with pytest.raises(ValueError, match="itself"):
        slide(m, 1, 1)
    for sign in (0, 2, -2):
        with pytest.raises(ValueError, match="sign"):
            slide(m, 0, 1, sign)


def test_gram_and_elimination_work_on_the_atlas_paths(monkeypatch):
    # the build leaves every eigenlattice's Gram matrix in gram's memo, so
    # the check builds none; signature and det of an expression read the
    # atom catalogue, so neither the build, nor its check, nor 32*E8
    # eliminates anything. The same matrix given as rows is eliminated one
    # orthogonal component at a time, once, for det and signature in
    # either order
    atoms, ranks = [], []
    atom_gram = realcubic.lattices._atom_gram
    eliminate = realcubic.lattices._eliminate

    def counting_atom_gram(term):
        atoms.append(term)
        return atom_gram(term)

    def counting_eliminate(a):
        ranks.append(len(a))
        return eliminate(a)

    monkeypatch.setattr(realcubic.lattices, "_atom_gram", counting_atom_gram)
    monkeypatch.setattr(realcubic.lattices, "_eliminate", counting_eliminate)
    clear_memos()
    atlas = fresh_k4()
    assert atoms  # the build itself made the Gram matrices
    atoms.clear()
    validate_atlas(atlas)
    assert atoms == [] and ranks == []
    e8s = gram(parse_lattice_expr("32*E8"))
    assert signature(e8s) == (256, 0) and e8s.det() == 1
    assert ranks == []
    g = gram_from_rows(e8s.rows())
    assert signature(g) == (256, 0) and g.det() == 1
    assert ranks == [8] * 32
    ranks.clear()
    g = gram_from_rows(e8s.rows())
    assert g.det() == 1 and signature(g) == (256, 0)
    assert ranks == [8] * 32
    # a degenerate component: det is 0 and signature raises, also when
    # both are read from the memo
    for rows in ([[1, 1], [1, 1]], [[0]], [[2, 0, 0], [0, 0, 0], [0, 0, 4]],
                 [[0, 1, 1], [1, 0, 1], [1, 1, 2]]):
        g = gram_from_rows(rows)
        for _ in range(2):
            assert g.det() == 0
            with pytest.raises(DegenerateLatticeError):
                signature(g)


def test_a_cold_build_never_scans_for_components(monkeypatch):
    # every table lattice is an expression, and gram lays out its
    # components atom by atom; only a matrix given as rows is scanned.
    # Nor do the build, its check and the cusp verdicts read a dense
    # Gram matrix, and the build computes no F2 two-rank: only the check
    # reads one. No path keeps a view of a Gram matrix beside its fields:
    # only the rank, the inertia and the two-rank are kept.
    scans = []
    components = realcubic.lattices._components

    def counting_components(g):
        scans.append(len(g))
        return components(g)

    monkeypatch.setattr(realcubic.lattices, "_components",
                        counting_components)
    clear_memos()
    atlas = fresh_k4()
    assert realcubic.lattices._block_corank_f2.cache_info().misses == 0
    validate_atlas(atlas)
    for e in atlas.edges:
        cusp_stratum((atlas.vertex(e.source), atlas.vertex(e.target)))
    assert scans == []
    kept = {f.name for f in dataclasses.fields(GramMatrix)} | {
        "rank", "inertia", "two_rank"}
    assert {k for g in eigenlattice_grams(atlas)
            for k in vars(g).keys() - kept} == set()
    gram_from_rows([[2, 1], [1, 2]])
    assert scans == [2]
