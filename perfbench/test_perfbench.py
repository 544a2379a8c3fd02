"""Tests of the benchmark itself: span arithmetic, failure counting and the
metric names it promises in BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

import itertools
import json
import random
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import atlas_warm  # noqa: E402
import cli_cold  # noqa: E402
import lattice_queries as lq  # noqa: E402
import realcubic  # noqa: E402
from common import OpLog, sha256, summarize  # noqa: E402
from tracing import (PER_LAYER, Tracer, busy_and_self,  # noqa: E402
                     layer_metrics, refuter_candidates, self_times)


def test_self_time_of_a_synthetic_span_tree():
    # root [0, 10] has children [1, 4] and [5, 6]; [1, 4] has [2, 3]
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["a", 5.0, 6.0, 0, 0],
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    table = busy_and_self(spans)
    assert table["a"] == [2, 4.0, 3.0]
    assert table["root"] == [1, 10.0, 6.0]


def test_nested_spans_of_one_name_count_once_as_busy():
    spans = [["f", 0.0, 4.0, -1, 0], ["g", 1.0, 3.0, 0, 0],
             ["f", 1.5, 2.5, 1, 0]]
    calls, busy, own = busy_and_self(spans)["f"]
    assert (calls, busy, own) == (2, 4.0, 3.0)


def test_overlapping_children_are_covered_once():
    spans = [["p", 0.0, 10.0, -1, 0], ["c", 1.0, 5.0, 0, 0],
             ["c", 3.0, 6.0, 0, 0]]
    assert self_times(spans)[0] == 5.0


def test_tracer_patches_every_namespace_and_restores_it():
    original = realcubic.lattices.discriminant_form
    tracer = Tracer()
    tracer.install()
    try:
        assert realcubic.atlas.discriminant_form is not original
        assert realcubic.discriminant_form is realcubic.atlas.discriminant_form
        g = realcubic.gram(realcubic.parse_lattice_expr("U(2)+A2"))
        realcubic.discriminant_form(g)
    finally:
        tracer.finish()
    assert realcubic.atlas.discriminant_form is original
    values = layer_metrics(tracer.spans, tracer.counters, {})
    assert values["lattices.discriminant_form.calls"] == 1
    assert values["intmat.smith_normal_form.calls"] == 2
    assert values["lattices.discriminant_form.generators"] == 2
    assert values["lattices.discriminant_form.two_primary_order"] == 4


def test_refuter_candidates_match_a_sweep_of_all_classes():
    for text in ("U+D4", "<-2>+A3(3)+<1>", "U(2)+A2+E6", "D5+<6>(2)"):
        g = realcubic.gram(realcubic.parse_lattice_expr(text)).entries
        n = len(g)
        want = sum(1 for c in itertools.product((0, 1), repeat=n)
                   if sum(c[i] * g[i][j] * c[j] for i in range(n)
                          for j in range(n)) % 4 == 2)
        assert refuter_candidates(realcubic.parse_lattice_expr(text)) == want


def test_an_exception_counts_as_a_failure_but_not_as_wrong():
    log = OpLog()

    def boom():
        raise MemoryError

    log.run("edge", boom, lambda out: None)
    assert (log.failed, log.wrong, len(log.times)) == (1, [], 1)
    assert log.errors == {"edge: MemoryError": 1}


def test_a_corrupted_stdout_counts_as_a_wrong_failure():
    argv = ["surgery", "spiral"]
    expected = {cli_cold.key(argv): {"exit": 0, "sha256": sha256("right\n")}}
    log = OpLog()
    for out in ("right\n", "wrong\n"):
        log.add("spiral", 0.1,
                cli_cold.output_problem(expected, argv, 0, sha256(out)))
    assert log.failed == 1 and len(log.wrong) == 1
    assert cli_cold.output_problem(expected, argv, 1, sha256("right\n"))


def _edge(move, source, target, m_plus0="U+A2", m_minus="U+A2"):
    vid = realcubic.VertexId.parse(target)
    parse = realcubic.parse_lattice_expr
    vertex = realcubic.VertexData(vid, parse(m_plus0), parse(m_minus),
                                  0, 0, False)
    atlas = SimpleNamespace(vertex=lambda _: vertex)
    e = realcubic.Edge(realcubic.VertexId.parse(source), vid, move, "grid")
    return atlas, e


def test_a_wrong_verdict_counts_as_a_failure():
    R, L = realcubic.MoveKind.R, realcubic.MoveKind.L
    A2Certificate = realcubic.walls.A2Certificate
    unknown = realcubic.CuspVerdict("Unknown")
    atlas, e = _edge(R, "C0,0", "C0,1")
    assert atlas_warm.check_verdict(atlas, e, unknown, "Yes")
    # an R-wall into a terminal class must be "No"
    atlas, e = _edge(R, "C10,0", "C10,1")
    assert atlas_warm.check_verdict(atlas, e, unknown, "LatticeError")
    # "Yes" needs an A2 pair that passes the mod-3 condition
    atlas, e = _edge(L, "C0,1", "C1,1", m_plus0="U+A3")
    good = A2Certificate((0, 0, 1, 0, 0), (0, 0, 0, 1, 0), "root summand A3")
    forged = A2Certificate((0, 0, 1, 0, 0), (0, 0, 1, 0, 0), "forged")
    for cert, ok in ((good, True), (forged, False)):
        verdict = realcubic.CuspVerdict("Yes", certificate=cert)
        problem = atlas_warm.check_verdict(atlas, e, verdict, "Yes")
        assert (problem is None) == ok
    # the isolated A2 block: an A2 pair whose difference is a 6-root
    atlas, e = _edge(L, "C0,1", "C1,1", m_plus0="U+A2")
    verdict = realcubic.CuspVerdict("Yes", certificate=A2Certificate(
        (0, 0, 1, 0), (0, 0, 0, 1), "root summand A2"))
    assert "mod-3" in atlas_warm.check_verdict(atlas, e, verdict, "Yes")


def test_lattice_checks_catch_a_wrong_answer():
    q = lq.LatticeQuery((lq.Atom(1, "A", 2, 1), lq.Atom(1, "U", 0, 1)), False)
    out = lq._lattice_op(realcubic, q)
    assert lq.check_lattice(q, out) is None
    assert lq.check_lattice(q, dict(out, sig=(4, 0)))
    assert lq.check_lattice(q, dict(out, det=out["det"] * 2))
    assert lq.check_lattice(q, dict(out, refuted=True))


def test_closed_form_root_counts():
    for text, atoms in (("A3+D4", ((1, "A", 3), (1, "D", 4))),
                        ("2*E6", ((2, "E", 6),))):
        q = lq.LatticeQuery(tuple(lq.Atom(m, k, n, 1) for m, k, n in atoms),
                            True)
        g = realcubic.gram(realcubic.parse_lattice_expr(text))
        assert len(realcubic.enumerate_norm_vectors(g, 2)) == q.roots()


def test_rounds_are_reproducible_from_the_seed():
    assert lq.make_round(random.Random(7)) == lq.make_round(random.Random(7))
    assert lq.make_round(random.Random(7)) != lq.make_round(random.Random(8))


def test_benchmark_json_names_the_metrics_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    log = OpLog()
    log.add("op", 1.0, None)
    e2e = {k: u for k, (_, u, _) in summarize(log, 1.0, 1, 1.0).items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == e2e
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
