"""Spans around the public functions of each realcubic module.

The benchmark's traced run wraps the functions listed in ``TARGETS`` in
every ``realcubic`` module namespace that binds them (``cli`` and ``atlas``
import ``discriminant_form`` by name, so patching ``lattices`` alone would
miss their calls). The modules themselves stay unchanged. Spans are kept in
memory as ``[name, start, end, parent, op]`` lists and written out when the
run ends; per-layer metrics are computed from them afterwards.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# layer -> public functions whose calls become spans
TARGETS = {
    "intmat": ("smith_normal_form", "det"),
    "lattices": ("parse_lattice_expr", "gram", "signature",
                 "discriminant_group", "discriminant_form",
                 "enumerate_norm_vectors"),
    "atlas": ("build_atlas", "classify_type", "validate_atlas",
              "vertex_invariants", "atlas_to_json", "atlas_to_dot"),
    "walls": ("cusp_stratum", "find_a2_pair", "refute_a2_mod2",
              "mod3_condition"),
    "topology": ("propagate", "apply_morse"),
    "surgery": ("h1_from_linking", "spiral_scenario"),
    "ramified": ("euler_perturbation",),
    "cli": ("main",),
}

# the per-layer metrics of a traced run, in report order, with their units
PER_LAYER = [
    ("intmat.smith_normal_form.calls", "count"),
    ("intmat.smith_normal_form.busy_s", "s"),
    ("intmat.smith_normal_form.self_s", "s"),
    ("intmat.det.calls", "count"),
    ("intmat.det.busy_s", "s"),
    ("lattices.discriminant_form.calls", "count"),
    ("lattices.discriminant_form.busy_s", "s"),
    ("lattices.discriminant_form.self_s", "s"),
    ("lattices.discriminant_form.generators", "count"),
    ("lattices.discriminant_form.two_primary_order", "count"),
    ("lattices.signature.calls", "count"),
    ("lattices.signature.busy_s", "s"),
    ("lattices.signature.self_s", "s"),
    ("lattices.discriminant_group.calls", "count"),
    ("lattices.discriminant_group.busy_s", "s"),
    ("lattices.discriminant_group.self_s", "s"),
    ("lattices.gram.calls", "count"),
    ("lattices.gram.busy_s", "s"),
    ("lattices.gram.self_s", "s"),
    ("lattices.parse_lattice_expr.calls", "count"),
    ("lattices.parse_lattice_expr.busy_s", "s"),
    ("lattices.parse_lattice_expr.self_s", "s"),
    ("lattices.enumerate_norm_vectors.calls", "count"),
    ("lattices.enumerate_norm_vectors.busy_s", "s"),
    ("lattices.enumerate_norm_vectors.vectors", "count"),
    ("atlas.build_atlas.calls", "count"),
    ("atlas.build_atlas.busy_s", "s"),
    ("atlas.build_atlas.self_s", "s"),
    ("atlas.classify_type.calls", "count"),
    ("atlas.validate_atlas.calls", "count"),
    ("atlas.validate_atlas.busy_s", "s"),
    ("atlas.validate_atlas.self_s", "s"),
    ("atlas.vertex_invariants.calls", "count"),
    ("atlas.vertex_invariants.busy_s", "s"),
    ("atlas.vertex_invariants.self_s", "s"),
    ("atlas.export.busy_s", "s"),
    ("walls.cusp_stratum.calls", "count"),
    ("walls.cusp_stratum.busy_s", "s"),
    ("walls.cusp_stratum.self_s", "s"),
    ("walls.cusp_stratum.failed", "count"),
    ("walls.cusp_stratum.decided_ratio", "ratio"),
    ("walls.find_a2_pair.calls", "count"),
    ("walls.find_a2_pair.busy_s", "s"),
    ("walls.find_a2_pair.constructive_ratio", "ratio"),
    ("walls.refute_a2_mod2.calls", "count"),
    ("walls.refute_a2_mod2.busy_s", "s"),
    ("walls.refute_a2_mod2.candidates", "count"),
    ("walls.refute_a2_mod2.refuted_ratio", "ratio"),
    ("walls.mod3_condition.calls", "count"),
    ("topology.propagate.calls", "count"),
    ("topology.propagate.busy_s", "s"),
    ("topology.propagate.self_s", "s"),
    ("topology.apply_morse.calls", "count"),
    ("surgery.h1_from_linking.calls", "count"),
    ("surgery.h1_from_linking.busy_s", "s"),
    ("surgery.spiral_scenario.calls", "count"),
    ("surgery.spiral_scenario.busy_s", "s"),
    ("ramified.euler_perturbation.calls", "count"),
    ("cli.import_s", "s"),
    ("cli.main.busy_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.verify_s", "s"),
    ("cli.build_s", "s"),
    ("cli.table_s", "s"),
    ("cli.cusp_check_s", "s"),
    ("cli.light_cmd_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]

# counters that are ratios of one counter to a function's call count
_RATIOS = {
    "walls.cusp_stratum.decided_ratio": "walls.cusp_stratum.decided",
    "walls.find_a2_pair.constructive_ratio": "walls.find_a2_pair.constructive",
    "walls.refute_a2_mod2.refuted_ratio": "walls.refute_a2_mod2.refuted",
}


def _two_part(n: int) -> int:
    t = 1
    while n % 2 == 0:
        n //= 2
        t *= 2
    return t


def _count_discriminant_form(tracer, out, args):
    tracer.counters["lattices.discriminant_form.generators"] += len(
        out.generators)
    order = 1
    for f in out.group.invariant_factors:
        order *= _two_part(f)
    tracer.counters["lattices.discriminant_form.two_primary_order"] += order


def _count_vectors(tracer, out, args):
    tracer.counters["lattices.enumerate_norm_vectors.vectors"] += len(out)


def _count_verdict(tracer, out, args):
    if out.kind in ("Yes", "No"):
        tracer.counters["walls.cusp_stratum.decided"] += 1


def _count_certificate(tracer, out, args):
    if out is not None and not out.host.startswith("height-"):
        tracer.counters["walls.find_a2_pair.constructive"] += 1


def _count_refutation(tracer, out, args):
    # candidates are counted in finish(), outside every span
    tracer.refuter_inputs.append(args[0])
    if out is not None:
        tracer.counters["walls.refute_a2_mod2.refuted"] += 1


# per-call counters read off a successful call's arguments and result
_POST = {
    "discriminant_form": _count_discriminant_form,
    "enumerate_norm_vectors": _count_vectors,
    "cusp_stratum": _count_verdict,
    "find_a2_pair": _count_certificate,
    "refute_a2_mod2": _count_refutation,
}


def refuter_candidates(expr) -> int:
    """Classes of L/2L with norm 2 mod 4: the rows the mod-2 refuter pairs.

    The Gram matrix is block diagonal, so a class norm mod 4 is the sum of
    its block norms: per-atom counts are convolved instead of sweeping all
    2^rank classes.
    """
    import dataclasses

    import numpy as np
    from realcubic.lattices import LatticeExpr, gram

    dist = [1, 0, 0, 0]  # classes by norm mod 4
    for term in expr.terms:
        atom = LatticeExpr((dataclasses.replace(term, mult=1),))
        g = np.array(gram(atom).rows(), dtype=np.int64)
        k = len(g)
        classes = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
        norms = np.einsum("ij,jk,ik->i", classes, g, classes) % 4
        block = [int(c) for c in np.bincount(norms, minlength=4)]
        for _ in range(term.mult):
            dist = [sum(dist[a] * block[(r - a) % 4] for a in range(4))
                    for r in range(4)]
    return dist[2]


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.op = -1
        self.refuter_inputs: list = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        post = _POST.get(name.rsplit(".", 1)[1])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else -1, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.counters[name + ".failed"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if post is not None:
                post(self, out, args)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded realcubic module namespace."""
        # the package does not import cli itself
        import realcubic.cli  # noqa: F401

        modules = [m for n, m in list(sys.modules.items())
                   if n == "realcubic" or n.startswith("realcubic.")]
        for layer, names in TARGETS.items():
            home = sys.modules[f"realcubic.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapped = self.wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._patched.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def finish(self) -> None:
        """Restore the modules and count what was deferred out of the spans."""
        self.uninstall()
        for expr in self.refuter_inputs:
            self.counters["walls.refute_a2_mod2.candidates"] += \
                refuter_candidates(expr)
        self.refuter_inputs.clear()


def merge(spans: list[list], counters: Counter, part_spans, part_counters,
          op: int) -> None:
    """Append the spans of another tracer (a child process's) under op."""
    base = len(spans)
    for name, start, end, parent, _ in part_spans:
        spans.append([name, start, end, parent + base if parent >= 0 else -1,
                      op])
    counters.update(part_counters)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children.setdefault(s[3], []).append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def busy_and_self(spans: list[list]) -> dict[str, list[float]]:
    """name -> [calls, inclusive time, self time].

    Inclusive time counts only the outermost span of a name, so a function
    that reaches itself through another traced function is not counted
    twice.
    """
    selfs = self_times(spans)
    out: dict[str, list[float]] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[2] += selfs[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            row[1] += end - start
    return out


def layer_metrics(spans: list[list], counters: Counter,
                  extra: dict[str, float]) -> dict[str, float]:
    """Every PER_LAYER metric; ``extra`` supplies those not read off spans."""
    table = busy_and_self(spans)
    values: dict[str, float] = {}
    for metric, _ in PER_LAYER:
        if metric in extra:
            values[metric] = extra[metric]
            continue
        func, kind = metric.rsplit(".", 1)
        if metric == "atlas.export.busy_s":
            values[metric] = sum(table.get(f"atlas.{f}", [0, 0.0, 0.0])[1]
                                 for f in ("atlas_to_json", "atlas_to_dot"))
        elif metric in _RATIOS:
            calls = table.get(func, [0])[0]
            values[metric] = (counters[_RATIOS[metric]] / calls if calls
                              else 0.0)
        elif kind in ("calls", "busy_s", "self_s"):
            row = table.get(func, [0, 0.0, 0.0])
            values[metric] = row[("calls", "busy_s", "self_s").index(kind)]
        else:
            values[metric] = counters[metric]
    return values
