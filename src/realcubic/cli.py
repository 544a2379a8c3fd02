"""Command-line front door.

Exit codes: 0 success, 1 verification/computation failure or a stdout
closed early, 2 usage error, 3 unsupported request. Runs are
bit-reproducible. Each subcommand's parser names its handler (``run``); a
handler fails by raising ``_Failure``, whose one line ``main`` prints to
stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import (atlas as atlas_mod, lattices, ramified, surgery as surgery_mod,
               topology, walls)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3

# largest rank the lattice commands accept, checked before the rank^2 Gram
# matrix is built. Signature and det come from the atom catalogue: as fresh
# processes `lattice info A256` takes about 0.11 s and `lattice roots A256
# --norm 1` 0.08 s; the slowest is `info`'s Smith form with 256 generators:
# "256*<3>", "128*U(2)" and "A255(3)" take about 0.5 s and "32*E8(2)" about
# 0.55 s (medians of 7 runs, 2 vCPU, Python 3.11)
MAX_RANK = 256

# largest determinant the lattice commands accept, as a bound on its bit
# length summed over the atoms (from the atom catalogue), checked before
# the Gram matrix is built: past about 14 000 bits the determinant has too
# many digits to print, and the Smith form slows with the size of the
# entries. At the cap "A120(131071)" (2047 bits) takes about 0.13 s as a
# fresh process, "A204(1023)" (2048 bits) 0.31-0.37 s (medians of 7 runs,
# 2 vCPU, Python 3.11)
MAX_DET_BITS = 2048

# most coordinates `lattice roots` may reach, counted before the search as
# rank times the vectors of norm 1 to --norm (the search reaches all of
# them); "32*E8" --norm 2 has 7680 * 256 = 1966080 and takes 1.8-2.5 s as
# a fresh process (2 vCPU, Python 3.11)
MAX_ROOT_COORDS = 2_000_000

# largest linking matrix `surgery h1 --matrix` accepts, checked before the
# Smith normal form runs: as a fresh process, dense random symmetric input
# with entries up to 10^6 takes 0.16-0.19 s at 32x32, 0.28-0.39 s at 40x40,
# up to 0.52 s at 44x44 and up to 0.75 s at 48x48 (2 vCPU, Python 3.11), so
# 40x40 is the largest size that stays within 0.5 s
MAX_LINK_SIZE = 40
MAX_LINK_ENTRY = 10 ** 6


class _Failure(Exception):
    """A failed command: ``main`` prints the message as the one stderr line
    and returns ``code``."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _atlas_build(args) -> int:
    a = atlas_mod.build_atlas(args.graph.upper())
    if args.format == "json":
        print(atlas_mod.atlas_to_json(a))
    else:
        print(atlas_mod.atlas_to_dot(a), end="")
    return EXIT_OK


def _atlas_verify(args) -> int:
    checks = topology.verify(atlas_mod.build_atlas("K4"))
    report = [c.to_dict() for c in checks]
    failures = [c for c in report if c["status"] == "fail"]
    print(json.dumps({"checks": report, "failures": failures}, indent=2))
    return EXIT_OK if not failures else EXIT_FAIL


def _lattice_expr(text: str) -> lattices.LatticeExpr:
    """``text`` parsed, within the rank and determinant caps."""
    try:
        expr = lattices.parse_lattice_expr(text)
    except lattices.ParseError as exc:
        raise _Failure(EXIT_USAGE, f"parse error: {exc}")
    if expr.rank > MAX_RANK:
        raise _Failure(EXIT_UNSUPPORTED,
                       f"unsupported: rank {expr.rank} exceeds {MAX_RANK}")
    # |det| of an atom scaled by s is s^rank times its unscaled |det|
    det_bits = sum(t.mult * (t.atom_rank * t.scale.bit_length()
                             + t.facts.det.bit_length())
                   for t in expr.terms)
    if det_bits > MAX_DET_BITS:
        raise _Failure(EXIT_UNSUPPORTED, f"unsupported: determinant of up to "
                       f"{det_bits} bits exceeds {MAX_DET_BITS} bits")
    return expr


def _lattice_info(args) -> int:
    expr = _lattice_expr(args.expr)
    g = lattices.gram(expr)
    df = lattices.discriminant_form(g)
    print(f"expression: {expr}")
    print(f"rank: {g.rank}")
    print(f"signature: {lattices.signature(g)}")
    print(f"determinant: {g.det()}")
    print(f"discriminant group: {df.group}")
    print(f"two-rank: {df.group.two_rank}")
    qs = ", ".join(f"{n}/{d}" if d != 1 else str(n)
                   for n, d in df.q_values)
    print(f"q on generators (mod 2): [{qs}]")
    print(f"two-part integer: {'yes' if df.two_part_integer else 'no'}")
    return EXIT_OK


def _lattice_roots(args) -> int:
    expr = _lattice_expr(args.expr)
    g = lattices.gram(expr)
    limit = MAX_ROOT_COORDS // expr.rank
    try:
        count = lattices.count_short_vectors(expr, args.norm, limit)
        # no vector of square 1 to --norm: the search would find none
        roots = lattices.enumerate_norm_vectors(g, args.norm) if count else []
    except lattices.IndefiniteLatticeError as exc:
        raise _Failure(EXIT_UNSUPPORTED, f"unsupported: {exc}")
    except lattices.LatticeError as exc:
        raise _Failure(EXIT_USAGE, f"lattice error: {exc}")
    if count is None:
        raise _Failure(EXIT_UNSUPPORTED, f"unsupported: more than {limit} "
                       f"vectors of norm 1 to {args.norm} in rank {expr.rank} "
                       f"(at most {MAX_ROOT_COORDS} coordinates)")
    print(json.dumps({"expression": str(expr), "norm": args.norm,
                      "count": len(roots),
                      "vectors": [list(v) for v in roots]}))
    return EXIT_OK


def _cusp_check(args) -> int:
    try:
        s_txt, t_txt = args.edge.split(":")
        sid = atlas_mod.VertexId.parse(s_txt)
        tid = atlas_mod.VertexId.parse(t_txt)
    except ValueError as exc:
        raise _Failure(EXIT_USAGE, f"bad --edge: {exc}")
    try:
        ends = {vid: atlas_mod.table_vertex(vid) for vid in (sid, tid)}
    except KeyError:
        raise _Failure(EXIT_USAGE, "edge endpoints must be atlas vertices")
    # the table edge, in either order, gives the orientation
    edge = next((e for e in atlas_mod.table_edges()
                 if {e.source, e.target} == {sid, tid}), None)
    if edge is None:
        raise _Failure(EXIT_USAGE, f"{sid}:{tid} is not an atlas edge")
    verdict = walls.cusp_stratum((ends[edge.source], ends[edge.target]))
    out = verdict.to_dict()
    out["edge"] = f"{edge.source}:{edge.target}"
    print(json.dumps(out, indent=2))
    return EXIT_OK


def _topology_table(args) -> int:
    try:
        a = atlas_mod.build_atlas("K4")
        res = topology.propagate(a)
    except ValueError as exc:
        raise _Failure(EXIT_FAIL, f"propagation failed: {exc}")
    rows = []
    for vid in sorted(a.vertices):
        v = a.vertex(vid)
        asg = res[vid]
        rows.append({
            "vertex": str(vid), "r": v.r, "d": v.d,
            "type": "I" if v.type_one else "II",
            "descriptor": str(asg.descriptor),
            "b_star": asg.descriptor.b_star, "chi": asg.descriptor.chi,
            "justification": list(asg.justification),
        })
    if args.format == "json":
        print(json.dumps(rows, indent=2))
        return EXIT_OK
    print("| vertex | (r,d) | type | real locus | b* | chi | justification |")
    print("|---|---|---|---|---|---|---|")
    for r in rows:
        just = r["justification"][-1]
        print(f"| {r['vertex']} | ({r['r']},{r['d']}) | {r['type']} "
              f"| {r['descriptor']} | {r['b_star']} | {r['chi']} | {just} |")
    return EXIT_OK


def _ramified_euler(args) -> int:
    chi = ramified.euler_perturbation(
        ramified.PerturbationData(args.chiP, args.chiPplus, args.chiL))
    out = {"chi": chi}
    if (1 - chi) % 2 == 0:
        out["r"] = 11 + (1 - chi) // 2
    try:
        print(json.dumps(out))
    except ValueError as exc:  # past the interpreter's int-to-str limit
        raise _Failure(EXIT_UNSUPPORTED, f"unsupported: {exc}")
    return EXIT_OK


def _check_int_matrix(m) -> None:
    """A nonempty square list of lists of JSON integers (bools excluded)."""
    if not isinstance(m, list) or not m or \
            not all(isinstance(row, list) for row in m):
        raise ValueError("matrix must be a nonempty list of rows")
    if any(len(row) != len(m) for row in m):
        raise ValueError("matrix must be square")
    if any(type(x) is not int for row in m for x in row):
        raise ValueError("matrix entries must be integers")


def _surgery_h1(args) -> int:
    try:
        m = json.loads(args.matrix)
        _check_int_matrix(m)
        if len(m) > MAX_LINK_SIZE:
            raise _Failure(EXIT_UNSUPPORTED, f"unsupported: {len(m)}x{len(m)} "
                           f"matrix exceeds {MAX_LINK_SIZE}x{MAX_LINK_SIZE}")
        top = max(abs(x) for row in m for x in row)
        if top > MAX_LINK_ENTRY:
            raise _Failure(EXIT_UNSUPPORTED, f"unsupported: entry of absolute "
                           f"value {top} exceeds {MAX_LINK_ENTRY}")
        group = surgery_mod.h1_from_linking(m)
    except (ValueError, TypeError, RecursionError) as exc:
        raise _Failure(EXIT_USAGE, f"bad --matrix: {exc}")
    print(f"H1 = {group}")
    return EXIT_OK


def _spiral(args) -> int:
    try:
        rep = surgery_mod.spiral_scenario()
    except AssertionError as exc:
        raise _Failure(EXIT_FAIL, f"scenario check failed: {exc}")
    print("\n".join(rep.lines()))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="realcubic",
        description="Lattice, atlas, and surgery computations for the "
                    "topological classification of real cubic fourfolds.")
    sub = p.add_subparsers(dest="cmd", required=True)

    pa = sub.add_parser("atlas", help="build or verify the deformation atlas")
    suba = pa.add_subparsers(dest="atlas_cmd", required=True)
    pb = suba.add_parser("build")
    pb.add_argument("--graph", choices=["k4", "k3"], default="k4")
    pb.add_argument("--format", choices=["json", "dot"], default="json")
    pb.set_defaults(run=_atlas_build)
    suba.add_parser("verify").set_defaults(run=_atlas_verify)

    pl = sub.add_parser("lattice", help="lattice queries")
    subl = pl.add_subparsers(dest="lattice_cmd", required=True)
    pi = subl.add_parser("info")
    pi.add_argument("expr")
    pi.set_defaults(run=_lattice_info)
    pr = subl.add_parser("roots")
    pr.add_argument("expr")
    pr.add_argument("--norm", type=int, default=2)
    pr.set_defaults(run=_lattice_roots)

    pc = sub.add_parser("cusp", help="cuspidal stratum checks")
    subc = pc.add_subparsers(dest="cusp_cmd", required=True)
    pck = subc.add_parser("check")
    pck.add_argument("--edge", required=True,
                     help="edge as C{i},{j}[_I]:C{i'},{j'}[_I]")
    pck.set_defaults(run=_cusp_check)

    pt = sub.add_parser("topology", help="real-locus table")
    subt = pt.add_subparsers(dest="topology_cmd", required=True)
    ptt = subt.add_parser("table")
    ptt.add_argument("--format", choices=["md", "json"], default="md")
    ptt.set_defaults(run=_topology_table)

    pm = sub.add_parser("ramified", help="perturbation arithmetic")
    subm = pm.add_subparsers(dest="ramified_cmd", required=True)
    pme = subm.add_parser("euler")
    pme.add_argument("--chiP", type=int, required=True)
    pme.add_argument("--chiPplus", type=int, required=True)
    pme.add_argument("--chiL", type=int, required=True)
    pme.set_defaults(run=_ramified_euler)

    ps = sub.add_parser("surgery", help="framed-link homology")
    subs = ps.add_subparsers(dest="surgery_cmd", required=True)
    ph = subs.add_parser("h1")
    ph.add_argument("--matrix", required=True, help="JSON integer matrix")
    ph.set_defaults(run=_surgery_h1)
    subs.add_parser("spiral").set_defaults(run=_spiral)

    pp = sub.add_parser("report", help="full derivation reports")
    subp = pp.add_subparsers(dest="report_cmd", required=True)
    # `topology table --format md`
    subp.add_parser("main-theorem").set_defaults(run=_topology_table,
                                                 format="md")
    subp.add_parser("spiral").set_defaults(run=_spiral)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()
    except _Failure as exc:
        print(exc, file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        # the reader closed stdout early: point it at devnull so the flush
        # at exit cannot fail again, and exit 1 without a traceback (see
        # "Note on SIGPIPE" in the Python signal module docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_FAIL
    return code


if __name__ == "__main__":
    sys.exit(main())
