"""The cli-cold workload: README commands, each in a fresh interpreter.

Every op starts a new Python process that runs the `realcubic` entry
point, so it pays interpreter start-up, import, argument parsing and, for
the atlas commands, a full atlas build -- what a reader of the paper pays
per command. An op passes only when its exit code and the sha256 of its
stdout equal those recorded at the reference commit (expected.json).

A pass runs, in a seed-shuffled order, the six light commands twice each,
atlas verify, one atlas build (k4 as json or k3 as dot), one table
(topology table or report main-theorem) and one cusp check on an R-edge.
Four heavy commands of about 8 s each keep a run near 40 s; across passes
and seeds the alternatives and all 62 R-edges are covered.
"""

from __future__ import annotations

import itertools
import json
import statistics
import subprocess
import sys
import time

from common import HERE, child_env, sha256
from tracing import merge

# what the `realcubic` console script runs
ENTRY = "import sys; from realcubic.cli import main; sys.exit(main())"

CLASSES = {
    "verify": [["atlas", "verify"]],
    "build": [["atlas", "build", "--graph", "k4", "--format", "json"],
              ["atlas", "build", "--graph", "k3", "--format", "dot"]],
    "table": [["topology", "table", "--format", "md"],
              ["report", "main-theorem"]],
    "light_cmd": [["lattice", "info", "U(2)+A2+E8(2)"],
                  ["lattice", "roots", "E8", "--norm", "2"],
                  ["surgery", "h1", "--matrix",
                   "[[1,-1,-1],[-1,3,-1],[-1,-1,5]]"],
                  ["surgery", "spiral"],
                  ["ramified", "euler", "--chiP", "3", "--chiPplus", "2",
                   "--chiL", "1"],
                  ["report", "spiral"]],
}
# each light command runs this often per pass, so that op_p50_s is the
# middle of 12 light commands rather than the largest of 6
LIGHT_REPEATS = 2
# nominal seconds of a pass at the reference commit; a run of S seconds runs
# round(S / PASS_SECONDS) passes
PASS_SECONDS = 38


def cusp_commands(r_edges: list[str]) -> list[list[str]]:
    return [["cusp", "check", "--edge", e] for e in r_edges]


def all_commands(r_edges: list[str]) -> list[list[str]]:
    """Every command the workload can issue."""
    cmds = [argv for group in CLASSES.values() for argv in group]
    return cmds + cusp_commands(r_edges)


def key(argv: list[str]) -> str:
    return " ".join(argv)


def run_command(argv: list[str], traced: bool):
    """Run one command in a fresh interpreter: (seconds, exit code, stdout
    sha256, child report or None)."""
    if traced:
        cmd = [sys.executable, str(HERE / "cli_child.py"), *argv]
    else:
        cmd = [sys.executable, "-c", ENTRY, *argv]
    t0 = time.perf_counter()
    res = subprocess.run(cmd, env=child_env(), capture_output=True)
    dt = time.perf_counter() - t0
    if not traced:
        return dt, res.returncode, sha256(res.stdout), None
    try:
        report = json.loads(res.stdout)
    except ValueError:
        return dt, res.returncode, sha256(res.stdout), None
    return dt, report["exit"], report["sha256"], report


def output_problem(expected: dict, argv, code: int, digest: str):
    want = expected.get(key(argv))
    if want is None:
        return "no recorded output"
    if (code, digest) != (want["exit"], want["sha256"]):
        return (f"exit {code}, stdout {digest[:12]}; recorded exit "
                f"{want['exit']}, stdout {want['sha256'][:12]}")
    return None


def make_passes(rng, r_edges: list[str]):
    """An endless sequence of seed-shuffled passes of (class, argv).

    A pass holds every light command twice, atlas verify, one of the two atlas
    builds, one of the two table commands and one cusp check; the seed walks
    through shuffled cycles of the alternatives and of the 62 R-edges.
    """
    groups = dict(CLASSES, cusp_check=cusp_commands(r_edges))
    light = groups.pop("light_cmd")
    cycles = {}
    for cls, group in groups.items():
        order = list(group)
        rng.shuffle(order)
        cycles[cls] = itertools.cycle(order)
    while True:
        cmds = [("light_cmd", argv) for argv in light * LIGHT_REPEATS]
        cmds += [(cls, next(cycle)) for cls, cycle in cycles.items()]
        rng.shuffle(cmds)
        yield cmds


def run(log, seconds: float, rng, expected: dict, tracer=None):
    """Run round(seconds / PASS_SECONDS) passes (at least one); return
    (passes, {class: [seconds]})."""
    r_edges = [k.split()[-1] for k in expected["cli"] if k.startswith("cusp ")]
    by_class: dict[str, list[float]] = {}
    passes = max(1, round(seconds / PASS_SECONDS))
    gen = make_passes(rng, r_edges)
    for _ in range(passes):
        for cls, argv in next(gen):
            dt, code, digest, report = run_command(argv, tracer is not None)
            op = len(log.times)
            log.add(key(argv), dt,
                    output_problem(expected["cli"], argv, code, digest))
            by_class.setdefault(cls, []).append(dt)
            if report is not None:
                merge(tracer.spans, tracer.counters, report["spans"],
                      report["counters"], op)
    return passes, by_class


def class_medians(by_class: dict[str, list[float]]) -> dict[str, float]:
    return {f"cli.{cls}_s": statistics.median(ts)
            for cls, ts in by_class.items()}
