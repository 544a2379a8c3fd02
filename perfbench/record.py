"""Record the outputs the benchmark checks against (expected.json).

    python3 perfbench/record.py

Run once at the commit whose outputs are the reference, from the root of
the checkout. For cli-cold it stores the exit code and stdout sha256 of
every command the workload can issue, each run in a fresh interpreter as
the benchmark runs it. For atlas-warm it stores every edge's cusp verdict
(or the exception it raised), every vertex's invariants, the validation
report, the propagated
descriptors and the sha256 of both exports.
"""

import json
import os
import sys

from common import EXPECTED, SRC, sha256

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
sys.path.insert(0, str(SRC))

import cli_cold  # noqa: E402
import realcubic  # noqa: E402
from atlas_warm import edge_label  # noqa: E402
from run import limit_memory  # noqa: E402


def record_atlas() -> dict:
    k4, k3 = realcubic.build_atlas("K4"), realcubic.build_atlas("K3")
    verdicts = {}
    for e in k4.edges:
        try:
            v = realcubic.cusp_stratum((k4.vertex(e.source),
                                        k4.vertex(e.target)))
            verdicts[edge_label(e)] = v.kind
        except Exception as exc:  # recorded as the outcome at this commit
            verdicts[edge_label(e)] = type(exc).__name__
    return {
        "verdicts": verdicts,
        "invariants": {str(vid): list(realcubic.vertex_invariants(v))
                       for vid, v in k4.vertices.items()},
        "validate": [c.to_dict() for c in realcubic.validate_atlas(k4)],
        "propagate": {str(v): str(a.descriptor)
                      for v, a in realcubic.propagate(k4).items()},
        "json_k4": sha256(realcubic.atlas_to_json(k4)),
        "dot_k3": sha256(realcubic.atlas_to_dot(k3)),
    }


def record_cli(r_edges: list[str]) -> dict:
    out = {}
    for argv in cli_cold.all_commands(r_edges):
        _, code, digest, _ = cli_cold.run_command(argv, traced=False)
        out[cli_cold.key(argv)] = {"exit": code, "sha256": digest}
        print(f"{code} {digest[:12]} {cli_cold.key(argv)}", flush=True)
    return out


def main() -> None:
    limit_memory()
    k4 = realcubic.build_atlas("K4")
    r_edges = [edge_label(e) for e in k4.edges
               if e.move == realcubic.MoveKind.R]
    data = {"atlas": record_atlas(), "cli": record_cli(r_edges)}
    EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
