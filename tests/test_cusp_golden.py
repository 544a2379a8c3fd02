"""The cusp verdict of every one of the 117 walls, pinned byte for byte.

``golden/cusp_verdicts.json`` holds ``cusp_stratum(ends).to_dict()`` of
each edge of the K4 atlas, keyed "source:target" (as "C5,3:C5,4"). The
recorded CLI outputs pin the R-edge certificates; this file pins the
L-edge ones too. Re-record it, after a change that is meant to alter a
verdict, with

    PYTHONPATH=src python tests/test_cusp_golden.py
"""

import difflib
import json
from pathlib import Path

from realcubic.atlas import build_atlas
from realcubic.walls import cusp_stratum

GOLDEN = Path(__file__).resolve().parent / "golden" / "cusp_verdicts.json"


def render(verdicts: dict) -> str:
    """Sorted JSON, one edge a line, so that a diff names the edge."""
    return "{\n" + ",\n".join(
        f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
        for k, v in sorted(verdicts.items())) + "\n}\n"


def current(atlas) -> str:
    return render({f"{e.source}:{e.target}": cusp_stratum(
        (atlas.vertex(e.source), atlas.vertex(e.target))).to_dict()
        for e in atlas.edges})


def test_every_cusp_verdict_matches_the_recorded_file(k4):
    got, want = current(k4), GOLDEN.read_text()
    assert len(json.loads(want)) == len(k4.edges) == 117
    diff = "".join(difflib.unified_diff(
        want.splitlines(keepends=True), got.splitlines(keepends=True),
        "recorded", "current"))
    assert got == want, "cusp verdicts changed:\n" + diff


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(current(build_atlas("K4")))
