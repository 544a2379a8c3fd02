"""Every command recorded in perfbench/expected.json, replayed in process.

That file holds the exit code and the sha256 of stdout of each README
command and of `cusp check` on every R-edge, as recorded by
perfbench/record.py. Replaying them through ``cli.main`` checks that the
fixed CLI commands still print byte-identical output. The file is only read.
"""

import hashlib
import json
from pathlib import Path

import pytest

from realcubic.cli import main

EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"
RECORDED = json.loads(EXPECTED.read_text())["cli"]


@pytest.mark.parametrize("command", sorted(RECORDED))
def test_recorded_output(capsys, command):
    code = main(command.split())
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    want = RECORDED[command]
    assert (code, digest) == (want["exit"], want["sha256"])
