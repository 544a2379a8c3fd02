"""Run one realcubic command in process under the tracer.

    python3 perfbench/cli_child.py <realcubic arguments...>

Prints one JSON object: the command's exit code, the sha256 of what it
wrote to stdout, the time `import realcubic` took, and its spans and
counters. The traced cli-cold run starts one of these per command.
"""

import contextlib
import io
import json
import sys
import time

t0 = time.perf_counter()
import realcubic  # noqa: E402
import realcubic.cli  # noqa: E402

import_s = time.perf_counter() - t0

from common import sha256  # noqa: E402
from tracing import Tracer  # noqa: E402


def main() -> None:
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = realcubic.cli.main(sys.argv[1:])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the command crashed; report it like python would
            code = 1
    tracer.finish()
    print(json.dumps({"exit": code, "sha256": sha256(buf.getvalue()),
                      "import_s": import_s, "spans": tracer.spans,
                      "counters": tracer.counters}))


if __name__ == "__main__":
    main()
