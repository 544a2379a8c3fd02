"""Pieces shared by the workloads: the op log, child processes, facts."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# outputs at the reference commit, written by record.py
EXPECTED = HERE / "expected.json"
OUT_DIR = ROOT / ".perfbench"  # span logs and full results, never committed

# fresh interpreters time `import realcubic` this many times for setup_s
IMPORT_SAMPLES = 9


def child_env() -> dict[str, str]:
    """Environment of every child interpreter: one BLAS thread, the source
    tree on the path and no user override of the CLI's output format."""
    env = dict(os.environ)
    env.pop("REALCUBIC_FORMAT", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=str(SRC))
    return env


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


class OpLog:
    """Durations and outcomes of a workload's operations.

    An op fails when the program raises or when a check finds its output
    wrong; only the second kind makes the run incorrect.
    """

    def __init__(self):
        self.times: list[float] = []
        self.failed = 0
        self.wrong: list[str] = []
        self.errors: Counter = Counter()

    def run(self, label: str, op, check) -> None:
        """Time ``op()``; then check its result outside the timed region."""
        t0 = time.perf_counter()
        try:
            out = op()
        except Exception as exc:  # an op's failure is a measured outcome
            self.times.append(time.perf_counter() - t0)
            self.failed += 1
            self.errors[f"{label}: {type(exc).__name__}"] += 1
            return
        self.times.append(time.perf_counter() - t0)
        problem = check(out)
        if problem:
            self.failed += 1
            self.wrong.append(f"{label}: {problem}")

    def add(self, label: str, seconds: float, problem: str | None) -> None:
        """Record an op timed elsewhere, such as a child process."""
        self.times.append(seconds)
        if problem:
            self.failed += 1
            self.wrong.append(f"{label}: {problem}")


def time_imports(samples: int = IMPORT_SAMPLES) -> list[float]:
    """`import realcubic` times in fresh interpreters, after one untimed
    import that leaves the bytecode cache warm."""
    code = ("import time; t = time.perf_counter(); import realcubic; "
            "print(time.perf_counter() - t)")
    out = []
    for i in range(samples + 1):
        res = subprocess.run([sys.executable, "-c", code], env=child_env(),
                             capture_output=True, text=True, check=True)
        if i:
            out.append(float(res.stdout))
    return out


def peak_rss_mib(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def summarize(log: OpLog, setup_s: float, setup_samples: int,
              rss_mib: float) -> dict:
    """The end-to-end metrics of one run: name -> (value, unit, samples)."""
    t = log.times
    n = len(t)
    p90 = (statistics.quantiles(t, n=10, method="inclusive")[8] if n > 1
           else t[0])
    return {
        "setup_s": (setup_s, "s", setup_samples),
        "ops_per_s": (n / sum(t), "1/s", n),
        "op_p50_s": (statistics.median(t), "s", n),
        "op_p90_s": (p90, "s", n),
        "ok_ratio": ((n - log.failed) / n, "ratio", n),
        "peak_rss_mib": (rss_mib, "MiB", 1),
    }


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine(seed: int) -> dict:
    """What a result must be read with: code, interpreter, machine, seed."""
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "mem_total_mib": mem // (1 << 20),
        "seed": seed,
    }
