"""Run one workload of the realcubic benchmark and print its metrics.

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 20

Run from the root of a source checkout. Workloads: cli-cold,
lattice-queries, atlas-warm (see perfbench/README.md). With --trace 0 the
last line of stdout is a JSON object with the end-to-end metrics; with
--trace 1 the workload runs twice on the same inputs, untraced and then
traced, and the metrics are the per-layer ones plus trace.overhead_ratio.
Lines before it give each metric with its unit and sample count, and the
machine the numbers come from. The full result (and, when traced, the
spans) is also written under .perfbench/.

Exit status 0 when the workload ran, 2 when the arguments or the checkout
are unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
from collections import Counter

import cli_cold
from common import (EXPECTED, OUT_DIR, SRC, OpLog, machine, peak_rss_mib,
                    summarize, time_imports)
from tracing import PER_LAYER, Tracer, layer_metrics

WORKLOADS = ("cli-cold", "lattice-queries", "atlas-warm")
# address-space cap of the benchmark and its children: the rank-16 refuter
# asks for an 8 GiB pairing matrix and must fail the same way on any host
MEMORY_LIMIT = 6 << 30


def limit_memory() -> None:
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    soft = MEMORY_LIMIT if hard == resource.RLIM_INFINITY else min(
        MEMORY_LIMIT, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def run_workload(name: str, seconds: float, seed: int, expected: dict,
                 tracer=None):
    """One run: (op log, units run, build seconds, per-class times)."""
    rng = random.Random(seed)
    log = OpLog()
    if name == "cli-cold":
        units, by_class = cli_cold.run(log, seconds, rng, expected, tracer)
        return log, units, 0.0, by_class
    # imported here: main() puts src/ on the path first
    import atlas_warm
    import lattice_queries
    import realcubic

    if tracer is not None:
        tracer.install()
    try:
        if name == "lattice-queries":
            units = lattice_queries.run(realcubic, log, seconds, rng, tracer)
            return log, units, 0.0, {}
        build_s, units = atlas_warm.run(realcubic, log, seconds, rng,
                                        expected, tracer)
        return log, units, build_s, {}
    finally:
        if tracer is not None:
            tracer.finish()


def measure(name: str, seconds: float, seed: int, trace: bool) -> dict:
    expected = json.loads(EXPECTED.read_text())
    imports = time_imports()
    import_s = statistics.median(imports)
    log, units, build_s, by_class = run_workload(name, seconds, seed,
                                                 expected)
    out = {"units": units, "logs": [log], "spans": None}
    if not trace:
        rss = peak_rss_mib(children=name == "cli-cold")
        out["metrics"] = summarize(log, import_s + build_s, len(imports), rss)
        return out

    tracer = Tracer()
    log1, _, build1_s, _ = run_workload(name, seconds, seed, expected,
                                        tracer)
    extra = {f"cli.{cls}_s": 0.0 for cls in (*cli_cold.CLASSES, "cusp_check")}
    extra.update(cli_cold.class_medians(by_class))
    extra["cli.import_s"] = import_s
    extra["trace.overhead_ratio"] = ((sum(log1.times) + build1_s)
                                     / (sum(log.times) + build_s))
    values = layer_metrics(tracer.spans, tracer.counters, extra)
    out["metrics"] = {m: (values[m], unit, 1) for m, unit in PER_LAYER}
    out["logs"].append(log1)
    out["spans"] = tracer.spans
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (SRC / "realcubic" / "__init__.py").is_file():
        print(f"perfbench: no realcubic sources under {SRC}", file=sys.stderr)
        return 2
    # set before numpy loads, in this process and (through child_env) in
    # every child
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    sys.path.insert(0, str(SRC))
    limit_memory()

    res = measure(args.workload, args.seconds, args.seed, bool(args.trace))
    logs = res["logs"]
    attempted = sum(len(lg.times) for lg in logs)
    failed = sum(lg.failed for lg in logs)
    wrong = [w for lg in logs for w in lg.wrong]
    errors = Counter()
    for lg in logs:
        errors.update(lg.errors)
    env = machine(args.seed)

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} units={res['units']}")
    print("env " + json.dumps(env))
    for name, (value, unit, n) in res["metrics"].items():
        print(f"  {name:44s} {value:14.6g} {unit:6s} n={n}")
    for label, count in sorted(errors.items()):
        print(f"  failed: {label} x{count}")
    for w in wrong[:20]:
        print(f"  WRONG: {w}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({
        "env": env, "workload": args.workload, "seconds": args.seconds,
        "units": res["units"], "attempted": attempted, "failed": failed,
        "errors": errors, "wrong": wrong,
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in res["metrics"].items()},
        "spans": res["spans"],
    }))
    print(json.dumps({
        "correct": not wrong, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
