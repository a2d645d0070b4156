"""One benchmark command for the repository.

    python3 perfbench/run.py --workload dense_churn --seed 1 --seconds 20 \
        --trace 0

Runs one workload (see ``WORKLOADS``) for ``--seconds``, checks every
output against a reference, and prints one JSON object as the last line
of standard output::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` measures the end-to-end metrics against the programs users
run; ``--trace 1`` builds the same deployment in process, wraps each
layer's public calls and reports per-layer metrics instead. Lines before
the last one carry the details: host fingerprint, sample counts, what
the program reported about itself, and the per-layer table.

A failed correctness check prints the reason on standard error and exits
with code 1 without a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent))

from perfbench.common import (  # noqa: E402
    ROOT,
    SRC,
    GateError,
    drop_repro_env,
    emit,
    fingerprint,
)

WORKLOADS = ("dense_churn", "fleet_bursty", "table5_sim")


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    section = bench["per_layer"] if trace else bench["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {SRC}", file=sys.stderr)
        return 2
    # Production defaults for everything measured in this process too.
    for key in set(os.environ) - set(drop_repro_env(dict(os.environ))):
        del os.environ[key]
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))

    from perfbench import dense_churn, fleet_bursty, table5_sim
    from repro.analysis.parallel import shutdown_verdict_pool

    modules = {"dense_churn": dense_churn, "fleet_bursty": fleet_bursty,
               "table5_sim": table5_sim}
    module = modules[args.workload]
    try:
        if args.trace:
            result = module.run_traced(args.seed, args.seconds)
        else:
            result = module.run(args.seed, args.seconds)
    except GateError as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        # The reference replays (and traced in-process servers) start the
        # program's verdict pool in this process.
        shutdown_verdict_pool()
    if result["failed"]:
        print(f"{result['failed']} op(s) failed", file=sys.stderr)
        return 1
    units = declared_units(args.trace)
    if set(result["metrics"]) != set(units):
        raise RuntimeError(
            f"measured {sorted(result['metrics'])}, BENCHMARK.json "
            f"declares {sorted(units)}"
        )
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": fingerprint(),
        "detail": result["detail"],
    }
    if "hello" in result:
        report["served"] = {
            key: result["hello"].get(key)
            for key in ("server", "version", "default_analysis",
                        "incremental", "residency_margin")
        }
    emit(report)
    metrics = {
        name: {"value": value, "unit": units[name]}
        for name, value in result["metrics"].items()
    }
    emit({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
