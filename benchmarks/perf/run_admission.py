#!/usr/bin/env python
"""Admission-churn benchmark: incremental engine vs full reanalysis.

Writes ``BENCH_PR6.json`` at the repo root. Three workloads are measured:

``churn_60``
    A 60-stream admit/release churn trace on a 12x12 mesh with 15
    priority levels: the trace first fills to 60 admitted streams, then
    alternates random releases and admissions around that occupancy
    (ISSUE 3's acceptance workload). The identical trace is replayed
    through :class:`~repro.service.engine.IncrementalAdmissionEngine` and
    through the from-scratch reference (``tests/reference.py``: fresh
    :class:`~repro.core.feasibility.FeasibilityAnalyzer` s over the whole
    set on every op); every decision and every report must be
    bit-identical between the two before any number is recorded, and the
    recorded ``speedup`` is their wall-time ratio.
``metrics_overhead``
    Microbenchmark of :meth:`~repro.service.metrics.ServiceMetrics.
    record_op` — the per-request metrics cost — with a hard 5 µs/op
    guard on both the count-only (``REPRO_SERVICE_TIMING=0``) and the
    histogram-recording path.
``server_roundtrip``
    End-to-end ops/sec of the asyncio broker over a unix socket
    (``repro serve`` + the churn load client), incremental engine. Two
    legs against fresh servers: a classic closed loop (``pipeline=1``,
    reported as ``serial_ops_per_second``) and a pipelined client that
    keeps ``REPRO_BENCH_PIPELINE`` requests in flight so the server's
    batching worker is never starved (the headline ``ops_per_second``).

Environment knobs:

* ``REPRO_BENCH_ADMIT_OPS``    — churn ops after the fill phase (default 150);
* ``REPRO_BENCH_ADMIT_STREAMS``— target live streams (default 60);
* ``REPRO_PERF_REPEATS``       — timing repeats, best-of (default 1);
* ``REPRO_BENCH_SERVER``       — 0 skips the server round-trip leg;
* ``REPRO_BENCH_PIPELINE``     — in-flight depth of the pipelined leg
  (default 4 — the sweep peak on a single-core host, where client and
  server share the interpreter and deeper pipelines only grow queues);
* ``REPRO_BENCH_MIN_OPS``      — when set, fail unless the headline
  ``server_roundtrip.ops_per_second`` reaches this floor (CI's
  perf-regression guard).

Run:  PYTHONPATH=src python benchmarks/perf/run_admission.py
"""

from __future__ import annotations

import json
import os
import platform
import random
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
for p in (REPO_ROOT / "src", REPO_ROOT):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

from repro.core.streams import MessageStream  # noqa: E402
from repro.io import report_to_spec  # noqa: E402
from repro.service.engine import IncrementalAdmissionEngine  # noqa: E402
from repro.topology.mesh import Mesh2D  # noqa: E402
from repro.topology.route_table import clear_shared_route_tables  # noqa: E402
from repro.topology.routing import XYRouting  # noqa: E402
from tests.reference import ReferenceAdmission  # noqa: E402

CHURN_OPS = int(os.environ.get("REPRO_BENCH_ADMIT_OPS", "150"))
TARGET_LIVE = int(os.environ.get("REPRO_BENCH_ADMIT_STREAMS", "60"))
REPEATS = int(os.environ.get("REPRO_PERF_REPEATS", "1"))
RUN_SERVER = os.environ.get("REPRO_BENCH_SERVER", "1") != "0"
PIPELINE = int(os.environ.get("REPRO_BENCH_PIPELINE", "4"))
MIN_OPS = os.environ.get("REPRO_BENCH_MIN_OPS", "").strip()
OUT_PATH = REPO_ROOT / "BENCH_PR6.json"

MESH_W = MESH_H = 12
LEVELS = 15


def build_trace(seed: int = 0):
    """Build a deterministic admit/release trace (shared by both engines).

    Each element is ``("admit", MessageStream)`` or ``("release", id)``.
    Streams are locality-biased (short routes) so HP closures stay
    realistic for a large network — the regime the broker targets.
    """
    mesh = Mesh2D(MESH_W, MESH_H)
    rng = random.Random(seed)

    def draw(sid: int) -> MessageStream:
        while True:
            sx, sy = rng.randrange(MESH_W), rng.randrange(MESH_H)
            dx = min(MESH_W - 1, max(0, sx + rng.randint(-4, 4)))
            dy = min(MESH_H - 1, max(0, sy + rng.randint(-4, 4)))
            if (sx, sy) != (dx, dy):
                break
        length = rng.randint(1, 10)
        period = rng.randint(80, 400)
        return MessageStream(
            sid, mesh.node_xy(sx, sy), mesh.node_xy(dx, dy),
            priority=rng.randint(1, LEVELS), period=period, length=length,
            deadline=rng.randint(period // 5, period // 2),
        )

    trace = []
    live = []
    next_id = 0
    # Fill to the target occupancy, then churn around it.
    for _ in range(TARGET_LIVE):
        trace.append(("admit", draw(next_id)))
        live.append(next_id)
        next_id += 1
    for _ in range(CHURN_OPS):
        if live and (len(live) >= TARGET_LIVE or rng.random() < 0.5):
            sid = live.pop(rng.randrange(len(live)))
            trace.append(("release", sid))
        else:
            trace.append(("admit", draw(next_id)))
            live.append(next_id)
            next_id += 1
    return trace


def replay(trace, incremental: bool):
    """Run one engine over the trace; return (seconds, outcomes, engine).

    ``incremental=False`` replays the from-scratch reference instead.
    Outcomes capture every decision and every post-op report spec, so the
    two can be compared bit for bit.
    """
    routing = XYRouting(Mesh2D(MESH_W, MESH_H))
    if incremental:
        # Start from a cold shared route table so route_cache_misses
        # measures honest first-lookup work (and its distinct-pairs
        # ceiling holds).
        clear_shared_route_tables()
        engine = IncrementalAdmissionEngine(routing)
    else:
        engine = ReferenceAdmission(routing)
    raw = []
    t0 = time.perf_counter()
    for op, payload in trace:
        if op == "admit":
            decision = engine.try_admit(payload)
            raw.append(("admit", payload.stream_id, decision, None))
        else:
            # The trace releases only streams it admitted; a rejected
            # admit makes the later release a no-op we must skip on both
            # engines identically.
            if payload in engine.admitted:
                engine.release(payload)
                # The report must be captured *here* (later ops change
                # the state), so its construction stays timed — only the
                # spec-ification below is deferred.
                raw.append(("release", payload, None,
                            engine.current_report()))
            else:
                raw.append(("skip", payload, None, None))
    seconds = time.perf_counter() - t0
    # Turning reports into comparable specs is harness bookkeeping, not
    # engine work: it costs the same on both paths and would otherwise
    # dilute the measured ratio.
    outcomes = []
    for kind, key, decision, report in raw:
        if kind == "admit":
            outcomes.append(
                ("admit", key, decision.admitted, decision.violations,
                 report_to_spec(decision.report))
            )
        elif kind == "release":
            outcomes.append(("release", key, report_to_spec(report)))
        else:
            outcomes.append(("skip", key))
    return seconds, outcomes, engine


def bench_churn() -> dict:
    trace = build_trace()
    best_inc = best_full = float("inf")
    outcomes_inc = outcomes_full = None
    stats = None
    for _ in range(max(1, REPEATS)):
        sec, out, engine = replay(trace, incremental=True)
        if sec < best_inc:
            best_inc, outcomes_inc, stats = sec, out, engine.stats
        sec, out, _ = replay(trace, incremental=False)
        if sec < best_full:
            best_full, outcomes_full = sec, out
    if outcomes_inc != outcomes_full:
        raise AssertionError(
            "incremental engine diverged from full reanalysis on the "
            "churn trace — refusing to record timings for a broken engine"
        )
    admits = sum(1 for o in outcomes_inc if o[0] == "admit")
    distinct_pairs = len({
        (payload.src, payload.dst)
        for op, payload in trace if op == "admit"
    })
    st = stats.to_dict()
    if st["route_cache_misses"] > distinct_pairs:
        raise AssertionError(
            f"route table recomputed more routes "
            f"({st['route_cache_misses']}) than distinct (src, dst) pairs "
            f"in the trace ({distinct_pairs}) — memoization is broken"
        )
    return {
        "mesh": f"{MESH_W}x{MESH_H}",
        "priority_levels": LEVELS,
        "target_live_streams": TARGET_LIVE,
        "ops": len(trace),
        "admits": admits,
        "accepted": sum(
            1 for o in outcomes_inc if o[0] == "admit" and o[2]
        ),
        "distinct_route_pairs": distinct_pairs,
        "incremental_seconds": round(best_inc, 4),
        "full_seconds": round(best_full, 4),
        "speedup": round(best_full / best_inc, 3),
        "phase_seconds": {
            k: st[k] for k in (
                "route_seconds", "hp_seconds", "diagram_seconds",
                "verdict_seconds",
            )
        },
        "engine_stats": st,
    }


def bench_metrics_overhead() -> dict:
    """Microbenchmark the per-request metrics cost (``record_op``).

    Guards the PR 4 lazy-timing fix: counting one op without a latency
    sample (the ``REPRO_SERVICE_TIMING=0`` path) must stay well under a
    microsecond, and the full histogram-recording path must stay O(1) in
    the bucket count. The guard threshold is generous (5 µs/op) so slow
    CI machines never flake, but a reintroduced per-sample bound scan or
    eager registry sync would blow straight through it.
    """
    from repro.service.metrics import ServiceMetrics

    n = 200_000
    best = {"count_only": float("inf"), "with_latency": float("inf")}
    for _ in range(max(1, REPEATS) + 1):
        m = ServiceMetrics(timing=False)
        t0 = time.perf_counter()
        for _ in range(n):
            m.record_op("admit")
        best["count_only"] = min(best["count_only"],
                                 time.perf_counter() - t0)

        m = ServiceMetrics(timing=True)
        t0 = time.perf_counter()
        for _ in range(n):
            m.record_op("admit", 0.000123)
        best["with_latency"] = min(best["with_latency"],
                                   time.perf_counter() - t0)
    out = {"samples": n}
    for name, sec in best.items():
        us = sec / n * 1e6
        out[f"{name}_us_per_op"] = round(us, 4)
        if us > 5.0:
            raise AssertionError(
                f"record_op ({name}) costs {us:.2f} us/op — the metrics "
                "hot path regressed past the 5 us guard"
            )
    return out


def _server_leg(pipeline: int) -> dict:
    """One round-trip measurement against a fresh server.

    Every leg gets its own broker (state accumulates over a run, so a
    shared server would hand later legs a slower engine) and its own
    unix socket.
    """
    import asyncio
    import tempfile
    import threading

    from repro.service.loadgen import BrokerClient, run_load
    from repro.service.server import BrokerServer

    with tempfile.TemporaryDirectory() as tmp:
        sock = os.path.join(tmp, "broker.sock")
        result: dict = {}

        async def main() -> None:
            server = BrokerServer(
                {"type": "mesh", "width": MESH_W, "height": MESH_H}
            )
            await server.start_unix(sock)

            def client_side() -> None:
                with BrokerClient.wait_for_unix(sock) as client:
                    summary = run_load(
                        client, ops=max(100, CHURN_OPS), seed=0,
                        target_live=min(40, TARGET_LIVE),
                        pipeline=pipeline,
                    )
                    result.update({
                        "ops": summary.ops,
                        "pipeline": summary.pipeline,
                        "ops_per_second": round(
                            summary.ops_per_second(), 1
                        ),
                        "acceptance_rate": round(
                            summary.admits_accepted
                            / max(1, summary.admits_tried), 3
                        ),
                    })
                    client.check("shutdown")

            thread = threading.Thread(target=client_side)
            thread.start()
            await server.serve_forever()
            thread.join()

        asyncio.run(main())
        return result


def bench_server_roundtrip() -> dict:
    serial = _server_leg(1)
    pipelined = _server_leg(max(1, PIPELINE))
    # Headline = the pipelined leg; the closed loop rides along so the
    # per-request latency story stays visible next to the throughput one.
    out = dict(pipelined)
    out["serial_ops_per_second"] = serial["ops_per_second"]
    out["serial_acceptance_rate"] = serial["acceptance_rate"]
    if MIN_OPS:
        floor = float(MIN_OPS)
        if out["ops_per_second"] < floor:
            raise AssertionError(
                f"server round-trip throughput regressed: "
                f"{out['ops_per_second']} ops/s is below the "
                f"REPRO_BENCH_MIN_OPS floor of {floor}"
            )
    return out


def main() -> None:
    report = {
        "bench": "PR6 admission fast-path harness",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "knobs": {
            "REPRO_BENCH_ADMIT_OPS": CHURN_OPS,
            "REPRO_BENCH_ADMIT_STREAMS": TARGET_LIVE,
            "REPRO_PERF_REPEATS": REPEATS,
            "REPRO_BENCH_PIPELINE": PIPELINE,
            "REPRO_INCREMENTAL_HP": os.environ.get(
                "REPRO_INCREMENTAL_HP", "1"
            ),
        },
        "workloads": {},
    }
    t0 = time.perf_counter()
    print(f"replaying {TARGET_LIVE}-stream churn trace "
          "(incremental vs full)...")
    report["workloads"]["churn_60"] = bench_churn()
    print("microbenchmarking metrics hot path (record_op)...")
    report["workloads"]["metrics_overhead"] = bench_metrics_overhead()
    if RUN_SERVER:
        print("timing broker server round-trips (unix socket)...")
        report["workloads"]["server_roundtrip"] = bench_server_roundtrip()
    report["total_seconds"] = round(time.perf_counter() - t0, 2)

    OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"[saved to {OUT_PATH}]")


if __name__ == "__main__":
    main()
