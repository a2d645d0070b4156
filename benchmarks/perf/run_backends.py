#!/usr/bin/env python
"""Cross-backend admission-rate benchmark on the churn workload.

Writes ``BENCH_PR7.json`` at the repo root. One workload, every
registered bound backend:

``backend_churn``
    A deterministic admit/release churn trace on a 12x12 mesh is replayed
    once per registered analysis backend (``kim98``, ``tighter``,
    ``buffered``, ...) through
    :class:`~repro.service.engine.IncrementalAdmissionEngine` with that
    backend as the engine default. The workload pairs each *bulk*
    transfer (long period, tight-ish deadline) with a same-priority
    *monitor* heartbeat that crosses the bulk's final channel — the
    regime where Kim98's one-instance-per-equal-priority-member charge is
    pessimistic: the heartbeat has many period windows inside the bulk's
    horizon, and the FCFS equal-priority cap (the ``tighter`` backend)
    discharges all but the ones that can actually interfere. Recorded per
    backend: accepted/rejected admit trials, admission rate, and
    replay wall time.

The run *asserts* the expected dominance ordering on the trace's
per-decision outcomes (same trial set per decision is not guaranteed
along a churn trace, so the ordering is asserted on aggregate counts for
the pinned seed):

* ``tighter`` accepts strictly more admits than ``kim98`` (the refinement
  must buy real admission capacity on this workload), and
* ``buffered`` accepts no more than ``kim98`` (an interference margin can
  only shrink the schedulable region).

Environment knobs:

* ``REPRO_BENCH_ADMIT_OPS``     — churn ops after the fill phase (default 150);
* ``REPRO_BENCH_ADMIT_STREAMS`` — target live streams (default 60);
* ``REPRO_BENCH_SEED``          — trace seed (default 0; the dominance
  assertion is only enforced for the default seed/ops/target, where the
  separation has been verified);
* ``REPRO_PERF_REPEATS``        — timing repeats, best-of (default 1).

Run:  PYTHONPATH=src python benchmarks/perf/run_backends.py
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

from repro.core import backends as bound_backends  # noqa: E402
from repro.core.streams import MessageStream  # noqa: E402
from repro.service.engine import IncrementalAdmissionEngine  # noqa: E402
from repro.topology.mesh import Mesh2D  # noqa: E402
from repro.topology.route_table import clear_shared_route_tables  # noqa: E402
from repro.topology.routing import XYRouting  # noqa: E402

CHURN_OPS = int(os.environ.get("REPRO_BENCH_ADMIT_OPS", "150"))
TARGET_LIVE = int(os.environ.get("REPRO_BENCH_ADMIT_STREAMS", "60"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))
REPEATS = int(os.environ.get("REPRO_PERF_REPEATS", "1"))
OUT_PATH = REPO_ROOT / "BENCH_PR7.json"

MESH_W = MESH_H = 12
LEVELS = 12

#: The dominance assertion is pinned to the verified default workload.
DEFAULT_WORKLOAD = (SEED == 0 and CHURN_OPS == 150 and TARGET_LIVE == 60)


def build_trace(seed: int):
    """Deterministic paired bulk+monitor admit/release churn trace.

    Each admitted *pair* is a bulk transfer plus a same-priority monitor
    heartbeat crossing the bulk's last XY-routing channel (monitors
    source at the penultimate node of the bulk's path). The monitor's
    short period puts many of its instances inside the bulk's deadline
    horizon — exactly the shape where the FCFS equal-priority instance
    cap separates ``tighter`` from ``kim98``.
    """
    mesh = Mesh2D(MESH_W, MESH_H)
    rng = random.Random(seed)

    def draw_pair(nid):
        while True:
            sx, sy = rng.randrange(MESH_W), rng.randrange(MESH_H)
            if rng.random() < 0.5:
                # Half the bulks aim at the mesh centre: a mild hotspot
                # keeps channel sharing (and hence HP sets) non-trivial.
                dx, dy = rng.randint(4, 7), rng.randint(4, 7)
            else:
                dx = min(MESH_W - 1, max(0, sx + rng.randint(-5, 5)))
                dy = min(MESH_H - 1, max(0, sy + rng.randint(-5, 5)))
            if (sx, sy) != (dx, dy):
                break
        pr = rng.randint(1, LEVELS)
        length = rng.randint(4, 10)
        period = rng.randint(240, 600)
        hops = abs(dx - sx) + abs(dy - sy)
        latency = hops + length - 1
        bulk = MessageStream(
            nid + 1, mesh.node_xy(sx, sy), mesh.node_xy(dx, dy),
            priority=pr, period=period, length=length,
            deadline=min(latency + rng.randint(20, 100), period),
        )
        # Penultimate node of the bulk's XY route (y-leg last unless the
        # route is x-only): the monitor crosses only the final channel.
        if dy != sy:
            px, py = dx, dy - (1 if dy > sy else -1)
        else:
            px, py = dx - (1 if dx > sx else -1), dy
        mperiod = rng.randint(24, 40)
        mon = MessageStream(
            nid, mesh.node_xy(px, py), mesh.node_xy(dx, dy),
            priority=pr, period=mperiod, length=rng.randint(2, 4),
            deadline=mperiod,
        )
        return [mon, bulk]

    trace, live, nid = [], [], 0

    def admit_pair():
        nonlocal nid
        for s in draw_pair(nid):
            trace.append(("admit", s))
            live.append(s.stream_id)
        nid += 2

    while len(live) < TARGET_LIVE:
        admit_pair()
    for _ in range(CHURN_OPS):
        if live and (len(live) >= TARGET_LIVE or rng.random() < 0.5):
            trace.append(("release", live.pop(rng.randrange(len(live)))))
        else:
            admit_pair()
    return trace


def replay(trace, backend: str):
    """Replay the trace with ``backend`` as the engine default.

    Returns ``(seconds, accepted, rejected, decisions)`` where decisions
    is the per-admit accept/reject bit-vector (for cross-backend
    comparison in the report).
    """
    mesh = Mesh2D(MESH_W, MESH_H)
    clear_shared_route_tables()
    engine = IncrementalAdmissionEngine(XYRouting(mesh), analysis=backend)
    decisions = []
    accepted = rejected = 0
    t0 = time.perf_counter()
    for op, payload in trace:
        if op == "admit":
            decision = engine.try_admit(payload)
            decisions.append(1 if decision.admitted else 0)
            if decision.admitted:
                accepted += 1
            else:
                rejected += 1
        elif payload in engine.admitted:
            engine.release(payload)
    seconds = time.perf_counter() - t0
    return seconds, accepted, rejected, decisions


def bench_backends() -> dict:
    trace = build_trace(SEED)
    admits = sum(1 for op, _ in trace if op == "admit")
    per_backend: dict = {}
    decision_vectors: dict = {}
    for name in bound_backends.names():
        backend = bound_backends.get(name)
        best = float("inf")
        accepted = rejected = 0
        decisions = None
        for _ in range(max(1, REPEATS)):
            sec, acc, rej, dec = replay(trace, name)
            if decisions is not None and dec != decisions:
                raise AssertionError(
                    f"backend {name} made different decisions across "
                    "repeats of the identical trace"
                )
            best, accepted, rejected, decisions = (
                min(best, sec), acc, rej, dec
            )
        decision_vectors[name] = decisions
        per_backend[name] = {
            "summary": backend.summary,
            "citation": backend.citation,
            "refines": backend.refines,
            "accepted": accepted,
            "rejected": rejected,
            "admission_rate": round(accepted / max(1, admits), 4),
            "replay_seconds": round(best, 4),
        }

    if DEFAULT_WORKLOAD and {"kim98", "tighter", "buffered"} <= set(
        per_backend
    ):
        k = per_backend["kim98"]["accepted"]
        t = per_backend["tighter"]["accepted"]
        b = per_backend["buffered"]["accepted"]
        if not t > k:
            raise AssertionError(
                f"tighter accepted {t} <= kim98 {k} on the pinned churn "
                "workload — the refinement stopped buying admission "
                "capacity"
            )
        if not b <= k:
            raise AssertionError(
                f"buffered accepted {b} > kim98 {k} — an interference "
                "margin must not grow the schedulable region"
            )
    return {
        "mesh": f"{MESH_W}x{MESH_H}",
        "priority_levels": LEVELS,
        "target_live_streams": TARGET_LIVE,
        "seed": SEED,
        "ops": len(trace),
        "admit_trials": admits,
        "workload": "paired bulk+monitor churn (monitor crosses the "
                    "bulk's final channel at equal priority)",
        "dominance_asserted": DEFAULT_WORKLOAD,
        "backends": per_backend,
    }


def main() -> None:
    report = {
        "bench": "PR7 pluggable bound backends",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "knobs": {
            "REPRO_BENCH_ADMIT_OPS": CHURN_OPS,
            "REPRO_BENCH_ADMIT_STREAMS": TARGET_LIVE,
            "REPRO_BENCH_SEED": SEED,
            "REPRO_PERF_REPEATS": REPEATS,
        },
        "workloads": {},
    }
    t0 = time.perf_counter()
    print(f"replaying {TARGET_LIVE}-stream churn trace once per backend "
          f"({', '.join(bound_backends.names())})...")
    report["workloads"]["backend_churn"] = bench_backends()
    report["total_seconds"] = round(time.perf_counter() - t0, 2)

    OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"[saved to {OUT_PATH}]")


if __name__ == "__main__":
    main()
