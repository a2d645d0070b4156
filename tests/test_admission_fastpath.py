"""The admission fast path: every shortcut must be invisible.

Three optimisation layers ride the admission path — shared route tables,
reach-delta HP maintenance and the adaptive-horizon interval diagram.
These tests pin the only contract any of them is allowed to have: the
observed decisions and report specs are byte-identical to from-scratch
reanalysis (``tests/reference.py``) with or without the HP-delta escape
hatch, including after a chaos ``cache_storm``, and the interval row
fill agrees bit for bit with the paper's literal scan.
"""

import hashlib
import json
import multiprocessing
import random

import numpy as np
from hypothesis import HealthCheck, given, settings

from repro.core.feasibility import FeasibilityAnalyzer
from repro.core.streams import MessageStream
from repro.core.timing_diagram import fill_masks
from repro.io import report_to_spec
from repro.service.engine import IncrementalAdmissionEngine
from repro.service.host import EngineHost
from repro.service.loadgen import churn_spec
from repro.topology.mesh import Mesh2D
from repro.topology.route_table import (
    clear_shared_route_tables,
    shared_route_table,
)
from repro.topology.routing import XYRouting
from tests.reference import ReferenceAdmission, fill_masks_scan
from tests.test_interval_diagram import dense_builds
from tests.test_properties import XY, stream_sets

MESH_W = MESH_H = 6


def fuzz_trace(seed=0, ops=220, target_live=12):
    """A deterministic admit/release churn trace on the 6x6 mesh."""
    mesh = Mesh2D(MESH_W, MESH_H)
    rng = random.Random(seed)

    def draw(sid):
        while True:
            src = rng.randrange(mesh.num_nodes)
            dst = rng.randrange(mesh.num_nodes)
            if src != dst:
                break
        period = rng.randint(40, 200)
        return MessageStream(
            sid, src, dst,
            priority=rng.randint(1, 8), period=period,
            length=rng.randint(1, 6),
            deadline=rng.randint(period // 4, period),
        )

    trace, live, next_id = [], [], 0
    for _ in range(ops):
        if live and (len(live) >= target_live or rng.random() < 0.5):
            trace.append(("release", live.pop(rng.randrange(len(live)))))
        else:
            trace.append(("admit", draw(next_id)))
            live.append(next_id)
            next_id += 1
    return trace


def replay_digest(engine, trace):
    """Replay the trace; return a SHA-256 over every decision + report."""
    h = hashlib.sha256()
    for op, payload in trace:
        if op == "admit":
            d = engine.try_admit(payload)
            h.update(json.dumps(
                ["admit", payload.stream_id, d.admitted,
                 list(d.violations), report_to_spec(d.report)],
                sort_keys=True,
            ).encode())
        elif payload in engine.admitted:
            engine.release(payload)
            h.update(json.dumps(
                ["release", payload,
                 report_to_spec(engine.current_report())],
                sort_keys=True,
            ).encode())
    return h.hexdigest()


def fresh_engine(**kwargs):
    clear_shared_route_tables()
    return IncrementalAdmissionEngine(
        XYRouting(Mesh2D(MESH_W, MESH_H)), **kwargs
    )


class TestKnobByteIdentity:
    def test_every_escape_hatch_reproduces_the_default(self):
        trace = fuzz_trace(seed=3)
        baseline = replay_digest(fresh_engine(), trace)
        reference = ReferenceAdmission(XYRouting(Mesh2D(MESH_W, MESH_H)))
        assert replay_digest(reference, trace) == baseline
        # REPRO_INCREMENTAL_HP=0
        assert replay_digest(fresh_engine(incremental_hp=False), trace) \
            == baseline


class TestCacheStorm:
    def test_storm_recovers_bit_identical_and_rewarms(self):
        trace = fuzz_trace(seed=11, ops=120)
        engine = fresh_engine()
        for op, payload in trace:
            if op == "admit":
                engine.try_admit(payload)
            elif payload in engine.admitted:
                engine.release(payload)
        before = report_to_spec(engine.current_report())
        table = shared_route_table(engine.routing)
        assert len(table) > 0
        for _ in range(3):
            engine.invalidate_caches()
            assert report_to_spec(engine.current_report()) == before
        # The storm rebuilt routes through the cleared table.
        assert len(table) > 0
        assert engine.stats.forced_invalidations == 3


def mask_runs(mask):
    """Ascending inclusive ``(lo, hi)`` runs of the set cells (index 0
    ignored)."""
    runs, t, n = [], 1, len(mask)
    while t < n:
        if mask[t]:
            lo = t
            while t + 1 < n and mask[t + 1]:
                t += 1
            runs.append((lo, t))
        t += 1
    return runs


def runs_mask(runs, n):
    mask = np.zeros(n, dtype=bool)
    for lo, hi in runs:
        mask[lo:hi + 1] = True
    return mask


class TestKernelParity:
    def test_interval_fill_agrees_with_scan_on_fuzzed_rows(self):
        rng = random.Random(0)
        for _ in range(300):
            dtime = rng.randint(1, 160)
            period = rng.randint(1, dtime + 3)
            length = rng.randint(1, min(period, 6))
            busy = np.zeros(dtime + 1, dtype=bool)
            for t in range(1, dtime + 1):
                busy[t] = rng.random() < rng.choice((0.1, 0.5, 0.9))
            nwin = -(-dtime // period)
            skip = frozenset(w for w in range(nwin) if rng.random() < 0.2)
            ref_alloc, ref_wait = fill_masks_scan(
                busy.copy(), period, length, nwin
            )
            for w in skip:
                ref_alloc[w * period + 1:(w + 1) * period + 1] = False
                ref_wait[w * period + 1:(w + 1) * period + 1] = False
            gaps = mask_runs(~busy)
            wins, runs, below = fill_masks(
                gaps, period, length, dtime, skip
            )
            requested = runs_mask(runs, dtime + 1)
            np.testing.assert_array_equal(requested & ~busy, ref_alloc)
            np.testing.assert_array_equal(requested & busy, ref_wait)
            assert below == mask_runs(~busy & ~ref_alloc)
            # One run per unskipped window, tagged with its window.
            assert wins == [w for w in range(nwin) if w not in skip]
            assert [(lo - 1) // period for lo, _ in runs] == wins


class TestAdaptiveHorizon:
    @given(streams=stream_sets(max_streams=6))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_adaptive_equals_deadline_horizon(self, streams):
        for use_modify in (True, False):
            an = FeasibilityAnalyzer(streams, XY, use_modify=use_modify)
            for s in an.streams:
                fast = an.cal_u(s.stream_id)
                slow = an.cal_u(s.stream_id, horizon=s.deadline)
                assert fast.upper_bound == slow.upper_bound
                assert fast.feasible == slow.feasible
                assert fast.horizon == s.deadline


class TestPhaseTimings:
    def test_stats_break_down_the_admission_path(self):
        trace = fuzz_trace(seed=5, ops=80)
        # Pinned on: the delta counters below are what the
        # REPRO_INCREMENTAL_HP=0 CI leg switches off.
        engine = fresh_engine(incremental_hp=True)
        for op, payload in trace:
            if op == "admit":
                engine.try_admit(payload)
            elif payload in engine.admitted:
                engine.release(payload)
        st = engine.stats.to_dict()
        assert st["hp_delta_updates"] > 0
        # Full rebuilds happen only on fallback transitions (e.g. the
        # first admit into an empty set); deltas must dominate.
        assert st["hp_delta_updates"] > st["hp_rebuilt"]
        assert st["route_cache_misses"] <= len({
            (p.src, p.dst) for op, p in trace if op == "admit"
        })
        for phase in ("route_seconds", "hp_seconds",
                      "diagram_seconds", "verdict_seconds"):
            assert st[phase] >= 0.0
        assert st["verdict_seconds"] >= st["diagram_seconds"]


def replay_dense_churn(host, ops=160):
    """Admit/release churn on a 10x10 mesh dense enough to recompute 8+
    verdicts per op."""
    rng = random.Random(1)
    live = []
    for _ in range(ops):
        if len(live) > 40 or (live and rng.random() < 0.3):
            sid = live.pop(rng.randrange(len(live)))
            response = host.handle_request({"op": "release", "ids": [sid]})
        else:
            response = host.handle_request({
                "op": "admit",
                "streams": [churn_spec(rng, 100)],
            })
            if response.get("admitted"):
                live.extend(response["ids"])
        assert response["ok"], response
    assert host.engine.stats.dirty_max >= 8


class TestNoProcessPool:
    def test_dense_churn_leaves_no_child_processes(self):
        """Verdicts are computed in process: a dense churn must not fork
        a single child."""
        before = set(multiprocessing.active_children())
        host = EngineHost({"type": "mesh", "width": 10, "height": 10})
        try:
            replay_dense_churn(host)
        finally:
            host.close()
        spawned = set(multiprocessing.active_children()) - before
        assert not spawned, spawned


class TestNoDenseMasks:
    def test_dense_churn_never_builds_per_slot_masks(self):
        """Verdicts come from the interval diagram alone: no verdict of a
        dense churn materialises the per-slot allocated/waiting arrays."""
        host = EngineHost({"type": "mesh", "width": 10, "height": 10})
        try:
            with dense_builds() as calls:
                replay_dense_churn(host)
            assert host.engine.stats.verdicts_recomputed > 0
        finally:
            host.close()
        assert not calls
