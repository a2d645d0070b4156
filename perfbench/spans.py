"""In-memory spans around calls into the program's public functions.

The program itself carries no tracing for this benchmark: a
:class:`Tracer` replaces chosen functions and methods with wrappers that
record one span per call (layer, op key, start, end, time covered by
nested spans) and restores the originals on :meth:`Tracer.uninstall`.
Spans stay in memory; :func:`account` turns them into per-layer self
times once the run is over.

An op key ties server-side spans to the client op that caused them: the
wrapper around the first call an op reaches on the server side reads the
request's ``id`` (plus the tenant, where there is one); nested spans on
the same thread inherit the key of their parent.
"""

from __future__ import annotations

import bisect
import functools
import inspect
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from .common import median, quantile

Key = Optional[str]


class Span:
    __slots__ = ("layer", "key", "t0", "t1", "parent", "child_time", "phase")

    def __init__(self, layer: str, key: Key, parent: "Optional[Span]",
                 phase: str):
        self.layer = layer
        self.key = key
        self.parent = parent
        self.phase = phase
        self.child_time = 0.0
        self.t0 = time.perf_counter()
        self.t1 = self.t0

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        #: Label stored on every span; ``account`` keeps live spans and
        #: reference-replay spans apart by it.
        self.phase = "live"
        #: Prefix for keys derived from bare requests (the tenant whose
        #: requests a reference host is replaying).
        self.tag = ""
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -------------------------------------------------------------- #

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def request_key(self, request: Any) -> Key:
        if isinstance(request, dict) and request.get("id") is not None:
            return f"{self.tag}:{request['id']}"
        return None

    def _install(self, owner: Any, attr: str, make: Callable) -> None:
        raw = inspect.getattr_static(owner, attr)
        is_static = isinstance(raw, staticmethod)
        original = raw.__func__ if is_static else getattr(owner, attr)
        wrapper = functools.wraps(original)(make(original))
        setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)
        self._patches.append((owner, attr, raw))

    def span(self, owner: Any, attr: str, layer: str,
             key_of: Optional[Callable[[tuple], Key]] = None) -> None:
        """Record a span of ``layer`` around every call of
        ``owner.attr``; ``key_of(args)`` names the op, otherwise the
        span inherits its parent's key."""
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None
                key = key_of(args) if key_of is not None else None
                if key is None and parent is not None:
                    key = parent.key
                span = Span(layer, key, parent, tracer.phase)
                stack.append(span)
                try:
                    return original(*args, **kwargs)
                finally:
                    span.t1 = time.perf_counter()
                    stack.pop()
                    if parent is not None:
                        parent.child_time += span.duration
                    tracer.spans.append(span)
            return wrapper

        self._install(owner, attr, make)

    def count(self, owner: Any, attr: str, name: str,
              when: Optional[Callable[[Any], bool]] = None) -> None:
        """Count calls of ``owner.attr`` (those whose result satisfies
        ``when``, if given) without recording spans."""
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                if when is None or when(result):
                    tracer.counts[name] += 1
                return result
            return wrapper

        self._install(owner, attr, make)

    @contextmanager
    def root(self, key: str, layer: str) -> Iterator[Span]:
        """A span opened by the benchmark itself around one op, so the
        spans of the calls it makes inherit ``key``."""
        stack = self._stack()
        span = Span(layer, key, None, self.phase)
        stack.append(span)
        try:
            yield span
        finally:
            span.t1 = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()


def install_service_layers(tracer: Tracer) -> None:
    """Wrap the public calls of every layer a broker op passes through."""
    import os

    from repro.service import engine
    from repro.service.engine import IncrementalAdmissionEngine
    from repro.service.host import EngineHost
    from repro.service.persistence import BrokerState
    from repro.topology.route_table import RouteTable

    tracer.span(EngineHost, "handle_request", "host",
                key_of=lambda a: tracer.request_key(a[1]))
    tracer.span(BrokerState, "append", "persistence")
    tracer.span(os, "fsync", "persistence.fsync")
    for name in ("try_admit", "release", "apply_routing"):
        tracer.span(IncrementalAdmissionEngine, name, f"engine.{name}")
    tracer.span(engine, "map_verdicts", "parallel")
    install_core_layers(tracer)
    tracer.count(RouteTable, "lookup", "route_table.misses",
                 when=lambda result: not result[1])


def install_core_layers(tracer: Tracer) -> None:
    """Wrap the Kim98 analysis phases (HP sets, timing diagram, Modify,
    the mask-fill kernel) at the module attributes their callers use."""
    from repro.core import feasibility, modify, timing_diagram
    from repro.service import engine

    tracer.span(engine, "hp_set_from_reach", "hpset")
    tracer.span(engine, "build_hp_set", "hpset")
    tracer.span(feasibility, "build_all_hp_sets", "hpset")
    tracer.span(feasibility, "generate_init_diagram", "timing_diagram")
    tracer.span(modify, "generate_init_diagram", "timing_diagram")
    tracer.span(feasibility, "modify_diagram", "modify")
    tracer.span(timing_diagram, "fill_masks", "kernel")


# ------------------------------------------------------------------ #
# Accounting
# ------------------------------------------------------------------ #


def _overlap(a0: float, a1: float, b0: float, b1: float) -> float:
    return max(0.0, min(a1, b1) - max(a0, b0))


def account(
    tracer: Tracer,
    roots: Dict[str, Tuple[float, float]],
    *,
    front: str,
    loop_layer: Optional[str] = None,
    substitute: Optional[Tuple[str, str]] = None,
) -> Dict[str, Any]:
    """Per-op self time of every layer.

    ``roots`` maps each traced op key to the client-side interval of the
    op. The ``front`` layer (the transport the client talks to) gets the
    part of that interval not covered by the op's own top-level
    server-side spans, nor by ``loop_layer`` spans (keyless work on the
    front's event loop, e.g. standby catch-up) overlapping it.

    ``substitute = (rpc_layer, replay_layer)``: for ops whose server-side
    work ran in another process, the RPC layer's time minus the same
    op's ``replay_layer`` span from an in-process reference replay, whose
    nested spans then stand for the remote layers.
    """
    by_key: Dict[str, List[Span]] = defaultdict(list)
    loop_spans: List[Span] = []
    for span in tracer.spans:
        if span.key is not None:
            by_key[span.key].append(span)
        elif loop_layer is not None and span.layer == loop_layer \
                and span.parent is None and span.phase == "live":
            loop_spans.append(span)
    loop_spans.sort(key=lambda s: s.t0)
    starts = [s.t0 for s in loop_spans]

    per_op: Dict[str, Dict[str, float]] = {}
    unattributed = 0.0
    total = 0.0
    for key, (r0, r1) in roots.items():
        duration = r1 - r0
        total += duration
        layers: Dict[str, float] = defaultdict(float)
        spans = by_key.get(key, [])
        tops: List[Span] = []
        replay_top = 0.0
        for span in spans:
            layers[span.layer] += span.self_time
            if span.parent is None:
                if span.phase == "live":
                    tops.append(span)
                elif substitute is not None \
                        and span.layer == substitute[1]:
                    replay_top += span.duration
        live_top = sum(t.duration for t in tops)
        if substitute is not None:
            layers[substitute[0]] -= replay_top
        loop = 0.0
        if loop_spans:
            # Loop work delays the op only while the op is not running
            # in its own top-level spans (those may sit on other threads).
            i = max(0, bisect.bisect_left(starts, r0) - 1)
            while i < len(loop_spans) and loop_spans[i].t0 < r1:
                c = loop_spans[i]
                loop += _overlap(r0, r1, c.t0, c.t1) - sum(
                    _overlap(t.t0, t.t1, c.t0, c.t1) for t in tops)
                i += 1
            layers[loop_layer] += loop
        if live_top == 0.0:
            # No server-side span reached this op: nothing to attribute.
            unattributed += duration - loop
        else:
            layers[front] += duration - live_top - loop
        per_op[key] = dict(layers)
    return {"per_op": per_op, "total": total, "unattributed": unattributed}


#: Layer groups reported on every traced run (0 where a workload does
#: not reach the layer). A span's group is its layer name up to the
#: first dot.
GROUPS = ("gateway", "shards", "workers", "replication", "server", "host",
          "persistence", "engine", "parallel", "hpset", "timing_diagram",
          "modify", "kernel", "experiments", "sim")

#: Raw layers whose span durations (not self times) the detail reports.
CALLS = ("engine.try_admit", "engine.release", "engine.apply_routing",
         "persistence.append", "persistence.fsync", "replication",
         "workers.call", "experiments.inflate", "sim")


def per_layer(tracer: Tracer, acc: Dict[str, Any], *, window: float,
              overhead: float, counters: Dict[str, float]
              ) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Per-layer metrics (shares of the traced ops' end-to-end time,
    counts per op) and a detail table with self-time quantiles."""
    per_op = acc["per_op"]
    ops = len(per_op) or 1
    total = acc["total"] or 1.0
    grouped: Dict[str, Dict[str, float]] = {}
    for key, layers in per_op.items():
        groups: Dict[str, float] = defaultdict(float)
        for layer, seconds in layers.items():
            groups[layer.split(".", 1)[0]] += seconds
        grouped[key] = groups
    metrics: Dict[str, float] = {}
    table: Dict[str, Any] = {}
    for group in GROUPS:
        samples = [g[group] for g in grouped.values() if group in g]
        metrics[f"{group}.share"] = sum(samples) / total
        if samples:
            table[group] = {
                "self_p50_ms": median(samples) * 1000.0,
                "self_p99_ms": quantile(samples, 0.99) * 1000.0,
                "ops": len(samples),
            }
    metrics["unattributed_share"] = 1.0 - sum(
        metrics[f"{g}.share"] for g in GROUPS)
    calls: Dict[str, List[float]] = defaultdict(list)
    keyed: Counter = Counter()
    loop_busy = 0.0
    for span in tracer.spans:
        calls[span.layer].append(span.duration)
        if span.key in per_op:
            keyed[span.layer] += 1
        elif span.layer == "replication" and span.parent is None:
            loop_busy += span.duration
    metrics.update({
        "trace_overhead": overhead,
        "replication.loop_share": loop_busy / window,
        "shards.fanout_per_op": keyed["workers.shard"] / ops,
        "workers.calls_per_op": keyed["workers.call"] / ops,
        "persistence.fsyncs_per_op": keyed["persistence.fsync"] / ops,
        "parallel.calls_per_op": keyed["parallel"] / ops,
        "route_table.misses": float(tracer.counts["route_table.misses"]),
    })
    for name in ("server.batch_mean", "engine.verdicts_recomputed_per_op",
                 "engine.verdict_reuse_ratio", "engine.dirty_mean",
                 "sim.flits"):
        metrics[name] = float(counters.get(name, 0.0))
    e2e_mean = acc["total"] / ops
    busy: Dict[str, float] = defaultdict(float)
    for span in tracer.spans:
        if span.key in per_op:
            busy[span.layer.split(".", 1)[0]] += span.self_time
    detail = {
        "ops": len(per_op),
        "window_s": window,
        # Share of the traced window each layer kept a thread busy on
        # traced ops (the front layer's queueing is not busy time).
        "busy_share": {g: busy[g] / window for g in GROUPS if g in busy},
        "e2e_mean_ms": e2e_mean * 1000.0,
        "layers_sum_mean_ms": sum(
            sum(g.values()) for g in grouped.values()) / ops * 1000.0,
        "self_times": table,
        "calls": {
            layer: {
                "count": len(calls[layer]),
                "p50_ms": median(calls[layer]) * 1000.0,
                "p99_ms": quantile(calls[layer], 0.99) * 1000.0,
                "mean_ms": sum(calls[layer]) / len(calls[layer]) * 1000.0,
            }
            for layer in CALLS if calls.get(layer)
        },
    }
    return metrics, detail


def engine_counters(before: Dict[str, float], after: Dict[str, float]
                    ) -> Dict[str, float]:
    """Engine stats counters over a window, from two ``stats`` reads."""
    diff = {k: after.get(k, 0) - before.get(k, 0) for k in (
        "ops", "verdicts_recomputed", "verdicts_reused", "dirty_total")}
    ops = diff["ops"] or 1
    evaluated = diff["verdicts_recomputed"] + diff["verdicts_reused"]
    return {
        "engine.verdicts_recomputed_per_op":
            diff["verdicts_recomputed"] / ops,
        "engine.verdict_reuse_ratio":
            diff["verdicts_reused"] / evaluated if evaluated else 0.0,
        "engine.dirty_mean": diff["dirty_total"] / ops,
    }
