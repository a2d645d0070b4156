"""``fleet_bursty``: open-loop bursty traces against ``repro gateway``.

Why: each op does little engine work, so HTTP, dispatch, worker RPC,
journal fsync and standby catch-up dominate; and the engine is used
differently from ``dense_churn`` (batch admits, mass releases and
``apply_routing`` on link faults).

Deployment: ``repro gateway --workers 2 --shards 2`` with a state
directory, so warm standbys are on (the default). Two tenants on a 10x10
mesh, one keep-alive ``GatewayClient`` each, both driven by one thread.

Load: open loop. Op ``j`` of the merged schedule (tenants alternate) is
due ``j / RATE`` seconds after the window opens; its latency runs from
that due time to its answer, so a stall also delays the ops queued
behind it. The generator's lateness is reported next to the metrics.
"""

from __future__ import annotations

import math
import os
import random
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .common import (
    settle_disk,
    median,
    peak_rss_mb,
    process_tree,
    quantile,
    read_line,
    run_dir,
    spawn_repro,
    stop_group,
    wait_gone,
)
from .gate import gate
from .service import Latencies, LoopThread, OpLog
from .spans import (
    Tracer,
    account,
    engine_counters,
    install_service_layers,
    per_layer,
)

TOPOLOGY = {"type": "mesh", "width": 10, "height": 10}
NODES = 100
TENANTS = (("alpha", "key-alpha"), ("beta", "key-beta"))
TARGET_LIVE = 30
LINK_RATE = 0.02
#: Offered load, ops per second over both tenants.
RATE = 40.0
#: Untimed ops per tenant, sent back to back, that fill the mesh before
#: the open-loop window.
WARMUP_OPS = 80
SETUPS = 3
KINDS = ("admit", "release", "link")


class TenantTrace:
    """One tenant's seeded ``generate_trace`` plus the handle -> id map
    that turns its handle-based releases into broker requests."""

    def __init__(self, tenant: str, seed: int, index: int, ops: int):
        from repro.io import topology_from_spec
        from repro.service.loadgen import generate_trace

        topology, _ = topology_from_spec(TOPOLOGY)
        links = sorted({tuple(sorted(c)) for c in topology.channels()})
        self.tenant = tenant
        self.ops = generate_trace(
            "bursty", random.Random(seed * len(TENANTS) + index), NODES,
            ops=ops, target_live=TARGET_LIVE, links=links,
            link_rate=LINK_RATE,
        )
        self.next_op = 0
        self.handle_ids: List[Optional[int]] = []
        self.id_handle: Dict[int, int] = {}
        self.log = OpLog()

    def next_request(self) -> Optional[Dict[str, Any]]:
        """The next trace op as a request, ``None`` for a release whose
        handles are all gone (nothing to send for that slot)."""
        if self.next_op >= len(self.ops):
            raise RuntimeError(f"trace of {self.tenant} ran out")
        op = self.ops[self.next_op]
        self.next_op += 1
        if op["op"] == "admit":
            self.handle_ids.extend([None] * len(op["streams"]))
            return {"op": "admit", "streams": op["streams"]}
        if op["op"] == "release":
            ids = [self.handle_ids[r] for r in op["refs"]
                   if self.handle_ids[r] is not None]
            if not ids:
                return None
            for ref in op["refs"]:
                sid = self.handle_ids[ref]
                if sid is not None:
                    self.id_handle.pop(sid, None)
                self.handle_ids[ref] = None
            return {"op": "release", "ids": ids}
        return {"op": op["op"], "link": op["link"]}

    def absorb(self, request: Dict[str, Any],
               response: Dict[str, Any]) -> None:
        if not response.get("ok"):
            return
        if request["op"] == "admit":
            if response.get("admitted"):
                base = len(self.handle_ids) - len(request["streams"])
                for offset, sid in enumerate(response["ids"]):
                    self.handle_ids[base + offset] = sid
                    self.id_handle[sid] = base + offset
        elif request["op"] in ("fail_link", "restore_link"):
            for sid in (list(response.get("evicted", ()))
                        + list(response.get("disconnected", ()))):
                ref = self.id_handle.pop(sid, None)
                if ref is not None:
                    self.handle_ids[ref] = None


def kind_of(op: str) -> str:
    return "link" if op in ("fail_link", "restore_link") else op


def send(client, trace: TenantTrace, request: Dict[str, Any]
         ) -> Tuple[Dict[str, Any], int]:
    fields = {k: v for k, v in request.items() if k != "op"}
    seq = client.send(request["op"], **fields)
    response = client.recv(seq)
    index = trace.log.add(dict(request, id=seq))
    trace.log.served[index] = response
    trace.absorb(request, response)
    return response, seq


def warm_up(clients, traces) -> None:
    for _ in range(WARMUP_OPS):
        for client, trace in zip(clients, traces):
            request = trace.next_request()
            if request is not None:
                send(client, trace, request)


def open_loop(clients, traces, seconds: float, lat: Latencies,
              lags: List[float],
              roots: Optional[Dict[str, tuple]] = None) -> Tuple[int, float]:
    """Offer ``RATE`` ops/s for ``seconds``; returns (ops sent, elapsed
    from the window's start to the last answer)."""
    start = time.perf_counter()
    slots = int(seconds * RATE)
    sent = 0
    for j in range(slots):
        client, trace = clients[j % len(clients)], traces[j % len(traces)]
        request = trace.next_request()
        if request is None:
            continue
        due = start + j / RATE
        now = time.perf_counter()
        if now < due:
            time.sleep(due - now)
        lags.append(max(0.0, time.perf_counter() - due))
        _, seq = send(client, trace, request)
        done = time.perf_counter()
        lat.add(kind_of(request["op"]), done - due)
        if roots is not None:
            roots[f"{trace.tenant}:{seq}"] = (due, done)
        sent += 1
    return sent, time.perf_counter() - start


def make_traces(seed: int, seconds: float) -> List[TenantTrace]:
    ops = WARMUP_OPS + math.ceil(seconds * RATE / len(TENANTS)) + 16
    return [TenantTrace(name, seed, i, ops)
            for i, (name, _) in enumerate(TENANTS)]


def _start_gateway(d: Path, procs: list):
    from repro.fleet.client import GatewayClient

    args = ["gateway", "--host", "127.0.0.1", "--port", "0",
            "--workers", "2", "--shards", "2", "--mesh", "10x10",
            "--state-dir", str(d / "state")]
    for name, key in TENANTS:
        args += ["--tenant", f"{name}={key}"]
    settle_disk()
    t0 = time.perf_counter()
    proc = spawn_repro(args, d.parent / f"{d.name}.log", stdout_pipe=True)
    procs.append(proc)
    line = read_line(proc, 120.0)
    marker = "listening on http://"
    if marker not in line:
        raise RuntimeError(f"unexpected gateway banner: {line!r}")
    target = line.split(marker, 1)[1].split()[0]
    clients = [GatewayClient(target, api_key=key, timeout=120.0)
               for _, key in TENANTS]
    hello = clients[0].check("hello")
    return proc, clients, hello, time.perf_counter() - t0


def _shutdown(proc, clients) -> None:
    try:
        clients[0].request("shutdown")
    finally:
        for client in clients:
            client.close()
        stop_group(proc)


def check(traces: List[TenantTrace], analysis: str,
          reports: List[Dict[str, Any]], state_root: Optional[Path] = None,
          tracer: Optional[Tracer] = None) -> None:
    """The gate, per tenant: replay the tenant's requests through one
    unsharded reference host (``state_root`` gives it a journal)."""
    for trace, report in zip(traces, reports):
        if tracer is not None:
            tracer.tag = trace.tenant
        gate(f"fleet_bursty/{trace.tenant}", TOPOLOGY, analysis,
             trace.log.requests, trace.log.served, report,
             state_dir=None if state_root is None
             else state_root / trace.tenant)


def _latency_metrics(lat: Latencies, lags: List[float]) -> Dict[str, Any]:
    return {
        "admit_p99_ms": lat.ms("admit", 0.99),
        "release_p99_ms": lat.ms("release", 0.99),
        "link_p50_ms": lat.ms("link", 0.50),
        "samples": {k: lat.count(k) for k in KINDS},
        "generator_lag_ms": {
            "p50": quantile(lags, 0.50) * 1000.0,
            "p99": quantile(lags, 0.99) * 1000.0,
            "max": max(lags) * 1000.0,
        },
    }


def run(seed: int, seconds: float) -> Dict[str, Any]:
    """Timed run against ``repro gateway`` subprocesses."""
    procs: list = []
    traces = make_traces(seed, seconds)
    with run_dir("fleet_bursty") as d:
        try:
            setups = []
            for i in range(SETUPS):
                proc, clients, hello, took = _start_gateway(d / f"s{i}",
                                                            procs)
                setups.append(took)
                if i < SETUPS - 1:
                    _shutdown(proc, clients)
            warm_up(clients, traces)
            procs_before = len(process_tree(proc.pid))
            settle_disk()
            lat, lags = Latencies(), []
            sent, elapsed = open_loop(clients, traces, seconds, lat, lags)
            tree = process_tree(proc.pid)
            rss = peak_rss_mb(tree)
            reports = [c.request("report") for c in clients]
            _shutdown(proc, clients)
        finally:
            for p in procs:
                if p.returncode is None:
                    stop_group(p, timeout=0.0)
    check(traces, hello["default_analysis"], reports)
    attempted = sum(len(t.log.requests) for t in traces)
    failed = sum(t.log.failed for t in traces)
    return {
        "hello": hello,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "ops_per_s": sent / elapsed,
            "admit_p50_ms": lat.ms("admit", 0.50),
            "setup_s": median(setups),
            "peak_rss_mb": rss,
        },
        "detail": {
            **_latency_metrics(lat, lags),
            "error_rate": failed / attempted,
            "offered_rate": RATE,
            "processes": {"window_start": procs_before,
                          "window_end": len(tree)},
            "timed_ops": sent,
            "seconds": elapsed,
            "setup_samples_s": setups,
            "live_at_end": {
                t.tenant: sum(1 for s in t.handle_ids if s is not None)
                for t in traces
            },
        },
    }


def _engine_totals(stats: List[Dict[str, Any]]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for tenant in stats:
        for shard in tenant["shards"]:
            for k, v in shard["engine"].items():
                totals[k] = totals.get(k, 0) + v
    return totals


def run_traced(seed: int, seconds: float) -> Dict[str, Any]:
    """The same deployment in process (gateway loop on a background
    thread, worker processes as in production). The first half of the
    window runs bare, the second with every layer wrapped.

    Shard engines run in the workers, out of the wrappers' reach; the
    gate's in-process replay (with a journal) is traced instead and its
    spans stand for the worker side of each op."""
    from repro.analysis.parallel import shutdown_verdict_pool
    from repro.fleet import Fleet, GatewayServer, StandbyPool, TenantSpec
    from repro.fleet.client import GatewayClient
    from repro.fleet.workers import WorkerClient, WorkerShard

    tracer = Tracer()
    traces = make_traces(seed, seconds)
    with run_dir("fleet_bursty-trace") as d:
        loop = LoopThread()
        fleet = Fleet([TenantSpec(n, k, TOPOLOGY) for n, k in TENANTS],
                      shards=2, state_dir=d / "state", workers=2)
        gateway = GatewayServer(fleet, standbys=StandbyPool(fleet))
        serving = None
        clients: list = []
        try:
            loop.run(gateway.start("127.0.0.1", 0))
            serving = loop.submit(gateway.serve_forever())
            clients = [
                GatewayClient(f"127.0.0.1:{gateway.port}", api_key=key,
                              timeout=120.0)
                for _, key in TENANTS
            ]
            hello = clients[0].check("hello")
            warm_up(clients, traces)
            settle_disk()
            plain, lags = Latencies(), []
            open_loop(clients, traces, seconds / 2, plain, lags)
            before = [c.check("stats") for c in clients]
            tracer.span(Fleet, "handle_request", "shards",
                        key_of=lambda a: f"{a[1]}:{a[2].get('id')}")
            tracer.span(WorkerShard, "handle_request", "workers.shard")
            tracer.span(WorkerClient, "call", "workers.call")
            tracer.span(StandbyPool, "catch_up", "replication")
            install_service_layers(tracer)
            traced, roots = Latencies(), {}
            _, window = open_loop(clients, traces, seconds / 2, traced,
                                  lags, roots)
            after = [c.check("stats") for c in clients]
            reports = [c.request("report") for c in clients]
            clients[0].request("shutdown")
            serving.result(60.0)
        finally:
            children = process_tree(os.getpid())[1:]
            for client in clients:
                client.close()
            if serving is not None and not serving.done():
                loop.loop.call_soon_threadsafe(gateway.request_shutdown)
                serving.result(60.0)
            loop.close()
            # The standbys ran in this process and may have started the
            # verdict pool: stop it before waiting for every child.
            shutdown_verdict_pool()
            wait_gone(children)
        try:
            tracer.phase = "replay"
            check(traces, hello["default_analysis"], reports,
                  state_root=d / "replay", tracer=tracer)
        finally:
            tracer.uninstall()
    acc = account(tracer, roots, front="gateway", loop_layer="replication",
                  substitute=("workers.call", "host"))
    metrics, detail = per_layer(
        tracer, acc, window=window,
        overhead=traced.mean_all() / plain.mean_all(),
        counters=engine_counters(_engine_totals(before),
                                 _engine_totals(after)),
    )
    detail["latency"] = _latency_metrics(traced, lags)
    attempted = sum(len(t.log.requests) for t in traces)
    return {
        "hello": hello,
        "attempted": attempted,
        "failed": sum(t.log.failed for t in traces),
        "metrics": metrics,
        "detail": detail,
    }
