"""``dense_churn``: single-stream admit/release churn against ``repro serve``.

Why: on a 12x12 mesh at about 60 live streams over 15 priority levels
most of an op's time goes to the engine recomputing verdicts (dirty
frontiers pass ``map_verdicts``' threshold, so the verdict pool engages),
while journal and transport are a small share.

Load: one unix-socket ``BrokerClient``, closed loop with ``DEPTH``
requests in flight. The op stream is a pure function of the seed and of
the (deterministic) admit verdicts.
"""

from __future__ import annotations

import random
import time
from collections import deque
from pathlib import Path
from typing import Any, Dict, List, Optional

from .common import (
    settle_disk,
    median,
    peak_rss_mb,
    process_tree,
    run_dir,
    spawn_repro,
    stop_group,
)
from .gate import gate
from .service import Latencies, LoopThread, OpLog, wait_until
from .spans import (
    Tracer,
    account,
    engine_counters,
    install_service_layers,
    per_layer,
)

TOPOLOGY = {"type": "mesh", "width": 12, "height": 12}
NODES = 144
LEVELS = 15
TARGET_LIVE = 60
#: Requests kept in flight on the one connection.
DEPTH = 4
#: Untimed ops that fill the mesh to the target occupancy (and start the
#: verdict pool) before the measured window.
WARMUP_OPS = 250
#: Server start-ups per run; ``setup_s`` is their median.
SETUPS = 3


class Churn:
    """Seeded op source holding occupancy near ``TARGET_LIVE``.

    Mostly admits below the target and mostly releases above it; only
    ids whose admission has been acknowledged are ever released.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.live: List[int] = []
        self.admits_in_flight = 0

    def next_request(self) -> Dict[str, Any]:
        from repro.service.loadgen import churn_spec

        estimate = len(self.live) + self.admits_in_flight
        if self.rng.random() < 0.8:
            admit = estimate < TARGET_LIVE
        else:
            admit = estimate >= TARGET_LIVE
        if admit or not self.live:
            self.admits_in_flight += 1
            spec = churn_spec(self.rng, NODES, priority_levels=LEVELS)
            return {"op": "admit", "streams": [spec]}
        sid = self.live.pop(self.rng.randrange(len(self.live)))
        return {"op": "release", "ids": [sid]}

    def absorb(self, request: Dict[str, Any],
               response: Dict[str, Any]) -> None:
        if request["op"] == "admit":
            self.admits_in_flight -= 1
            if response.get("ok") and response.get("admitted"):
                self.live.extend(response["ids"])


def drive(client, churn: Churn, log: OpLog, *, ops: Optional[int] = None,
          until: Optional[float] = None,
          latencies: Optional[Latencies] = None,
          roots: Optional[Dict[str, tuple]] = None) -> int:
    """Send ops (``ops`` of them, or until ``until``) keeping ``DEPTH``
    in flight; returns the number sent."""
    window: deque = deque()
    sent = 0

    def settle() -> None:
        seq, index, t0 = window.popleft()
        response = client.recv(seq)
        t1 = time.perf_counter()
        request = log.requests[index]
        log.served[index] = response
        churn.absorb(request, response)
        if latencies is not None:
            latencies.add(request["op"], t1 - t0)
        if roots is not None:
            roots[f":{seq}"] = (t0, t1)

    while (sent < ops) if ops is not None else (time.perf_counter() < until):
        request = churn.next_request()
        t0 = time.perf_counter()
        fields = {k: v for k, v in request.items() if k != "op"}
        seq = client.send(request["op"], **fields)
        client.flush()
        index = log.add(dict(request, id=seq))
        window.append((seq, index, t0))
        sent += 1
        if len(window) >= DEPTH:
            settle()
    while window:
        settle()
    return sent


def _start_server(d: Path, procs: list):
    from repro.service.loadgen import BrokerClient

    sock = d / "broker.sock"
    settle_disk()
    t0 = time.perf_counter()
    proc = spawn_repro(
        ["serve", "--socket", str(sock), "--mesh", "12x12",
         "--state-dir", str(d / "state")],
        d.parent / f"{d.name}.log",
    )
    procs.append(proc)
    client = None

    def connected() -> bool:
        nonlocal client
        if proc.poll() is not None:
            raise RuntimeError(f"repro serve exited with {proc.returncode}")
        try:
            client = BrokerClient(socket_path=sock, timeout=120.0)
        except OSError:
            return False
        return True

    wait_until(connected, 120.0, "broker start-up")
    hello = client.check("hello")
    return proc, client, hello, time.perf_counter() - t0


def _shutdown(proc, client) -> None:
    try:
        client.request("shutdown")
    finally:
        client.close()
        stop_group(proc)


def run(seed: int, seconds: float) -> Dict[str, Any]:
    """Timed run against ``repro serve`` subprocesses."""
    procs: list = []
    with run_dir("dense_churn") as d:
        try:
            setups = []
            for i in range(SETUPS):
                proc, client, hello, took = _start_server(d / f"s{i}", procs)
                setups.append(took)
                if i < SETUPS - 1:
                    _shutdown(proc, client)
            churn, log, lat = Churn(seed), OpLog(), Latencies()
            drive(client, churn, log, ops=WARMUP_OPS)
            first = len(log.requests)
            procs_before = len(process_tree(proc.pid))
            settle_disk()
            t0 = time.perf_counter()
            drive(client, churn, log, until=t0 + seconds, latencies=lat)
            elapsed = time.perf_counter() - t0
            timed = len(log.requests) - first
            tree = process_tree(proc.pid)
            rss = peak_rss_mb(tree)
            stats = client.check("stats")
            report = client.request("report")
            _shutdown(proc, client)
        finally:
            for p in procs:
                if p.returncode is None:
                    stop_group(p, timeout=0.0)
    engine = gate("dense_churn", TOPOLOGY, hello["default_analysis"],
                  log.requests, log.served, report)
    return {
        "hello": hello,
        "attempted": len(log.requests),
        "failed": log.failed,
        "metrics": {
            "ops_per_s": timed / elapsed,
            "admit_p50_ms": lat.ms("admit", 0.50),
            "setup_s": median(setups),
            "peak_rss_mb": rss,
        },
        "detail": {
            "admit_p99_ms": lat.ms("admit", 0.99),
            "release_p99_ms": lat.ms("release", 0.99),
            "error_rate": log.failed / len(log.requests),
            "samples": {k: lat.count(k) for k in ("admit", "release")},
            "timed_ops": timed,
            "seconds": elapsed,
            "setup_samples_s": setups,
            "pipeline_depth": DEPTH,
            "processes": {"window_start": procs_before,
                          "window_end": len(tree)},
            "live_at_end": len(churn.live),
            "server_batching": stats["service"]["batching"],
            "engine": engine,
        },
    }


def run_traced(seed: int, seconds: float) -> Dict[str, Any]:
    """The same deployment in process: the broker's loop on a background
    thread, the client on this one. The first half of the window runs
    bare, the second with every layer wrapped."""
    from repro.service.loadgen import BrokerClient
    from repro.service.server import BrokerServer

    tracer = Tracer()
    with run_dir("dense_churn-trace") as d:
        loop = LoopThread()
        server = BrokerServer(TOPOLOGY, state_dir=d / "state")
        serving = None
        client = None
        try:
            sock = d / "broker.sock"
            loop.run(server.start_unix(str(sock)))
            serving = loop.submit(server.serve_forever())
            client = BrokerClient(socket_path=sock, timeout=120.0)
            hello = client.check("hello")
            churn, log = Churn(seed), OpLog()
            drive(client, churn, log, ops=WARMUP_OPS)
            settle_disk()
            plain = Latencies()
            drive(client, churn, log, until=time.perf_counter() + seconds / 2,
                  latencies=plain)
            before = client.check("stats")
            install_service_layers(tracer)
            traced, roots = Latencies(), {}
            t0 = time.perf_counter()
            drive(client, churn, log, until=t0 + seconds / 2,
                  latencies=traced, roots=roots)
            window = time.perf_counter() - t0
            tracer.uninstall()
            after = client.check("stats")
            report = client.request("report")
            client.request("shutdown")
            serving.result(60.0)
        finally:
            tracer.uninstall()
            if client is not None:
                client.close()
            if serving is not None and not serving.done():
                loop.loop.call_soon_threadsafe(server.request_shutdown)
                serving.result(60.0)
            loop.close()
    gate("dense_churn", TOPOLOGY, hello["default_analysis"],
         log.requests, log.served, report)
    acc = account(tracer, roots, front="server")
    b0 = before["service"]["batching"]
    b1 = after["service"]["batching"]
    counters = engine_counters(before["engine"], after["engine"])
    counters["server.batch_mean"] = (
        (b1["requests"] - b0["requests"]) / (b1["batches"] - b0["batches"])
    )
    metrics, detail = per_layer(
        tracer, acc, window=window,
        overhead=traced.mean_all() / plain.mean_all(), counters=counters,
    )
    return {
        "hello": hello,
        "attempted": len(log.requests),
        "failed": log.failed,
        "metrics": metrics,
        "detail": detail,
    }
