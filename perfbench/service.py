"""Helpers shared by the two service workloads.

Timed runs start the system under test as a subprocess (``repro serve``,
``repro gateway``) exactly as a user would. Traced runs build the same
deployment in this process, with its asyncio loop on one background
thread, so the tracer's wrappers reach every layer.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .common import quantile


@dataclass
class OpLog:
    """Every request a run sent (with the id it carried) and the
    response it got, in send order."""

    requests: List[Dict[str, Any]] = field(default_factory=list)
    served: List[Optional[Dict[str, Any]]] = field(default_factory=list)

    def add(self, request: Dict[str, Any]) -> int:
        self.requests.append(request)
        self.served.append(None)
        return len(self.requests) - 1

    @property
    def failed(self) -> int:
        return sum(1 for r in self.served if r is None or not r.get("ok"))


class Latencies:
    """Per-op-kind latency samples, in seconds."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = defaultdict(list)

    def add(self, kind: str, seconds: float) -> None:
        self.samples[kind].append(seconds)

    def ms(self, kind: str, q: float) -> Optional[float]:
        values = self.samples.get(kind)
        return quantile(values, q) * 1000.0 if values else None

    def count(self, kind: str) -> int:
        return len(self.samples.get(kind, ()))

    def mean_all(self) -> float:
        values = [v for vs in self.samples.values() for v in vs]
        return sum(values) / len(values)


class LoopThread:
    """An asyncio loop running on one background thread."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       name="bench-loop", daemon=True)
        self.thread.start()

    def submit(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self.loop)

    def run(self, coro, timeout: float = 120.0):
        return self.submit(coro).result(timeout)

    def close(self) -> None:
        """Cancel whatever still runs on the loop (connection handlers
        parked on a read), then stop the loop and its thread."""

        async def cancel_rest() -> None:
            me = asyncio.current_task()
            rest = [t for t in asyncio.all_tasks() if t is not me]
            for task in rest:
                task.cancel()
            await asyncio.gather(*rest, return_exceptions=True)

        self.run(cancel_rest(), timeout=30.0)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30.0)
        if not self.loop.is_running():
            self.loop.close()


def wait_until(predicate, timeout: float, what: str) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise RuntimeError(f"{what} did not happen within {timeout}s")
        time.sleep(0.002)
