"""Correctness gate for the service workloads.

The requests a run sent are replayed, untimed, through an in-process
:class:`~repro.service.host.EngineHost` under the backend the served
program reported as its default. Every served response must equal the
reference response (admitted flag, ids, bounds, closures, evictions:
the whole object except the echoed request ``id``), and the final
``report`` fetched over the wire must equal both the reference's report
and a from-scratch :class:`~repro.core.feasibility.FeasibilityAnalyzer`
report over the same admitted set.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from .common import GateError


def _canonical(response: Dict[str, Any]) -> Dict[str, Any]:
    """The response as it reads after a JSON round trip, minus its id."""
    out = json.loads(json.dumps(response))
    out.pop("id", None)
    return out


def replay(
    topology_spec: Dict[str, Any],
    analysis: str,
    requests: Sequence[Dict[str, Any]],
    *,
    state_dir: Optional[Path] = None,
):
    """Run ``requests`` through a fresh reference host; returns
    ``(host, responses)``. The caller closes the host."""
    from repro.service.host import EngineHost

    host = EngineHost(topology_spec, state_dir=state_dir, analysis=analysis)
    try:
        responses = [host.handle_request(dict(r)) for r in requests]
    except BaseException:
        host.close()
        raise
    return host, responses


def check_responses(
    label: str,
    requests: Sequence[Dict[str, Any]],
    served: Sequence[Optional[Dict[str, Any]]],
    reference: Sequence[Dict[str, Any]],
) -> None:
    if len(served) != len(requests) or len(reference) != len(requests):
        raise GateError(
            f"{label}: {len(requests)} requests, {len(served)} served "
            f"responses, {len(reference)} reference responses"
        )
    for i, (request, got, want) in enumerate(
            zip(requests, served, reference)):
        if got is None:
            raise GateError(f"{label}: op {i} ({request['op']}) unanswered")
        if not got.get("ok"):
            raise GateError(
                f"{label}: op {i} ({request['op']}) failed: "
                f"{got.get('error')}"
            )
        if _canonical(got) != _canonical(want):
            raise GateError(
                f"{label}: op {i} ({request['op']}) differs from the "
                f"reference: served {_canonical(got)} != reference "
                f"{_canonical(want)}"
            )


def scratch_report(host) -> Dict[str, Any]:
    """Report of a from-scratch analyzer over the host's admitted set,
    on the routing the host currently uses (degraded by failed links)."""
    from repro.core import backends
    from repro.core.streams import StreamSet
    from repro.io import report_to_spec

    engine = host.engine
    analyzer = backends.get(engine.default_analysis).analyzer(
        StreamSet(engine.admitted), engine.routing
    )
    return _canonical(report_to_spec(analyzer.determine_feasibility()))


def check_final_report(label: str, wire: Dict[str, Any], host) -> None:
    if not wire.get("ok"):
        raise GateError(f"{label}: final report failed: {wire.get('error')}")
    reference = _canonical(host.handle_request({"op": "report"}))
    served = _canonical(wire)
    if served != reference:
        raise GateError(f"{label}: served report differs from the reference")
    if served["report"] != scratch_report(host):
        raise GateError(
            f"{label}: report differs from a from-scratch analysis"
        )


def gate(
    label: str,
    topology_spec: Dict[str, Any],
    analysis: str,
    requests: List[Dict[str, Any]],
    served: List[Optional[Dict[str, Any]]],
    final_report: Dict[str, Any],
    *,
    state_dir: Optional[Path] = None,
) -> Dict[str, Any]:
    """Replay, compare and return the reference host's engine stats."""
    host, reference = replay(topology_spec, analysis, requests,
                             state_dir=state_dir)
    try:
        check_responses(label, requests, served, reference)
        check_final_report(label, final_report, host)
        return host.engine_stats()
    finally:
        host.close()
