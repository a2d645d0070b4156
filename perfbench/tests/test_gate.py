"""The correctness gate must refuse a run whose answers differ from the
reference by a single verdict.

Run from the root of the checkout:

    python3 -m pytest perfbench/tests -q
"""

import copy
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench.common import GateError  # noqa: E402
from perfbench.gate import (  # noqa: E402
    check_final_report,
    check_responses,
    replay,
)
from repro.service.loadgen import churn_spec  # noqa: E402

TOPOLOGY = {"type": "mesh", "width": 4, "height": 4}


@pytest.fixture()
def served():
    """A short churn log answered by one host, as if served over the
    wire, plus that host's final report."""
    rng = random.Random(7)
    requests, live = [], []
    host, _ = replay(TOPOLOGY, "kim98", [])
    responses = []
    try:
        for i in range(40):
            if live and rng.random() < 0.3:
                request = {"op": "release", "ids": [live.pop(0)], "id": i}
            else:
                request = {"op": "admit", "id": i,
                           "streams": [churn_spec(rng, 16)]}
            response = host.handle_request(dict(request))
            if request["op"] == "admit" and response["admitted"]:
                live.extend(response["ids"])
            requests.append(request)
            responses.append(response)
        report = host.handle_request({"op": "report", "id": 99})
    finally:
        host.close()
    assert any(r.get("admitted") for r in responses)
    return requests, responses, report


def test_matching_run_passes(served):
    requests, responses, report = served
    host, reference = replay(TOPOLOGY, "kim98", requests)
    try:
        check_responses("t", requests, responses, reference)
        check_final_report("t", report, host)
    finally:
        host.close()


def test_one_flipped_admit_verdict_fails(served):
    requests, responses, _ = served
    host, reference = replay(TOPOLOGY, "kim98", requests)
    host.close()
    index = next(i for i, r in enumerate(reference) if "admitted" in r)
    reference[index] = dict(reference[index],
                            admitted=not reference[index]["admitted"])
    with pytest.raises(GateError, match=f"op {index} "):
        check_responses("t", requests, responses, reference)


def test_one_flipped_report_verdict_fails(served):
    requests, _, report = served
    flipped = copy.deepcopy(report)
    sid = next(iter(flipped["report"]["streams"]))
    stream = flipped["report"]["streams"][sid]
    stream["feasible"] = not stream["feasible"]
    host, _ = replay(TOPOLOGY, "kim98", requests)
    try:
        with pytest.raises(GateError, match="differs from the reference"):
            check_final_report("t", flipped, host)
    finally:
        host.close()


def test_failed_or_missing_answer_fails(served):
    requests, responses, _ = served
    host, reference = replay(TOPOLOGY, "kim98", requests)
    host.close()
    errored = list(responses)
    errored[3] = {"ok": False, "error": "boom", "id": 3}
    with pytest.raises(GateError, match="failed: boom"):
        check_responses("t", requests, errored, reference)
    missing = list(responses)
    missing[5] = None
    with pytest.raises(GateError, match="unanswered"):
        check_responses("t", requests, missing, reference)
