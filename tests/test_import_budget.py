"""Import budget of the serving processes.

``repro serve``, ``repro gateway`` and the fleet workers never build a
dense timing-diagram mask or a networkx graph, so they must start — and
keep serving — without loading numpy or networkx (together more than
half of a cold ``import repro.cli``). Each check runs in a fresh
interpreter: the test process itself has long imported both.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

HEAVY = ("numpy", "networkx")

CHURN = """
import random

from repro.service.host import EngineHost
from repro.service.loadgen import churn_spec

rng = random.Random(7)
host = EngineHost({"type": "mesh", "width": 6, "height": 6})
links = [[u, v] for u, v in host.topology.channels() if u < v]
live, down = [], []
for step in range(240):
    roll = rng.random()
    if roll < 0.05 and len(down) < 3:
        link = rng.choice([l for l in links if l not in down])
        down.append(link)
        request = {"op": "fail_link", "link": link}
    elif roll < 0.10 and down:
        request = {"op": "restore_link",
                   "link": down.pop(rng.randrange(len(down)))}
    elif roll < 0.15 and live:
        request = {"op": "query", "stream": rng.choice(live)}
    elif roll < 0.18:
        request = {"op": "report"}
    elif live and (len(live) > 25 or roll < 0.45):
        request = {"op": "release",
                   "ids": [live.pop(rng.randrange(len(live)))]}
    else:
        request = {"op": "admit",
                   "streams": [churn_spec(rng, host.topology.num_nodes)]}
    response = host.handle_request(request)
    assert response["ok"], response
    if request["op"] == "admit" and response["admitted"]:
        live.extend(response["ids"])
    # A failed link can evict rerouted streams from the live set.
    live = [sid for sid in live if sid in host.engine.admitted]
assert host.engine.stats.verdicts_recomputed > 0
host.close()
"""


def loaded_heavy_modules(code: str) -> list:
    """Run ``code`` in a fresh interpreter; return the heavy modules it
    left in ``sys.modules``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    # Tracing deliberately builds the real BDG (networkx); the budget
    # is for the untraced serving path.
    env.pop("REPRO_TRACE", None)
    probe = textwrap.dedent(code) + textwrap.dedent(f"""
        import sys
        print(",".join(m for m in {HEAVY!r} if m in sys.modules))
    """)
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return [m for m in out.stdout.strip().split(",") if m]


@pytest.mark.parametrize("module", [
    "repro.cli",
    "repro.service.server",
    "repro.fleet.gateway",
    "repro.fleet.workers",
])
def test_serving_module_imports_leave_heavy_deps_unloaded(module):
    assert loaded_heavy_modules(f"import {module}") == []


def test_engine_host_churn_leaves_heavy_deps_unloaded():
    """A seeded admit/release/fail_link/restore_link/query/report churn
    runs every serving op without touching numpy or networkx."""
    assert loaded_heavy_modules(CHURN) == []


def test_probe_detects_a_heavy_import():
    """The probe itself is live: a plain numpy import is reported."""
    assert loaded_heavy_modules("import numpy") == ["numpy"]
