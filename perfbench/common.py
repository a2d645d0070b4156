"""Shared plumbing: paths, clean environments, child processes, statistics.

Everything the benchmark writes goes under ``.bench_run/`` at the root of
the checkout and is deleted when the run ends.
"""

from __future__ import annotations

import json
import math
import os
import platform
import select
import shutil
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_ROOT = ROOT / ".bench_run"


class GateError(Exception):
    """A correctness check failed: the run records no numbers."""


def drop_repro_env(env: Dict[str, str]) -> Dict[str, str]:
    """``env`` without any ``REPRO_*`` knob, so every layer runs with its
    production defaults."""
    return {k: v for k, v in env.items() if not k.startswith("REPRO_")}


def child_env() -> Dict[str, str]:
    env = drop_repro_env(dict(os.environ))
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


@contextmanager
def run_dir(tag: str) -> Iterator[Path]:
    """A fresh scratch directory for one run, removed afterwards.

    Returned relative to the checkout root (the working directory of the
    benchmark and of every child): unix-socket paths must stay under the
    108-byte ``sun_path`` limit however deep the checkout sits.
    """
    path = RUN_ROOT / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path.relative_to(ROOT)
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            RUN_ROOT.rmdir()
        except OSError:
            pass


def spawn_repro(args: Sequence[str], log: Path, *,
                stdout_pipe: bool = False) -> subprocess.Popen:
    """Start ``python -m repro <args>`` in its own process group."""
    with open(log, "ab") as fh:
        return subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE if stdout_pipe else fh,
            stderr=fh,
            start_new_session=True,
        )


def read_line(proc: subprocess.Popen, timeout: float) -> str:
    """One line of the child's piped stdout, or raise after ``timeout``."""
    assert proc.stdout is not None
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    if not ready:
        raise RuntimeError(f"no output from pid {proc.pid} in {timeout}s")
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"pid {proc.pid} exited (code {proc.wait()})")
    return line.decode("utf-8", errors="replace")


def _proc_table() -> Dict[int, tuple]:
    """pid -> (ppid, pgrp) for every live process (zombies left out:
    they have exited, only their parent has not collected them)."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read().decode("utf-8", errors="replace")
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        if fields[0] != "Z":
            table[int(entry)] = (int(fields[1]), int(fields[2]))
    return table


def process_tree(root: int) -> List[int]:
    """``root`` and all of its descendants."""
    children: Dict[int, List[int]] = {}
    for pid, (ppid, _) in _proc_table().items():
        children.setdefault(ppid, []).append(pid)
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Sum of ``VmHWM`` (peak resident set) over ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def stop_group(proc: subprocess.Popen, timeout: float = 20.0) -> None:
    """Wait for ``proc`` to exit, then make sure its whole process group
    (workers, verdict-pool children) is gone before returning."""
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        pass
    pgid = proc.pid
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        if not any(pg == pgid for _, pg in _proc_table().values()):
            return
        time.sleep(0.02)
    raise RuntimeError(f"process group {pgid} outlived SIGKILL")


def wait_gone(pids: Sequence[int], timeout: float = 20.0) -> None:
    """Wait until none of ``pids`` runs any more; SIGKILL stragglers."""
    pending = set(pids)
    for grace in (timeout, 10.0):
        deadline = time.monotonic() + grace
        while True:
            pending &= set(_proc_table())
            if not pending:
                return
            if time.monotonic() > deadline:
                break
            time.sleep(0.02)
        for pid in pending:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    raise RuntimeError(f"processes {sorted(pending)} outlived SIGKILL")


def settle_disk() -> None:
    """Write back everything the set-up left dirty (state directories,
    the previous run's deleted files), so the window's fsyncs commit only
    their own journal records."""
    os.sync()


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in (0, 1])."""
    if not values:
        raise ValueError("quantile of no samples")
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def fingerprint() -> Dict[str, object]:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def emit(obj: Dict[str, object]) -> None:
    print(json.dumps(obj, sort_keys=True), flush=True)
