"""Literal (slow) reference implementations: test oracles only.

``generate_init_diagram_reference`` transcribes ``Generate_Init_Diagram``
cell by cell, exactly as printed in section 4.3: scan each instance's
window slot by slot, allocate free slots until the demand is met, mark
skipped busy slots WAITING, propagate BUSY downwards. It is O(rows x
dtime) Python and exists purely as a test oracle for the interval
production implementation (`repro.core.timing_diagram`), which replaces
the scan with one request run per window over the free gaps above.
``fill_masks_scan`` is the same scan for one row against a busy mask,
the oracle of `repro.core.timing_diagram.fill_masks`; ``scan_diagram``
and ``modify_scan_reference`` stack it into whole diagrams, with the
removed windows, erased slots, both ``Modify_Diagram`` granularities and
the fixpoint sweep (`tests/test_interval_diagram.py`).

The equivalence test (`tests/test_reference_equivalence.py`) drives both
over hypothesis-generated stream sets and requires bit-identical cell
states.

``ReferenceAdmission`` is the from-scratch oracle of the incremental
admission engine (`repro.service.engine`): every op reruns the whole
analysis with fresh analyzers, no caches and no deltas.
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.core import backends
from repro.core.admission import AdmissionDecision
from repro.core.bdg import indirect_processing_order
from repro.core.feasibility import FeasibilityReport
from repro.core.hpset import HPSet, build_all_hp_sets
from repro.core.streams import MessageStream, StreamSet
from repro.core.timing_diagram import CellState

__all__ = [
    "ReferenceAdmission",
    "fill_masks_scan",
    "generate_init_diagram_reference",
    "modify_diagram_reference",
    "modify_scan_reference",
    "scan_diagram",
]


def generate_init_diagram_reference(
    row_streams: Sequence[MessageStream],
    dtime: int,
    removed: Optional[Mapping[int, Set[int]]] = None,
) -> np.ndarray:
    """Return the dense state grid (rows + result row, 1-based slots).

    Mirrors ``TimingDiagram.to_grid()``'s layout: shape
    ``(len(rows) + 1, dtime + 1)``, column 0 unused (FREE).
    """
    removed = removed or {}
    n = len(row_streams)
    grid = np.full((n + 1, dtime + 1), int(CellState.FREE), dtype=np.int8)

    for mi, stream in enumerate(row_streams):
        period, length = stream.period, stream.length
        skip = removed.get(stream.stream_id, set())
        index = 0
        release = 0
        while release < dtime:
            if index not in skip:
                alloctime = 0
                # FOR l = 1 TO T: scan the instance's own window.
                for l in range(1, period + 1):
                    t = release + l
                    if t > dtime:
                        break
                    if grid[mi][t] == CellState.FREE:
                        alloctime += 1
                        grid[mi][t] = CellState.ALLOCATED
                        # Rows below (and the result row) become BUSY.
                        for r in range(mi + 1, n + 1):
                            grid[r][t] = CellState.BUSY
                    elif grid[mi][t] == CellState.BUSY:
                        grid[mi][t] = CellState.WAITING
                    if alloctime == length:
                        break
            release += period
            index += 1
    return grid


def _grid_upper_bound(grid: np.ndarray, latency: int, dtime: int) -> int:
    """Cal_U's final scan on a reference grid."""
    free = 0
    for t in range(1, dtime + 1):
        if grid[-1][t] == CellState.FREE:
            free += 1
            if free == latency:
                return t
    return -1


def modify_diagram_reference(
    owner: MessageStream,
    hp: HPSet,
    streams: StreamSet,
    blockers,
    dtime: int,
) -> Tuple[np.ndarray, Dict[int, Set[int]]]:
    """Literal Modify_Diagram: per-slot release checks on reference grids.

    Walks indirect elements in the production code's BFS order, but
    evaluates everything on grids produced by
    :func:`generate_init_diagram_reference`; an instance is released when
    every slot it occupies (ALLOCATED or WAITING on its row) has every
    intermediate row FREE or BUSY, after which the grid is regenerated
    from scratch.
    """
    rows = tuple(sorted(
        (streams[e.stream_id] for e in hp
         if e.stream_id != owner.stream_id),
        key=lambda s: (-s.priority, s.stream_id),
    ))
    row_of = {s.stream_id: i for i, s in enumerate(rows)}
    removed: Dict[int, Set[int]] = {}
    grid = generate_init_diagram_reference(rows, dtime, removed)

    def occupied_slots(grid, sid, index):
        stream = streams[sid]
        mi = row_of[sid]
        lo = index * stream.period + 1
        hi = min((index + 1) * stream.period, dtime)
        return [
            t for t in range(lo, hi + 1)
            if grid[mi][t] in (CellState.ALLOCATED, CellState.WAITING)
        ]

    order = indirect_processing_order(hp, blockers, streams)
    for k in order:
        entry = hp[k]
        inter_rows = [row_of[r] for r in sorted(entry.intermediates)]
        stream_k = streams[k]
        n_inst = (dtime + stream_k.period - 1) // stream_k.period
        changed = False
        for index in range(n_inst):
            if index in removed.get(k, set()):
                continue
            slots = occupied_slots(grid, k, index)
            if not slots:
                continue
            releasable = all(
                grid[r][t] in (CellState.FREE, CellState.BUSY)
                for t in slots
                for r in inter_rows
            )
            if releasable:
                removed.setdefault(k, set()).add(index)
                changed = True
        if changed:
            grid = generate_init_diagram_reference(rows, dtime, removed)
    return grid, removed


def fill_masks_scan(
    busy: np.ndarray,
    period: int,
    length: int,
    nwin: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """The paper's literal scan for one row: walk each window, claim the
    first ``C`` free slots, mark skipped busy slots WAITING while
    unsatisfied. Returns dense ``(alloc, wait)`` masks."""
    n = busy.shape[0]
    alloc = np.zeros(n, np.bool_)
    wait = np.zeros(n, np.bool_)
    for w in range(nwin):
        lo = w * period + 1
        hi = min((w + 1) * period, n - 1)
        got = 0
        for t in range(lo, hi + 1):
            if busy[t]:
                if got < length:
                    wait[t] = True
            elif got < length:
                alloc[t] = True
                got += 1
    return alloc, wait


def scan_diagram(
    row_streams: Sequence[MessageStream],
    dtime: int,
    removed: Optional[Mapping[int, Set[int]]] = None,
    erased: Optional[Mapping[int, Set[int]]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Whole diagram as dense ``(rows, dtime + 1)`` ``(alloc, wait)``
    masks: :func:`fill_masks_scan` row by row against the union of the
    allocations above, then blank the row's ``removed`` windows and its
    ``erased`` slots (erased demand does not shift)."""
    removed = removed or {}
    erased = erased or {}
    n = len(row_streams)
    alloc = np.zeros((n, dtime + 1), np.bool_)
    wait = np.zeros((n, dtime + 1), np.bool_)
    busy = np.zeros(dtime + 1, np.bool_)
    for row, stream in enumerate(row_streams):
        period = stream.period
        nwin = (dtime + period - 1) // period
        a, w = fill_masks_scan(busy.copy(), period, stream.length, nwin)
        for index in removed.get(stream.stream_id, ()):
            a[index * period + 1:(index + 1) * period + 1] = False
            w[index * period + 1:(index + 1) * period + 1] = False
        for t in erased.get(stream.stream_id, ()):
            if 1 <= t <= dtime:
                a[t] = w[t] = False
        alloc[row], wait[row] = a, w
        busy |= a
    return alloc, wait


def modify_scan_reference(
    owner: MessageStream,
    hp: HPSet,
    streams: StreamSet,
    blockers,
    dtime: int,
    *,
    granularity: str = "instance",
    fixpoint: bool = False,
    max_passes: int = 16,
    initial_removed: Optional[Mapping[int, Set[int]]] = None,
) -> Tuple[np.ndarray, np.ndarray, Dict[int, Set[int]]]:
    """``Modify_Diagram`` on :func:`scan_diagram` masks, both
    granularities, with or without the fixpoint sweep.

    Instance granularity releases a window of an indirect element when
    none of its occupied slots is requested (ALLOCATED or WAITING) by an
    intermediate; slot granularity erases each such slot. The diagram is
    rebuilt from scratch after every element that released something.
    Returns ``(alloc, wait, removed)``.
    """
    rows = tuple(sorted(
        (streams[e.stream_id] for e in hp
         if e.stream_id != owner.stream_id),
        key=lambda s: (-s.priority, s.stream_id),
    ))
    row_of = {s.stream_id: i for i, s in enumerate(rows)}
    removed: Dict[int, Set[int]] = {
        k: set(v) for k, v in (initial_removed or {}).items() if v
    }

    def build():
        if granularity == "instance":
            return scan_diagram(rows, dtime, removed=removed)
        return scan_diagram(rows, dtime, erased=removed)

    alloc, wait = build()
    order = indirect_processing_order(hp, blockers, streams)
    for _ in range(max_passes if fixpoint else 1):
        changed = False
        for k in order:
            occ = alloc[row_of[k]] | wait[row_of[k]]
            req = np.zeros(dtime + 1, np.bool_)
            for r in hp[k].intermediates:
                req |= alloc[row_of[r]] | wait[row_of[r]]
            if granularity == "instance":
                period = streams[k].period
                new = {(t - 1) // period for t in np.flatnonzero(occ)} - {
                    (t - 1) // period for t in np.flatnonzero(occ & req)
                }
            else:
                new = set(np.flatnonzero(occ & ~req).tolist())
            fresh = {int(x) for x in new} - removed.get(k, set())
            if fresh:
                removed.setdefault(k, set()).update(fresh)
                alloc, wait = build()
                changed = True
        if not changed:
            break
    return alloc, wait, removed


class ReferenceAdmission:
    """From-scratch admission: the oracle of the incremental engine.

    Same ``try_admit`` / ``release`` / ``current_report`` / ``admitted``
    surface as :class:`~repro.service.engine.IncrementalAdmissionEngine`.
    Every op runs fresh :class:`~repro.core.feasibility.FeasibilityAnalyzer`
    s over the whole trial set on the current ``routing``: one analyzer
    per (bound backend, residency margin) group, each over the full
    union, each deciding only its own group's streams.
    """

    def __init__(
        self,
        routing,
        *,
        residency_margin: int = 0,
        analysis: Optional[str] = None,
    ):
        self.routing = routing
        self.residency_margin = residency_margin
        self.default_analysis = backends.resolve_name(analysis)
        self.admitted = StreamSet()
        #: sid -> (backend name, residency margin) it is vetted under.
        self._group: Dict[int, Tuple[str, int]] = {}

    def current_report(self) -> FeasibilityReport:
        return self._report(self.admitted, self._group)

    def closures(self) -> Dict[int, Tuple[int, ...]]:
        """Every admitted stream's HP closure, from fresh HP sets."""
        hp_sets = build_all_hp_sets(StreamSet(self.admitted), self.routing)
        return {sid: hp.ids() for sid, hp in hp_sets.items()}

    def try_admit(
        self,
        requests: Union[MessageStream, Iterable[MessageStream]],
        *,
        analysis: Optional[str] = None,
        residency_margin: Optional[int] = None,
    ) -> AdmissionDecision:
        if isinstance(requests, MessageStream):
            requests = (requests,)
        group = (
            backends.resolve_name(analysis or self.default_analysis),
            self.residency_margin if residency_margin is None
            else residency_margin,
        )
        trial = StreamSet(self.admitted)
        groups = dict(self._group)
        for r in requests:
            trial.add(r)
            groups[r.stream_id] = group
        report = self._report(trial, groups)
        if not report.success:
            return AdmissionDecision(False, report, report.infeasible_ids())
        self.admitted, self._group = trial, groups
        return AdmissionDecision(True, report, ())

    def release(self, stream_ids: Union[int, Iterable[int]]) -> None:
        if isinstance(stream_ids, int):
            stream_ids = (stream_ids,)
        for sid in stream_ids:
            self.admitted.remove(sid)
            del self._group[sid]

    def _report(
        self, streams: StreamSet, group: Dict[int, Tuple[str, int]]
    ) -> FeasibilityReport:
        if len(streams) == 0:
            return FeasibilityReport.trivial()
        members: Dict[Tuple[str, int], List[int]] = {}
        for sid in streams.ids():
            members.setdefault(group[sid], []).append(sid)
        verdicts = {}
        for (name, margin), ids in sorted(members.items()):
            analyzer = backends.get(name).analyzer(
                StreamSet(streams), self.routing, residency_margin=margin
            )
            for sid in ids:
                verdicts[sid] = analyzer.cal_u(sid)
        # determine_feasibility's order, so report specs compare equal.
        ordered = {
            s.stream_id: verdicts[s.stream_id]
            for s in analyzer.streams.sorted_by_priority()
        }
        return FeasibilityReport(
            verdicts=ordered,
            success=all(v.feasible for v in ordered.values()),
        )
