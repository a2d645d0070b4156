"""Worst-case timing diagrams (the paper's ``Generate_Init_Diagram``).

The delay upper bound of a stream ``M_j`` is computed on a two-dimensional
*timing diagram*: one row per HP-set element (sorted by non-increasing
priority), one column per time slot ``1 .. dtime``, plus a final *result*
row. Cells take the paper's four states:

``FREE``
    nobody above uses the slot;
``BUSY``
    a higher-priority row allocated the slot (propagated downward);
``WAITING``
    the row's stream wanted the slot but it was busy (preempted state);
``ALLOCATED``
    the row's stream transmits during the slot.

All streams are released simultaneously at time 0 (the critical instant) and
every instance ``i`` of a stream with period ``T`` may only use slots inside
its own window ``(i*T, (i+1)*T]``; within the window it claims the first
``C`` free slots, marking busy slots it had to skip as WAITING until its
demand is met. Slots allocated by a row render every lower row (including
the result row) BUSY. ``U_j`` is then the earliest time by which the FREE
slots of the result row accumulate to the network latency ``L_j``
(``Cal_U``'s final scan).

This module stores the diagram as intervals, never as per-slot cells.
Within one window ``(s, e]`` the cells a row marks ALLOCATED or WAITING
form a single run ``(s, p]``: ``p`` is the window's ``C``-th free slot,
or ``e`` when the window runs out of free slots first — every earlier
slot is either free (so allocated, rank ``<= C``) or busy (so waiting,
rank ``< C``). A row is therefore one *request* run per unskipped window
(split where slot-granular ``Modify_Diagram`` erased slots), and the
busy-from-above state is the sorted list of free *gaps* that row sees.
Filling a row walks its windows over the gaps above it — O(windows +
gaps), independent of the horizon's slot count — and leaves the gaps
minus its requests for the row below. Every row's gap list is kept, so
:func:`refill_rows` restarts from any row, and ``Cal_U`` walks the final
gap list. The dense per-slot views (``allocated``, ``waiting``,
:meth:`TimingDiagram.to_grid`, instance records) are built from the
intervals on demand, for provenance, rendering and tests.

Hand-validated against the paper: the initial diagram of ``HP_4`` in section
4.4 yields exactly 7 free slots within the deadline (Fig. 7), and the final
diagrams reproduce ``U = (7, 8, 26, 20, 33)`` — see ``tests/test_paper_example.py``.
"""

from __future__ import annotations

from collections.abc import Mapping as _MappingABC
from dataclasses import dataclass
from enum import IntEnum
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import AnalysisError
from ..obs.trace import active as _trace_active
from .streams import MessageStream

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CellState",
    "InstanceAllocation",
    "TimingDiagram",
    "fill_masks",
    "generate_init_diagram",
    "refill_rows",
]

#: Ascending, disjoint, inclusive slot runs ``(lo, hi)``.
Runs = List[Tuple[int, int]]

_NO_SKIP: AbstractSet[int] = frozenset()


class CellState(IntEnum):
    """Cell states of the timing diagram (paper section 4.2)."""

    FREE = 0
    BUSY = 1
    WAITING = 2
    ALLOCATED = 3


@dataclass(frozen=True)
class InstanceAllocation:
    """Slots claimed by one message instance of one stream row.

    ``allocated`` and ``waiting`` are ascending slot indices (1-based);
    ``satisfied`` is ``False`` when the window closed before the instance
    collected its full ``C`` slots (demand overflow — the paper inflates the
    period in that case, see :func:`repro.analysis.experiments.inflate_periods`).
    """

    stream_id: int
    index: int
    release: int
    allocated: Tuple[int, ...]
    waiting: Tuple[int, ...]
    satisfied: bool

    def occupied(self) -> Tuple[int, ...]:
        """Return all slots the instance touches (allocated + waiting)."""
        return tuple(sorted(self.allocated + self.waiting))


def _intersect(xs: Runs, ys: Runs) -> Runs:
    """Return the runs common to two run lists."""
    out: Runs = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        lo = max(xs[i][0], ys[j][0])
        hi = min(xs[i][1], ys[j][1])
        if lo <= hi:
            out.append((lo, hi))
        if xs[i][1] < ys[j][1]:
            i += 1
        else:
            j += 1
    return out


def _subtract(xs: Runs, ys: Runs) -> Runs:
    """Return the runs of ``xs`` not covered by ``ys`` (sorted by start,
    possibly overlapping)."""
    out: Runs = []
    j, ny = 0, len(ys)
    for a, b in xs:
        while j < ny and ys[j][1] < a:
            j += 1
        k = j
        while k < ny and ys[k][0] <= b:
            lo, hi = ys[k]
            if lo > a:
                out.append((a, lo - 1))
            if hi >= a:
                a = hi + 1
            if a > b:
                break
            k += 1
        if a <= b:
            out.append((a, b))
    return out


def _slots(runs: Runs) -> Tuple[int, ...]:
    """Expand runs into their ascending slot indices."""
    return tuple(t for lo, hi in runs for t in range(lo, hi + 1))


class _InstanceView(_MappingABC):
    """Read-only ``stream_id -> [InstanceAllocation]`` view of a diagram.

    The records are derived data — fully determined by the row's request
    runs, the gaps above it and its skip set — and only tests, rendering
    and user code read them, while ``refill_rows`` rewrites rows on every
    compaction pass. They are built lazily, one stream on first access.
    """

    __slots__ = ("_diagram",)

    def __init__(self, diagram: "TimingDiagram"):
        self._diagram = diagram

    def __getitem__(self, stream_id: int) -> List["InstanceAllocation"]:
        return self._diagram._records_for(stream_id)

    def __iter__(self) -> Iterator[int]:
        return iter(s.stream_id for s in self._diagram.row_streams)

    def __len__(self) -> int:
        return len(self._diagram.row_streams)


class TimingDiagram:
    """A populated timing diagram for one analysed stream.

    Rows appear in non-increasing priority order; the implicit result row is
    the complement of the union of all allocations. Construction goes
    through :func:`generate_init_diagram`.
    """

    def __init__(
        self,
        owner_id: int,
        row_streams: Sequence[MessageStream],
        dtime: int,
    ):
        if dtime < 1:
            raise AnalysisError(f"dtime must be >= 1, got {dtime}")
        self.owner_id = owner_id
        self.row_streams: Tuple[MessageStream, ...] = tuple(row_streams)
        self.dtime = int(dtime)
        self._row_index: Dict[int, int] = {
            s.stream_id: i for i, s in enumerate(self.row_streams)
        }
        if len(self._row_index) != len(self.row_streams):
            raise AnalysisError("duplicate stream ids among diagram rows")
        n = len(self.row_streams)
        #: _gaps[r]: the slots FREE for row r (nothing above allocated
        #: them); _gaps[n] is the result row's free slots.
        self._gaps: List[Runs] = [[(1, self.dtime)]] * (n + 1)
        #: Per row: the window index and the run of each request.
        self._wins: List[List[int]] = [[] for _ in range(n)]
        self._runs: List[Runs] = [[] for _ in range(n)]
        #: Per row: skipped window indices, or None while unfilled.
        self._skip: List[Optional[AbstractSet[int]]] = [None] * n
        self._dense: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._records: Dict[int, List[InstanceAllocation]] = {}
        #: Lazily-built per-stream instance records (see _InstanceView).
        self.instances: Mapping[int, List[InstanceAllocation]] = (
            _InstanceView(self)
        )

    # ------------------------------------------------------------------ #
    # Row access
    # ------------------------------------------------------------------ #

    @property
    def num_rows(self) -> int:
        """Number of stream rows (the result row is implicit)."""
        return len(self.row_streams)

    def row_of(self, stream_id: int) -> int:
        """Return the row index of ``stream_id``."""
        try:
            return self._row_index[stream_id]
        except KeyError:
            raise AnalysisError(
                f"stream {stream_id} has no row in the diagram of "
                f"stream {self.owner_id}"
            ) from None

    def request_runs(self, row: int) -> List[Tuple[int, int, int]]:
        """Return the row's requests as ``(window, lo, hi)`` triples.

        A slot is *requested* when the row is ALLOCATED or WAITING there —
        the condition ``Modify_Diagram`` evaluates on intermediate streams.
        Runs ascend and never overlap; a window has one run unless erased
        slots split it.
        """
        return [
            (w, lo, hi)
            for w, (lo, hi) in zip(self._wins[row], self._runs[row])
        ]

    def _masks(self) -> Tuple[np.ndarray, np.ndarray]:
        """The dense masks behind :attr:`allocated` / :attr:`waiting`.
        ``Cal_U`` never needs them; tests pin that it never calls this."""
        if self._dense is None:
            import numpy as np

            n = self.num_rows
            alloc = np.zeros((n, self.dtime + 1), dtype=bool)
            wait = np.zeros((n, self.dtime + 1), dtype=bool)
            for row in range(n):
                runs, gaps = self._runs[row], self._gaps[row]
                for lo, hi in _intersect(runs, gaps):
                    alloc[row, lo : hi + 1] = True
                for lo, hi in _subtract(runs, gaps):
                    wait[row, lo : hi + 1] = True
            self._dense = (alloc, wait)
        return self._dense

    @property
    def allocated(self) -> np.ndarray:
        """Dense ``(num_rows, dtime + 1)`` ALLOCATED mask (index 0 unused).

        Built on first access and cached until a row is re-filled;
        treat it as read-only.
        """
        return self._masks()[0]

    @property
    def waiting(self) -> np.ndarray:
        """Dense ``(num_rows, dtime + 1)`` WAITING mask (see
        :attr:`allocated`)."""
        return self._masks()[1]

    def result_busy(self) -> np.ndarray:
        """Return the result row's busy mask (index 0 unused)."""
        import numpy as np

        busy = np.ones(self.dtime + 1, dtype=bool)
        busy[0] = False
        for lo, hi in self._gaps[-1]:
            busy[lo : hi + 1] = False
        return busy

    def state(self, row: int, slot: int) -> CellState:
        """Return the :class:`CellState` of one cell.

        ``row`` may be ``num_rows`` to address the result row, whose cells
        are only ever FREE or BUSY.
        """
        if not 1 <= slot <= self.dtime:
            raise AnalysisError(
                f"slot {slot} outside diagram range [1, {self.dtime}]"
            )
        if not 0 <= row <= self.num_rows:
            raise AnalysisError(f"row {row} out of range")
        free = any(lo <= slot <= hi for lo, hi in self._gaps[row])
        if row < self.num_rows and any(
            lo <= slot <= hi for lo, hi in self._runs[row]
        ):
            return CellState.ALLOCATED if free else CellState.WAITING
        return CellState.FREE if free else CellState.BUSY

    def _records_for(self, stream_id: int) -> List[InstanceAllocation]:
        """Build (or return cached) instance records for one stream row:
        one per unskipped window, its request runs split into the slots
        free above (allocated) and busy above (waiting)."""
        records = self._records.get(stream_id)
        if records is not None:
            return records
        row = self.row_of(stream_id)
        records = []
        skip = self._skip[row]
        if skip is not None:
            stream = self.row_streams[row]
            gaps = self._gaps[row]
            per_window: Dict[int, Runs] = {}
            for w, run in zip(self._wins[row], self._runs[row]):
                per_window.setdefault(w, []).append(run)
            for index in range(-(-self.dtime // stream.period)):
                if index in skip:
                    continue
                runs = per_window.get(index, [])
                alloc = _slots(_intersect(runs, gaps))
                records.append(
                    InstanceAllocation(
                        stream_id=stream_id,
                        index=index,
                        release=index * stream.period,
                        allocated=alloc,
                        waiting=_slots(_subtract(runs, gaps)),
                        satisfied=len(alloc) == stream.length,
                    )
                )
        self._records[stream_id] = records
        return records

    # ------------------------------------------------------------------ #
    # Result-row queries (Cal_U's final scan)
    # ------------------------------------------------------------------ #

    def free_slots(self) -> np.ndarray:
        """Return ascending slot indices that are FREE on the result row."""
        import numpy as np

        return np.array(_slots(self._gaps[-1]), dtype=np.intp)

    def num_free_slots(self) -> int:
        """Return the count of FREE result-row slots (Fig. 7 reports 7)."""
        return sum(hi - lo + 1 for lo, hi in self._gaps[-1])

    def upper_bound(self, latency: int) -> int:
        """Return ``U``: the slot by which ``latency`` free slots accumulate.

        Returns ``-1`` when fewer than ``latency`` free slots exist within
        the diagram horizon (the paper's failure signal).
        """
        if latency < 1:
            raise AnalysisError(f"latency must be >= 1, got {latency}")
        need = latency
        for lo, hi in self._gaps[-1]:
            if hi - lo + 1 >= need:
                return lo + need - 1
            need -= hi - lo + 1
        return -1

    def unsatisfied_instances(self) -> Tuple[InstanceAllocation, ...]:
        """Return instances whose demand did not fit inside their window."""
        return tuple(
            inst
            for lst in self.instances.values()
            for inst in lst
            if not inst.satisfied
        )

    # ------------------------------------------------------------------ #
    # Dense grid (rendering / tests)
    # ------------------------------------------------------------------ #

    def to_grid(self) -> np.ndarray:
        """Materialise the dense ``(num_rows + 1, dtime + 1)`` state grid.

        Row ``num_rows`` is the result row; column 0 is unused (slots are
        1-based). Values are :class:`CellState` integers.
        """
        import numpy as np

        n = self.num_rows
        grid = np.full((n + 1, self.dtime + 1), CellState.BUSY, np.int8)
        for row, gaps in enumerate(self._gaps):
            for lo, hi in gaps:
                grid[row, lo : hi + 1] = CellState.FREE
        alloc, wait = self._masks()
        grid[:n][wait] = CellState.WAITING
        grid[:n][alloc] = CellState.ALLOCATED
        grid[:, 0] = CellState.FREE
        return grid

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TimingDiagram(owner={self.owner_id}, rows="
            f"{[s.stream_id for s in self.row_streams]}, dtime={self.dtime})"
        )


def generate_init_diagram(
    owner_id: int,
    row_streams: Sequence[MessageStream],
    dtime: int,
    *,
    removed: Optional[Mapping[int, AbstractSet[int]]] = None,
    erased_slots: Optional[Mapping[int, AbstractSet[int]]] = None,
) -> TimingDiagram:
    """Populate a timing diagram (the paper's ``Generate_Init_Diagram``).

    Parameters
    ----------
    owner_id:
        Stream whose bound is being computed (not itself a row).
    row_streams:
        HP-set member streams **sorted by non-increasing priority** (ties by
        ascending id); each must have a positive period and length.
    dtime:
        Diagram horizon in slots (the paper uses the owner's deadline).
    removed:
        Optional map ``stream_id -> set of instance indices`` to skip —
        ``Modify_Diagram`` re-generates the diagram with the instances whose
        indirect interference was released removed entirely.
    erased_slots:
        Optional map ``stream_id -> set of absolute slots`` erased from the
        stream's demand (slot-granular release): the stream neither
        allocates nor waits there, and the erased demand does not shift.

    Notes
    -----
    Instance ``i`` of a stream with period ``T`` is released at ``i * T`` and
    may claim slots in ``(i*T, min((i+1)*T, dtime)]`` only; it takes the
    first ``C`` free slots of that window, marking skipped busy slots
    WAITING. Slots it allocates become BUSY for every lower row.
    """
    removed = removed or {}
    # Hot path (re-run on every Cal_U / Modify_Diagram pass): guard the
    # span explicitly so the disabled cost is one call and a None test.
    tr = _trace_active()
    if tr is not None:
        tr.begin(
            "generate_init_diagram", "analysis",
            owner=owner_id, rows=len(row_streams), dtime=int(dtime),
        )
    try:
        diagram = TimingDiagram(owner_id, row_streams, dtime)
        for prev, cur in zip(
            diagram.row_streams[:-1], diagram.row_streams[1:]
        ):
            if (prev.priority, -prev.stream_id) < (
                cur.priority, -cur.stream_id
            ):
                raise AnalysisError(
                    "diagram rows must be sorted by non-increasing priority "
                    f"(ties by id): {prev.stream_id} before {cur.stream_id}"
                )
        refill_rows(diagram, removed, erased_slots=erased_slots, start_row=0)
    finally:
        if tr is not None:
            tr.end("generate_init_diagram", "analysis")
    return diagram


# perfbench/spans.py wraps this module attribute as its ``kernel`` layer.
def fill_masks(
    gaps: Runs,
    period: int,
    length: int,
    dtime: int,
    skip: AbstractSet[int] = _NO_SKIP,
    erased: Sequence[int] = (),
) -> Tuple[List[int], Runs, Runs]:
    """Fill one row against the free ``gaps`` above it.

    Each unskipped window ``(s, e]`` requests the run ``(s, p]``, where
    ``p`` is its ``C``-th free slot (or ``e`` when it has fewer); the
    sorted ``erased`` slots are cut out of those runs afterwards, so
    erased demand does not shift. Returns ``(wins, runs, below)``: the
    window index of each request run, the runs, and the gaps left free
    for the row below (``gaps`` minus the runs).
    """
    wins: List[int] = []
    runs: Runs = []
    ng = len(gaps)
    i = w = s = 0
    # Plain comparisons, not min()/max(): this loop runs once per window.
    while s < dtime:
        e = s + period
        if e > dtime:
            e = dtime
        while i < ng and gaps[i][1] <= s:
            i += 1
        if w not in skip:
            need, p = length, e
            j = i
            while j < ng:
                a, b = gaps[j]
                if a > e:
                    break
                if a <= s:
                    a = s + 1
                if b > e:
                    b = e
                n = b - a + 1
                if n >= need:
                    p = a + need - 1
                    break
                need -= n
                j += 1
            wins.append(w)
            runs.append((s + 1, p))
        s = e
        w += 1
    if erased:
        runs = _subtract(runs, [(t, t) for t in erased])
        wins = [(lo - 1) // period for lo, _ in runs]
    return wins, runs, _subtract(gaps, runs)


def refill_rows(
    diagram: TimingDiagram,
    removed: Mapping[int, AbstractSet[int]],
    *,
    erased_slots: Optional[Mapping[int, AbstractSet[int]]] = None,
    start_row: int = 0,
) -> None:
    """Recompute rows ``start_row..`` of a diagram in place.

    Rows above ``start_row`` are untouched — their allocations fully
    determine the gaps the lower rows see, which is what makes the
    incremental update of ``Modify_Diagram`` sound: releasing instances of
    the stream at ``start_row`` can only change rows at or below it.
    """
    if not 0 <= start_row <= diagram.num_rows:
        raise AnalysisError(f"start_row {start_row} out of range")
    erased_slots = erased_slots or {}
    gaps = diagram._gaps[start_row]
    dtime = diagram.dtime
    for row in range(start_row, diagram.num_rows):
        stream = diagram.row_streams[row]
        sid = stream.stream_id
        skip = removed.get(sid)
        skip = frozenset(skip) if skip else _NO_SKIP
        erased = erased_slots.get(sid)
        wins, runs, gaps = fill_masks(
            gaps, stream.period, stream.length, dtime, skip,
            sorted(erased) if erased else (),
        )
        diagram._wins[row] = wins
        diagram._runs[row] = runs
        diagram._skip[row] = skip
        diagram._gaps[row + 1] = gaps
        diagram._records.pop(sid, None)
    diagram._dense = None
