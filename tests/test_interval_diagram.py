"""Differential test: interval timing diagrams against the scan oracle.

The production diagram (``repro.core.timing_diagram``) keeps one request
run per period window and the free gaps above each row; the oracle
(``tests/reference.py``) scans every slot of every window into dense
masks. Whole diagrams must agree on every per-row ALLOCATED and WAITING
cell, the result row's free slots, ``U`` and the released sets — across
removed windows and erased slots, both ``Modify_Diagram`` granularities
with and without the fixpoint sweep, horizons below, equal to and not a
multiple of a period, period 1, ``C == T``, unsatisfied windows and
empty HP sets.
"""

from contextlib import contextmanager

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.hpset import build_all_hp_sets, direct_blockers
from repro.core.modify import modify_diagram
from repro.core.streams import MessageStream, StreamSet
from repro.core.timing_diagram import (
    CellState,
    TimingDiagram,
    generate_init_diagram,
)
from tests.reference import modify_scan_reference, scan_diagram

@contextmanager
def dense_builds():
    """Record every call of the diagram's lazy dense-mask builder."""
    calls = []
    original = TimingDiagram._masks

    def counting(self):
        calls.append(self)
        return original(self)

    TimingDiagram._masks = counting
    try:
        yield calls
    finally:
        TimingDiagram._masks = original


PERIODS = st.one_of(st.just(1), st.integers(2, 6), st.integers(7, 40))


@st.composite
def lengths(draw, period):
    """``C`` below, equal to or above ``T`` (the last leaves every
    window unsatisfied)."""
    return draw(st.one_of(
        st.integers(1, period),
        st.just(period),
        st.integers(period + 1, period + 4),
    ))


@st.composite
def horizons(draw, period):
    """``dtime`` below, equal to, a multiple of, or ragged against
    ``period``, or anything."""
    kind = draw(st.sampled_from(
        ["below", "equal", "multiple", "ragged", "any"]
    ))
    if kind == "below" and period > 1:
        return draw(st.integers(1, period - 1))
    if kind == "equal":
        return period
    if kind == "multiple":
        return period * draw(st.integers(2, 6))
    if kind == "ragged":
        return period * draw(st.integers(1, 5)) + draw(
            st.integers(1, max(1, period - 1)))
    return draw(st.integers(1, 150))


@st.composite
def init_cases(draw):
    n = draw(st.integers(0, 6))
    rows = []
    for i in range(n):
        period = draw(PERIODS)
        rows.append(MessageStream(
            stream_id=i, src=0, dst=1, priority=n - i, period=period,
            length=draw(lengths(period)), deadline=100,
        ))
    dtime = draw(horizons(rows[0].period if rows else draw(PERIODS)))
    removed, erased = {}, {}
    for s in rows:
        nwin = -(-dtime // s.period)
        if draw(st.booleans()):
            # Out-of-range windows must be ignored, not crash.
            removed[s.stream_id] = set(draw(st.lists(
                st.integers(0, nwin + 1), max_size=3)))
        if draw(st.booleans()):
            erased[s.stream_id] = set(draw(st.lists(
                st.integers(0, dtime + 2), max_size=12)))
    return tuple(rows), dtime, removed, erased


def scan_upper_bound(alloc, latency):
    free = np.flatnonzero(~alloc.any(axis=0)[1:]) + 1
    return int(free[latency - 1]) if len(free) >= latency else -1


def assert_matches(diagram, alloc, wait):
    """The interval diagram restates the oracle's dense masks exactly."""
    np.testing.assert_array_equal(diagram.allocated, alloc)
    np.testing.assert_array_equal(diagram.waiting, wait)
    busy = alloc.any(axis=0)
    busy[0] = False
    np.testing.assert_array_equal(diagram.result_busy(), busy)
    free = np.flatnonzero(~busy[1:]) + 1
    np.testing.assert_array_equal(diagram.free_slots(), free)
    assert diagram.num_free_slots() == len(free)
    for latency in (1, 2, 5, len(free), len(free) + 1):
        if latency >= 1:
            assert diagram.upper_bound(latency) == scan_upper_bound(
                alloc, latency)
    for row, stream in enumerate(diagram.row_streams):
        records = diagram.instances[stream.stream_id]
        assert sorted(t for r in records for t in r.allocated) == \
            np.flatnonzero(alloc[row]).tolist()
        assert sorted(t for r in records for t in r.waiting) == \
            np.flatnonzero(wait[row]).tolist()
        for r in records:
            lo, hi = r.release + 1, min(r.release + stream.period,
                                        diagram.dtime)
            assert all(lo <= t <= hi for t in r.occupied())
            assert r.satisfied == (len(r.allocated) == stream.length)
        # Request runs: ascending, disjoint, each inside its window.
        prev = 0
        for w, lo, hi in diagram.request_runs(row):
            assert prev < lo <= hi
            assert w * stream.period < lo and hi <= min(
                (w + 1) * stream.period, diagram.dtime)
            prev = hi
    grid = diagram.to_grid()
    n = diagram.num_rows
    for row in range(n + 1):
        above = alloc[:row].any(axis=0)
        for t in range(1, diagram.dtime + 1):
            if row < n and alloc[row, t]:
                want = CellState.ALLOCATED
            elif row < n and wait[row, t]:
                want = CellState.WAITING
            else:
                want = CellState.BUSY if above[t] else CellState.FREE
            assert grid[row, t] == want
            assert diagram.state(row, t) == want


class TestGenerateInitDiagram:
    @given(case=init_cases())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_matches_scan(self, case):
        rows, dtime, removed, erased = case
        with dense_builds() as calls:
            d = generate_init_diagram(
                99, rows, dtime, removed=removed, erased_slots=erased)
            # Cal_U's queries never materialise the dense masks.
            d.upper_bound(1)
            d.num_free_slots()
        assert not calls
        alloc, wait = scan_diagram(rows, dtime, removed, erased)
        assert_matches(d, alloc, wait)

    def test_empty_hp_set(self):
        d = generate_init_diagram(7, (), 9)
        assert d.num_rows == 0
        assert d.free_slots().tolist() == list(range(1, 10))
        assert d.upper_bound(9) == 9 and d.upper_bound(10) == -1

    def test_fully_erased_window_keeps_its_record(self):
        row = MessageStream(0, 0, 1, priority=1, period=4, length=2,
                            deadline=4)
        d = generate_init_diagram(9, (row,), 8, erased_slots={0: {1, 2}})
        first, second = d.instances[0]
        assert first.allocated == () and not first.satisfied
        assert second.allocated == (5, 6)
        assert d.free_slots().tolist() == [1, 2, 3, 4, 7, 8]


@st.composite
def modify_cases(draw):
    """Stream sets over synthetic links, rich enough for indirect chains."""
    n = draw(st.integers(2, 6))
    streams, channels = StreamSet(), {}
    n_links = draw(st.integers(1, 5))
    for i in range(n):
        period = draw(st.one_of(st.just(1), st.integers(2, 40)))
        streams.add(MessageStream(
            stream_id=i, src=0, dst=1,
            priority=draw(st.integers(1, 4)),
            period=period,
            length=draw(lengths(period)),
            deadline=draw(st.integers(1, 120)),
        ))
        links = draw(st.sets(st.integers(0, n_links - 1), min_size=1,
                             max_size=n_links))
        channels[i] = frozenset(("l", x) for x in links)
    seeds = {}
    if draw(st.booleans()):
        sid = draw(st.integers(0, n - 1))
        seeds[sid] = set(draw(st.lists(st.integers(0, 5), max_size=3)))
    return (streams, direct_blockers(streams, channels),
            build_all_hp_sets(streams, channels=channels), seeds)


class TestModifyDiagram:
    @given(case=modify_cases(),
           granularity=st.sampled_from(["instance", "slot"]),
           fixpoint=st.booleans())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_matches_scan(self, case, granularity, fixpoint):
        streams, blockers, hps, seeds = case
        if granularity == "slot":
            seeds = None
        for owner in streams:
            hp = hps[owner.stream_id]
            own_seeds = {k: v for k, v in (seeds or {}).items()
                         if k in hp.ids() and k != owner.stream_id}
            dtime = owner.deadline
            d, removed = modify_diagram(
                owner, hp, streams, blockers, dtime,
                granularity=granularity, fixpoint=fixpoint,
                initial_removed=own_seeds or None,
            )
            alloc, wait, ref_removed = modify_scan_reference(
                owner, hp, streams, blockers, dtime,
                granularity=granularity, fixpoint=fixpoint,
                initial_removed=own_seeds,
            )
            assert removed == ref_removed
            assert_matches(d, alloc, wait)
