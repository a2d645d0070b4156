"""Unit + property tests for the incremental admission engine.

The load-bearing property: across a long fuzzed admit/release trace,
the incremental engine's decisions and reports are **bit-identical** to
the from-scratch reference (``tests/reference.py``), which reruns fresh
:class:`FeasibilityAnalyzer` s over the whole set on every op.
"""

import random

import pytest

from repro.core.feasibility import FeasibilityAnalyzer
from repro.core.hpset import build_all_hp_sets
from repro.core.streams import MessageStream, StreamSet
from repro.errors import AnalysisError, StreamError
from repro.io import report_to_spec
from repro.service.engine import IncrementalAdmissionEngine
from repro.topology import Mesh2D, XYRouting
from tests.reference import ReferenceAdmission


@pytest.fixture()
def setup():
    mesh = Mesh2D(6, 6)
    return mesh, XYRouting(mesh)


def rand_stream(rng, sid, nodes=36, levels=5):
    src = rng.randrange(nodes)
    dst = rng.randrange(nodes)
    while dst == src:
        dst = rng.randrange(nodes)
    period = rng.randint(20, 60)
    return MessageStream(
        sid, src, dst, priority=rng.randint(1, levels), period=period,
        length=rng.randint(1, 6), deadline=rng.randint(12, period),
    )


def ms(mesh, sid, src, dst, priority, period=200, length=10, deadline=None):
    return MessageStream(
        sid, mesh.node_xy(*src), mesh.node_xy(*dst), priority=priority,
        period=period, length=length, deadline=deadline or period,
    )


class TestEngineBasics:
    def test_admit_and_report(self, setup):
        mesh, routing = setup
        eng = IncrementalAdmissionEngine(routing)
        d = eng.try_admit(ms(mesh, 0, (0, 0), (5, 0), priority=1))
        assert d.admitted and d.violations == ()
        assert len(eng.admitted) == 1
        assert eng.current_report().success

    def test_empty_report_trivial_success(self, setup):
        _, routing = setup
        eng = IncrementalAdmissionEngine(routing)
        report = eng.current_report()
        assert report.success and report.verdicts == {}

    def test_rejection_rolls_back_all_caches(self, setup):
        mesh, routing = setup
        eng = IncrementalAdmissionEngine(routing)
        victim = ms(mesh, 0, (0, 0), (5, 0), priority=1, length=10,
                    period=500, deadline=15)
        assert eng.try_admit(victim).admitted
        before = report_to_spec(eng.current_report())
        aggressor = ms(mesh, 1, (1, 0), (5, 1), priority=2, length=30,
                       period=40, deadline=200)
        d = eng.try_admit(aggressor)
        assert not d.admitted and 0 in d.violations
        assert len(eng.admitted) == 1
        assert report_to_spec(eng.current_report()) == before
        with pytest.raises(StreamError):
            eng.verdict(1)

    def test_batch_all_or_nothing(self, setup):
        mesh, routing = setup
        eng = IncrementalAdmissionEngine(routing)
        good = ms(mesh, 0, (0, 0), (5, 0), priority=1)
        bad = ms(mesh, 1, (0, 1), (5, 1), priority=1, deadline=2)
        assert not eng.try_admit([good, bad]).admitted
        assert len(eng.admitted) == 0

    def test_empty_and_duplicate_requests(self, setup):
        mesh, routing = setup
        eng = IncrementalAdmissionEngine(routing)
        with pytest.raises(AnalysisError):
            eng.try_admit([])
        assert eng.try_admit(ms(mesh, 0, (0, 0), (3, 0), priority=1)).admitted
        with pytest.raises(StreamError):
            eng.try_admit(ms(mesh, 0, (0, 1), (3, 1), priority=1))
        a = ms(mesh, 5, (0, 1), (3, 1), priority=1)
        b = ms(mesh, 5, (0, 2), (3, 2), priority=1)
        with pytest.raises(StreamError):
            eng.try_admit([a, b])

    def test_release_unknown_id_names_it(self, setup):
        mesh, routing = setup
        eng = IncrementalAdmissionEngine(routing)
        eng.try_admit(ms(mesh, 0, (0, 0), (3, 0), priority=1))
        with pytest.raises(StreamError, match=r"\[7\]"):
            eng.release([0, 7])
        # Atomic: the known id was not removed either.
        assert 0 in eng.admitted

    def test_fresh_id_monotonic_never_reuses(self, setup):
        mesh, routing = setup
        eng = IncrementalAdmissionEngine(routing)
        a = eng.fresh_id()
        assert eng.try_admit(ms(mesh, a, (0, 0), (3, 0), priority=1)).admitted
        eng.release(a)
        assert eng.fresh_id() > a
        # Explicitly requested ids advance the counter too.
        eng.try_admit(ms(mesh, 40, (0, 1), (3, 1), priority=1))
        eng.release(40)
        assert eng.fresh_id() > 40

    def test_closure_matches_fresh_hp_sets(self, setup):
        mesh, routing = setup
        eng = IncrementalAdmissionEngine(routing)
        streams = [
            ms(mesh, 0, (0, 0), (5, 0), priority=3, length=2),
            ms(mesh, 1, (2, 0), (2, 4), priority=2, length=2),
            ms(mesh, 2, (0, 2), (4, 2), priority=1, length=2),
        ]
        for s in streams:
            assert eng.try_admit(s).admitted
        fresh = build_all_hp_sets(
            StreamSet(eng.admitted), routing
        )
        for sid in eng.admitted.ids():
            assert eng.closure(sid) == fresh[sid].ids()
        with pytest.raises(StreamError):
            eng.closure(99)

    def test_stats_counters(self, setup):
        mesh, routing = setup
        eng = IncrementalAdmissionEngine(routing)
        eng.try_admit(ms(mesh, 0, (0, 0), (3, 0), priority=1))
        eng.try_admit(ms(mesh, 1, (0, 1), (3, 1), priority=1))
        eng.release(0)
        stats = eng.stats.to_dict()
        assert stats["ops"] == 3
        assert stats["admits"] == 2 and stats["releases"] == 1
        assert 0.0 <= stats["cache_hit_rate"] <= 1.0


class TestPreparedAnalyzer:
    def test_from_prepared_matches_normal(self, setup):
        mesh, routing = setup
        rng = random.Random(3)
        streams = StreamSet(rand_stream(rng, i) for i in range(8))
        normal = FeasibilityAnalyzer(streams, routing)
        prepared = FeasibilityAnalyzer.from_prepared(
            normal.streams, normal.channels, normal.blockers,
            normal.hp_sets, routing=routing,
        )
        a = normal.determine_feasibility()
        b = prepared.determine_feasibility()
        assert a.verdicts == b.verdicts and a.success == b.success

    def test_from_prepared_validates_coverage(self, setup):
        mesh, routing = setup
        streams = StreamSet([ms(mesh, 0, (0, 0), (3, 0), priority=1)])
        normal = FeasibilityAnalyzer(streams, routing)
        with pytest.raises(AnalysisError, match="channels"):
            FeasibilityAnalyzer.from_prepared(
                normal.streams, {}, normal.blockers, normal.hp_sets
            )
        unresolved = StreamSet([ms(mesh, 0, (0, 0), (3, 0), priority=1)])
        with pytest.raises(AnalysisError, match="latency"):
            FeasibilityAnalyzer.from_prepared(
                unresolved, normal.channels, normal.blockers,
                normal.hp_sets,
            )


class TestFuzzedEquivalence:
    """500+ op fuzzed trace, bit-identical to full reanalysis (the
    from-scratch reference).

    Both sides resolve the process-default backend, so the pin holds on
    the REPRO_ANALYSIS_BACKEND CI legs too."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_incremental_vs_full_500_ops(self, setup, seed):
        mesh, routing = setup
        rng = random.Random(seed)
        inc = IncrementalAdmissionEngine(routing)
        ref = ReferenceAdmission(routing)
        live = []
        for op in range(520):
            if live and rng.random() < 0.45:
                sid = live.pop(rng.randrange(len(live)))
                inc.release(sid)
                ref.release(sid)
            else:
                sid = inc.fresh_id()
                stream = rand_stream(rng, sid)
                d1 = inc.try_admit(stream)
                d2 = ref.try_admit(stream)
                assert d1.admitted == d2.admitted, f"op {op}"
                assert d1.violations == d2.violations, f"op {op}"
                assert d1.report.verdicts == d2.report.verdicts, f"op {op}"
                if d1.admitted:
                    live.append(sid)
            r1, r2 = inc.current_report(), ref.current_report()
            assert r1.verdicts == r2.verdicts, f"op {op}"
            assert report_to_spec(r1) == report_to_spec(r2), f"op {op}"
        # The incremental engine must actually have been incremental.
        assert inc.stats.verdicts_reused > inc.stats.verdicts_recomputed

    def test_closures_track_full_mode(self, setup):
        mesh, routing = setup
        rng = random.Random(7)
        inc = IncrementalAdmissionEngine(routing)
        ref = ReferenceAdmission(routing)
        live = []
        for _ in range(120):
            if live and rng.random() < 0.4:
                sid = live.pop(rng.randrange(len(live)))
                inc.release(sid)
                ref.release(sid)
            else:
                stream = rand_stream(rng, inc.fresh_id())
                if inc.try_admit(stream).admitted:
                    live.append(stream.stream_id)
                ref.try_admit(stream)
            fresh = ref.closures()
            for sid in inc.admitted.ids():
                assert inc.closure(sid) == fresh[sid]
