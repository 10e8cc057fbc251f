"""Tests for the discrete-event engine and seeded RNG streams."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams, bounded_lognormal


class TestSimulator:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(9.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_schedule_order(self):
        sim = Simulator()
        fired = []
        for label in "abc":
            sim.schedule(3.0, lambda l=label: fired.append(l))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_events_can_schedule_events(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append(sim.now)
            sim.schedule(10.0, lambda: fired.append(sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == [1.0, 11.0]

    def test_cancelled_event_skipped(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("no"))
        sim.schedule(2.0, lambda: fired.append("yes"))
        event.cancel()
        sim.run()
        assert fired == ["yes"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_past_schedule_rejected(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(ValueError, match="past"):
            sim.schedule_at(5.0, lambda: None)

    def test_nan_never_reaches_the_event_heap(self):
        """NaN compares false with everything, so ``delay < 0`` and
        ``time < now`` both let it through — and a NaN key in the heap
        breaks the ordering of its neighbours (delays 5, nan, 1, 3, 0.5
        used to fire as 1.0, 0.5, 3.0, nan, 5.0: time ran backwards)."""
        sim = Simulator()
        fired = []
        for delay in (5.0, float("nan"), 1.0, 3.0, 0.5):
            try:
                sim.schedule(delay, lambda: fired.append(sim.now))
            except ValueError as exc:
                assert "delay must be >= 0, got nan" in str(exc)
        with pytest.raises(ValueError, match="nan < now"):
            sim.schedule_at(float("nan"), lambda: None)
        sim.run()
        assert fired == [0.5, 1.0, 3.0, 5.0]

    def test_run_until_stops_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(100.0, lambda: fired.append(2))
        sim.run(until=50.0)
        assert fired == [1]
        assert sim.now == 50.0
        assert sim.pending == 1

    def test_max_events_guard(self):
        sim = Simulator()

        def loop():
            sim.schedule(1.0, loop)

        sim.schedule(1.0, loop)
        with pytest.raises(RuntimeError, match="max_events"):
            sim.run(max_events=100)

    def test_counters(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending == 2
        sim.run()
        assert sim.processed == 2
        assert sim.pending == 0

    @given(st.lists(st.floats(min_value=0, max_value=1e6), max_size=50))
    @settings(max_examples=30)
    def test_monotonic_clock_property(self, delays):
        sim = Simulator()
        times = []
        for d in delays:
            sim.schedule(d, lambda: times.append(sim.now))
        sim.run()
        assert times == sorted(times)


class TestRngStreams:
    def test_same_name_same_stream(self):
        s = RngStreams(seed=42)
        assert s.stream("x").random() == s.stream("x").random()

    def test_different_names_differ(self):
        s = RngStreams(seed=42)
        assert s.stream("x").random() != s.stream("y").random()

    def test_different_seeds_differ(self):
        assert (
            RngStreams(seed=1).stream("x").random()
            != RngStreams(seed=2).stream("x").random()
        )

    def test_child_namespaces(self):
        s = RngStreams(seed=7)
        a = s.child("site-a").stream("wait")
        b = s.child("site-b").stream("wait")
        assert a.random() != b.random()

    def test_bounded_lognormal_mean(self):
        rng = RngStreams(seed=3).stream("ln")
        draws = [bounded_lognormal(rng, 100.0, 0.5) for _ in range(4000)]
        mean = sum(draws) / len(draws)
        assert 85 < mean < 115  # arithmetic mean approximately preserved

    def test_bounded_lognormal_clamps(self):
        rng = RngStreams(seed=4).stream("ln")
        draws = [
            bounded_lognormal(rng, 100.0, 2.0, low=10, high=500)
            for _ in range(500)
        ]
        assert all(10 <= d <= 500 for d in draws)

    def test_sigma_zero_is_deterministic(self):
        rng = RngStreams(seed=5).stream("ln")
        assert bounded_lognormal(rng, 42.0, 0.0) == 42.0

    def test_validation(self):
        rng = RngStreams(seed=6).stream("ln")
        with pytest.raises(ValueError):
            bounded_lognormal(rng, -1.0, 0.5)
        with pytest.raises(ValueError):
            bounded_lognormal(rng, 1.0, -0.5)
