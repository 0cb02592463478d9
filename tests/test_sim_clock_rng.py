"""Node clocks and deterministic RNG streams."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.clock import NodeClock
from repro.sim.engine import Engine
from repro.sim.rng import SeededRNG


class TestNodeClock:
    def test_base_reading_at_time_zero(self, engine):
        clock = NodeClock(engine)
        assert clock.monotonic_ns() == NodeClock.BASE_NS

    def test_offset_shifts_reading(self, engine):
        clock = NodeClock(engine, offset_ns=5_000)
        assert clock.monotonic_ns() == NodeClock.BASE_NS + 5_000

    def test_reading_tracks_engine_time(self, engine):
        clock = NodeClock(engine)
        engine.schedule(1_000_000, lambda: None)
        engine.run()
        assert clock.monotonic_ns() == NodeClock.BASE_NS + 1_000_000

    def test_drift_scales_elapsed_time(self, engine):
        clock = NodeClock(engine, drift_ppm=100.0)  # 1e-4
        engine.schedule(10_000_000, lambda: None)
        engine.run()
        expected = NodeClock.BASE_NS + int(10_000_000 * 1.0001)
        assert clock.monotonic_ns() == expected

    def test_negative_offset_stays_positive(self, engine):
        clock = NodeClock(engine, offset_ns=-4_000_000)
        assert clock.monotonic_ns() > 0

    def test_skew_versus_combines_offset_and_drift(self, engine):
        fast = NodeClock(engine, offset_ns=1_000, drift_ppm=50.0)
        slow = NodeClock(engine, offset_ns=0, drift_ppm=0.0)
        engine.schedule(100_000_000, lambda: None)
        engine.run()
        expected = 1_000 + int(100_000_000 * 50e-6)
        assert fast.skew_versus(slow) == expected

    def test_at_matches_monotonic_at_now(self, engine):
        clock = NodeClock(engine, offset_ns=7, drift_ppm=3.0)
        engine.schedule(123_456, lambda: None)
        engine.run()
        assert clock.at(engine.now) == clock.monotonic_ns()


class TestSeededRNG:
    def test_same_seed_same_stream(self):
        a = SeededRNG(99, "x")
        b = SeededRNG(99, "x")
        assert [a.randint(0, 1000) for _ in range(20)] == [
            b.randint(0, 1000) for _ in range(20)
        ]

    def test_different_names_decorrelate(self):
        a = SeededRNG(99, "x")
        b = SeededRNG(99, "y")
        assert [a.randint(0, 10**9) for _ in range(5)] != [
            b.randint(0, 10**9) for _ in range(5)
        ]

    def test_fork_is_deterministic(self):
        a = SeededRNG(7).fork("child")
        b = SeededRNG(7).fork("child")
        assert a.random_u32() == b.random_u32()

    def test_fork_does_not_disturb_parent(self):
        parent = SeededRNG(7)
        first = parent.randint(0, 10**9)
        parent2 = SeededRNG(7)
        parent2.fork("noise")  # forking must not consume parent draws
        assert parent2.randint(0, 10**9) == first

    def test_random_u32_in_range(self):
        rng = SeededRNG(3)
        for _ in range(100):
            value = rng.random_u32()
            assert 0 <= value <= 0xFFFFFFFF

    def test_distribution_helpers_nonnegative(self):
        rng = SeededRNG(3)
        for _ in range(50):
            assert rng.exponential_ns(1000) >= 0
            assert rng.normal_ns(1000, 400) >= 0
            assert rng.lognormal_ns(1000, 0.5) >= 0
            assert rng.pareto_ns(100, 1.5) >= 0

    def test_bernoulli_extremes(self):
        rng = SeededRNG(3)
        assert not any(rng.bernoulli(0.0) for _ in range(20))
        assert all(rng.bernoulli(1.0) for _ in range(20))

    def test_lognormal_centers_near_median(self):
        rng = SeededRNG(5)
        samples = [rng.lognormal_ns(1000, 0.05) for _ in range(500)]
        assert 950 < sorted(samples)[250] < 1050


class TestLognormalMatchesStdlib:
    """``lognormal_ns`` inlines ``random.Random.lognormvariate``; it must
    return what the stdlib returns and leave the stream where the stdlib
    leaves it, or every simulated stage cost would change."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        median_ns=st.floats(min_value=0.5, max_value=5e6),
        sigma=st.floats(min_value=0.001, max_value=3.0),
    )
    def test_same_values_and_stream_as_lognormvariate(self, seed, median_ns, sigma):
        rng = SeededRNG(seed, "noise")
        reference = random.Random()
        reference.setstate(rng._random.getstate())
        for _ in range(40):
            expected = max(0, int(reference.lognormvariate(math.log(median_ns), sigma)))
            assert rng.lognormal_ns(median_ns, sigma) == expected
        assert rng.random() == reference.random()

    def test_stage_cost_shapes(self):
        # The integer medians and sigma the cost model actually uses.
        rng = SeededRNG(11, "node/host0")
        reference = random.Random()
        reference.setstate(rng._random.getstate())
        for median_ns in (250, 900, 1500, 4000, 12000) * 40:
            expected = max(0, int(reference.lognormvariate(math.log(median_ns), 0.08)))
            assert rng.lognormal_ns(median_ns, 0.08) == expected
