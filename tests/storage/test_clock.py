"""Tests for the virtual clock."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.faults import RetryPolicy
from repro.storage.clock import TICKS_PER_US, VirtualClock, to_ticks, to_us
from repro.storage.profiles import PAPER_DEVICES, emulated_profile

#: Durations the code really advances by: batch latencies of the paper's
#: devices and the Fig. 10h emulated ones, the CPU costs the harnesses
#: use, retry backoffs, and latency spikes scaled off a page read.
_MODELS = [profile.latency_model() for profile in PAPER_DEVICES] + [
    emulated_profile(alpha, 8).latency_model() for alpha in range(1, 9)
]
_BATCHES = [
    cost(n)
    for model in _MODELS
    for cost in (model.read_batch_us, model.write_batch_us)
    for n in range(1, 33)
]
_REAL_DURATIONS = st.one_of(
    st.sampled_from(_BATCHES),
    st.sampled_from([0.1, 2.0, 10.0, 20.0]),
    st.builds(
        RetryPolicy(multiplier=1.5).backoff_for, st.integers(min_value=1, max_value=12)
    ),
    st.builds(
        lambda multiplier, base: multiplier * base,
        st.floats(min_value=1.0, max_value=50.0),
        st.sampled_from([model.read_batch_us(1) for model in _MODELS]),
    ),
)


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now_us == 0.0

    def test_custom_start(self):
        assert VirtualClock(start_us=100.0).now_us == 100.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock(start_us=-1.0)

    def test_advance_moves_forward(self):
        clock = VirtualClock()
        clock.advance(10.0)
        clock.advance(2.5)
        assert clock.now_us == 12.5

    def test_advance_returns_new_time(self):
        clock = VirtualClock()
        assert clock.advance(5.0) == 5.0

    def test_negative_advance_rejected(self):
        clock = VirtualClock()
        with pytest.raises(ValueError):
            clock.advance(-0.1)

    def test_zero_advance_allowed(self):
        clock = VirtualClock()
        clock.advance(0.0)
        assert clock.now_us == 0.0

    def test_now_s_converts_units(self):
        clock = VirtualClock()
        clock.advance(2_500_000.0)
        assert clock.now_s == pytest.approx(2.5)

    def test_elapsed_since(self):
        clock = VirtualClock()
        t0 = clock.now_us
        clock.advance(42.0)
        assert clock.elapsed_since(t0) == pytest.approx(42.0)

    def test_repr_contains_time(self):
        clock = VirtualClock()
        clock.advance(1.0)
        assert "1.000" in repr(clock)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e9), max_size=50))
    def test_monotonic_under_any_advance_sequence(self, deltas):
        clock = VirtualClock()
        previous = clock.now_us
        for delta in deltas:
            clock.advance(delta)
            assert clock.now_us >= previous
            previous = clock.now_us

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=50))
    def test_time_is_sum_of_advances(self, deltas):
        # Equal to, not close to: each delta is one whole number of ticks
        # and the clock is their integer sum.
        clock = VirtualClock()
        for delta in deltas:
            clock.advance(delta)
        assert clock.ticks == sum(to_ticks(delta) for delta in deltas)
        assert clock.now_us == to_us(clock.ticks)

    @given(st.lists(_REAL_DURATIONS, max_size=40), st.randoms(use_true_random=False))
    def test_advances_commute(self, durations, rng):
        """Any order, or one pre-summed tick charge: the same clock."""
        clocks = []
        for _ in range(2):
            rng.shuffle(durations)
            clock = VirtualClock()
            for duration in durations:
                clock.advance(duration)
            clocks.append(clock)
        charged = VirtualClock()
        charged.ticks += sum(to_ticks(duration) for duration in durations)
        clocks.append(charged)
        assert len({clock.ticks for clock in clocks}) == 1
        assert len({clock.now_us for clock in clocks}) == 1

    def test_profile_latencies_are_decimal_exact(self):
        # Every Table I constant has at most two decimals: a PCIe page
        # write, 253.29999999999998 as a float, is a whole tick count.
        pcie = PAPER_DEVICES[1].latency_model()
        assert pcie.write_batch_us(1) != 253.3
        assert to_ticks(pcie.write_batch_us(1)) == 253_300_000
        for cost in _BATCHES:
            assert to_ticks(cost) % (TICKS_PER_US // 10_000) == 0

    def test_interval_on_ticks_is_start_independent(self):
        # The float nearest to "now" depends on how large now is; a tick
        # difference does not.
        spans = set()
        for start_us in (0.0, 0.1, 123_456.789, 9e9):
            clock = VirtualClock(start_us=start_us)
            mark = clock.ticks
            for _ in range(1_000):
                clock.advance(253.29999999999998)
            spans.add(to_us(clock.ticks - mark))
        assert spans == {253_300.0}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, bad):
        # A NaN clock compares false with every deadline: the background
        # processes and the serving layer would stop firing, silently.
        clock = VirtualClock(start_us=5.0)
        for refuse in (clock.advance, clock.advance_to, to_ticks):
            with pytest.raises(ValueError, match=str(bad)):
                refuse(bad)
        with pytest.raises(ValueError, match=str(bad)):
            VirtualClock(start_us=bad)
        assert clock.now_us == 5.0

    def test_negative_advance_message_kept(self):
        message = "cannot advance clock by negative time: -0.1"
        with pytest.raises(ValueError, match=message):
            VirtualClock().advance(-0.1)

    @given(
        st.floats(min_value=0.0, max_value=1e9),
        st.floats(min_value=0.0, max_value=1e9),
    )
    def test_advance_to_lands_on_the_first_tick_at_or_after(
        self, start_us, deadline_us
    ):
        clock = VirtualClock(start_us=start_us)
        before = clock.ticks
        assert clock.advance_to(deadline_us) == clock.now_us
        assert clock.ticks >= before and clock.now_us >= deadline_us
        if clock.ticks > before:
            assert to_us(clock.ticks - 1) < deadline_us

    def test_advance_to_arrives_where_a_rounded_delta_stalls(self):
        # 100/3 us is not a whole number of ticks: the naive jump rounds
        # to zero ticks just short of it and never gets there.
        deadline_us = 100 / 3
        clock = VirtualClock()
        clock.ticks = math.floor(deadline_us * TICKS_PER_US)
        assert clock.now_us < deadline_us
        clock.advance(deadline_us - clock.now_us)
        assert clock.now_us < deadline_us
        clock.advance_to(deadline_us)
        assert clock.now_us >= deadline_us
