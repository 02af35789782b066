import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gapcraft.errors import (
    ConfigError,
    EmptyClassSet,
    NonPositiveTimer,
    ShareSumError,
)
from gapcraft.types import (
    CapacityProfile,
    Offer,
    PriorityParams,
    ShareVector,
)
from oracles import mean_capacity


@st.composite
def capacities(draw, rates=st.floats(0.1, 100.0)):
    starts = sorted(set(draw(st.lists(
        st.integers(1, 400).map(lambda x: x * 0.25) | st.floats(0.01, 100.0),
        max_size=8))))
    return CapacityProfile(tuple((t, draw(rates)) for t in [0.0, *starts]))


class TestOffer:
    def test_basic_fields(self):
        o = Offer(1.5, class_id=2, priority=1)
        assert o.arrival == 1.5 and o.class_id == 2 and o.priority == 1

    def test_defaults(self):
        o = Offer(0.0)
        assert o.class_id == 0 and o.priority == 0

    @pytest.mark.parametrize("kwargs", [
        {"arrival": -1.0},
        {"arrival": math.nan},
        {"arrival": math.inf},
        {"arrival": 1.0, "class_id": -1},
        {"arrival": 1.0, "priority": -2},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            Offer(**kwargs)

    def test_immutable(self):
        o = Offer(1.0)
        with pytest.raises(AttributeError):
            o.arrival = 2.0


class TestCapacityProfile:
    def test_constant(self):
        c = CapacityProfile.constant(3.0)
        assert c.rate_at(0.0) == 3.0
        assert c.rate_at(1e9) == 3.0

    def test_piecewise_lookup(self):
        c = CapacityProfile(((0.0, 1.0), (10.0, 2.0), (20.0, 0.5)))
        assert c.rate_at(0.0) == 1.0
        assert c.rate_at(9.999) == 1.0
        assert c.rate_at(10.0) == 2.0  # right-continuous at the breakpoint
        assert c.rate_at(19.0) == 2.0
        assert c.rate_at(20.0) == 0.5
        assert c.rate_at(1e6) == 0.5
        assert c.segment_at(0.0) == (1.0, 0.0, 10.0)
        assert c.segment_at(9.999) == (1.0, 0.0, 10.0)
        assert c.segment_at(10.0) == (2.0, 10.0, 20.0)
        assert c.segment_at(1e6) == (0.5, 20.0, math.inf)

    @pytest.mark.parametrize("segments", [
        (),
        ((1.0, 1.0),),              # must start at 0
        ((0.0, 1.0), (0.0, 2.0)),   # non-increasing starts
        ((0.0, 0.0),),              # rate must be positive
        ((0.0, -1.0),),
        ((0.0, math.inf),),
    ])
    def test_invalid_segments(self, segments):
        with pytest.raises(ConfigError):
            CapacityProfile(segments)

    def test_negative_query(self):
        with pytest.raises(ConfigError):
            CapacityProfile.constant(1.0).rate_at(-0.1)
        with pytest.raises(ConfigError):
            CapacityProfile.constant(1.0).segment_at(-0.1)

    @given(st.floats(min_value=0.0, max_value=1e6))
    def test_right_continuity(self, t):
        c = CapacityProfile(((0.0, 1.0), (5.0, 3.0), (100.0, 2.0)))
        eps = 1e-9 * max(1.0, t)
        assert c.rate_at(t) == c.rate_at(t + eps) or t + eps >= 5.0

    def test_array_forms(self):
        c = CapacityProfile(((0.0, 1.0), (10.0, 2.0), (20.0, 0.5)))
        t = np.array([0.0, 5.0, 10.0, 15.0, 20.0, 1e6])
        assert c.rates(t).tolist() == [1.0, 1.0, 2.0, 2.0, 0.5, 0.5]
        assert c.rates(t, left=True).tolist() == [1.0, 1.0, 1.0, 2.0, 2.0, 0.5]
        assert c.integral(t).tolist() == [0.0, 5.0, 10.0, 20.0, 30.0, 30.0 + 0.5 * (1e6 - 20.0)]
        assert c.breakpoints.tolist() == [0.0, 10.0, 20.0]
        with pytest.raises(ValueError):
            c.breakpoints[0] = 1.0

    @given(capacities(), st.lists(st.integers(0, 500).map(lambda x: x * 0.25)
                                  | st.floats(0.0, 150.0), min_size=1))
    def test_rates_match_scalar_lookup(self, c, times):
        t = np.array(times)
        assert c.rates(t).tolist() == [c.rate_at(x) for x in times]
        left = [([r for s, r in c.segments if s < x] or [c.segments[0][1]])[-1]
                for x in times]
        assert c.rates(t, left=True).tolist() == left

    @given(capacities(st.floats(1.0, 10.0)), st.floats(1.0, 100.0), st.integers(1, 60))
    def test_window_means_match_segment_sums(self, c, window, n_win):
        """Req-A's limits, one integral difference per window, against the
        segment-by-segment sum.

        The difference carries a rounding error of a few ulps of
        integral(t1), so relative to the window's mean it grows with
        (t1 / window) * (max c / min c); here that product stays under 2e3.
        """
        edges = np.arange(n_win + 1) * window
        means = np.diff(c.integral(edges)) / window
        want = [mean_capacity(c, i * window, i * window + window) for i in range(n_win)]
        assert means.tolist() == pytest.approx(want, rel=1e-12, abs=0.0)


class TestShareVector:
    def test_valid(self):
        s = ShareVector((0.2, 0.8))
        assert len(s) == 2
        assert s.s == (0.2, 0.8)

    def test_single_full_share(self):
        assert ShareVector((1.0,)).s == (1.0,)

    def test_empty(self):
        with pytest.raises(EmptyClassSet):
            ShareVector(())

    @pytest.mark.parametrize("s", [(0.5, 0.6), (0.2, 0.2), (-0.1, 1.1), (0.0, 1.0)])
    def test_bad_shares(self, s):
        with pytest.raises(ShareSumError):
            ShareVector(s)

    @given(st.integers(min_value=1, max_value=8))
    def test_uniform_shares_always_valid(self, n):
        s = ShareVector(tuple(1.0 / n for _ in range(n)))
        assert len(s) == n


class TestPriorityParams:
    def test_valid(self):
        p = PriorityParams((15.0, 10.0), (0.15, 0.10))
        assert len(p) == 2

    def test_either_field_may_be_absent(self):
        assert len(PriorityParams(timers=(2.0, 1.0))) == 2
        assert PriorityParams((10.0,)).timers is None
        with pytest.raises(ConfigError):
            PriorityParams()

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            PriorityParams((10.0,), (1.0, 2.0))

    def test_watermark_floor(self):
        with pytest.raises(ConfigError):
            PriorityParams((0.5,), (1.0,))

    def test_timer_positive(self):
        with pytest.raises(NonPositiveTimer):
            PriorityParams((10.0,), (0.0,))

