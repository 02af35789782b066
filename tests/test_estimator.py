import math

import pytest
from hypothesis import given, strategies as st

from gapcraft.errors import DomainError, TimeRegression
from gapcraft.estimator import EstimatorState, estimator_peek, estimator_update, step

finite_vals = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
gaps = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)
timers = st.floats(min_value=1e-3, max_value=1e4, allow_nan=False)


class TestWorkedExamples:
    """Hand-computed single transitions."""

    def test_impulse_from_zero(self):
        # empty estimator, event counts: value = 1/T
        assert step(0.0, 5.0, 1, 10.0) == pytest.approx(0.1, abs=1e-15)

    def test_decay_with_impulse(self):
        # value=1, dt=2, T=10: 1/10 + 1*(1 - 0.2) = 0.9
        assert step(1.0, 2.0, 1, 10.0) == pytest.approx(0.9, abs=1e-15)

    def test_decay_without_impulse(self):
        # value=1, dt=2, T=10, chi=0: 0.8
        assert step(1.0, 2.0, 0, 10.0) == pytest.approx(0.8, abs=1e-15)

    def test_clamp_on_long_gap(self):
        # dt >= T wipes the history entirely
        assert step(5.0, 20.0, 1, 10.0) == pytest.approx(0.1, abs=1e-15)
        assert step(5.0, 20.0, 0, 10.0) == 0.0


class TestStatefulApi:
    def test_update_advances_clock(self):
        s0 = EstimatorState()
        s1 = estimator_update(s0, 2.0, 1, 10.0)
        assert s1.value == pytest.approx(0.1)
        assert s1.last_time == 2.0

    def test_peek_does_not_commit(self):
        s0 = EstimatorState(value=1.0, last_time=0.0)
        v = estimator_peek(s0, 2.0, 1, 10.0)
        assert v == pytest.approx(0.9)
        assert s0.value == 1.0 and s0.last_time == 0.0

    def test_peek_equals_update_value(self):
        s0 = EstimatorState(value=0.7, last_time=1.0)
        assert estimator_peek(s0, 3.5, 1, 4.0) == estimator_update(s0, 3.5, 1, 4.0).value

    def test_time_regression(self):
        s = EstimatorState(value=0.0, last_time=5.0)
        with pytest.raises(TimeRegression):
            estimator_peek(s, 4.0, 1, 10.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time(self, t):
        with pytest.raises(TimeRegression):
            estimator_peek(EstimatorState(value=1.0, last_time=5.0), t, 1, 10.0)

    def test_bad_timer(self):
        with pytest.raises(DomainError):
            estimator_peek(EstimatorState(), 1.0, 1, 0.0)


class TestProperties:
    @given(finite_vals, gaps, st.integers(min_value=0, max_value=1), timers)
    def test_non_negative(self, value, dt, chi, T):
        assert step(value, dt, chi, T) >= 0.0

    @given(finite_vals, gaps, timers)
    def test_impulse_floor(self, value, dt, T):
        # with chi=1 the new value is at least the impulse
        assert step(value, dt, 1, T) >= 1.0 / T - 1e-12 * (1.0 / T)

    @given(finite_vals, timers, gaps)
    def test_clamp_exact(self, value, T, extra):
        # once dt >= T, the prior value is irrelevant
        dt = T + extra
        assert step(value, dt, 1, T) == 1.0 / T
        assert step(value, dt, 0, T) == 0.0

    @given(finite_vals, finite_vals, gaps, timers)
    def test_monotone_in_prior(self, v1, v2, dt, T):
        lo, hi = sorted((v1, v2))
        assert step(lo, dt, 1, T) <= step(hi, dt, 1, T) + 1e-9

    @given(finite_vals, gaps, gaps, timers)
    def test_monotone_decay_in_gap(self, value, d1, d2, T):
        lo, hi = sorted((d1, d2))
        assert step(value, hi, 0, T) <= step(value, lo, 0, T) + 1e-9

    @given(finite_vals, finite_vals, gaps, timers)
    def test_affine_in_prior(self, v1, v2, dt, T):
        # the chi=0 transition is linear in the prior value
        got = step(v1 + v2, dt, 0, T)
        want = step(v1, dt, 0, T) + step(v2, dt, 0, T)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_poisson_sample_mean_overestimates():
    """Arrival-sampled mean on Poisson input sits above the true rate.

    Small-scale statistical check; the full-size one lives in the
    acceptance suite.
    """
    import numpy as np

    rng = np.random.default_rng(5)
    gaps_arr = rng.exponential(1.0, size=20000)
    T = 10.0
    value = 0.0
    total = 0.0
    for dt in gaps_arr:
        value = step(value, dt, 1, T)
        total += value
    mean = total / gaps_arr.size
    assert 0.9 < mean < 1.3
    assert mean > 1.0  # the documented positive sampling bias
