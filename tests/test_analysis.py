import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from gapcraft.analysis import (
    _protected_windows,
    check_req_a,
    check_req_b,
    check_req_c,
    erlang_b,
    estimator_bias,
    survey_recovery,
)
from gapcraft.errors import DomainError
from gapcraft.estimator import step
from gapcraft.harness import Scenario, StrategyConfig, StrategyResult, run_once
from gapcraft.throttles import RateGapper, TokenBucket
from gapcraft.traffic import IntensityProfile, PriorityMix, StreamSpec, generate_stream
from gapcraft.types import CapacityProfile
import oracles

C1 = CapacityProfile.constant(1.0)


class TestErlangB:
    def test_exact_small_cases(self):
        assert erlang_b(1, 1.0) == pytest.approx(0.5, abs=1e-12)
        assert erlang_b(2, 1.0) == pytest.approx(0.2, abs=1e-12)

    def test_zero_servers_blocks_everything(self):
        assert erlang_b(0, 3.7) == 1.0

    def test_zero_load(self):
        assert erlang_b(5, 0.0) == 0.0

    def test_recurrence_matches_direct_sum(self):
        # B(W, a) = (a^W / W!) / sum_k a^k / k!, evaluated with exact
        # fractions-in-floats via incremental terms
        for W in range(0, 51, 5):
            for a in (0.5, 1.0, 2.0, 10.0, 25.0):
                term = 1.0  # a^k / k!
                total = 1.0
                for k in range(1, W + 1):
                    term *= a / k
                    total += term
                direct = term / total
                assert erlang_b(W, a) == pytest.approx(direct, abs=1e-12, rel=1e-12)

    def test_monotone_in_servers(self):
        vals = [erlang_b(w, 5.0) for w in range(0, 30)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_monotone_in_load(self):
        vals = [erlang_b(10, a) for a in np.linspace(0.1, 30.0, 50)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_negative_inputs(self):
        with pytest.raises(DomainError):
            erlang_b(-1, 1.0)
        with pytest.raises(DomainError):
            erlang_b(1, -1.0)
        for load in (math.nan, math.inf):
            with pytest.raises(DomainError, match="load"):
                erlang_b(2, load)


class TestEstimatorBias:
    def test_closed_form_t1_alpha1(self):
        # bias = alpha * exp(-aT) / (1 - exp(-aT)) at T=1, alpha=1
        want = math.exp(-1.0) / (1.0 - math.exp(-1.0))
        assert estimator_bias(1.0, 1.0) == pytest.approx(want, rel=1e-12)

    def test_quadrature_oracle_grid(self):
        # independent route: E[min(dt, T)] by numerical integration of the
        # exponential density, then bias = 1/E - alpha
        for T in (0.5, 1.0, 2.0, 5.0, 10.0):
            for alpha in (0.2, 1.0, 3.0):
                def integrand(x):
                    return min(x, T) * alpha * math.exp(-alpha * x)

                e_min, _ = integrate.quad(integrand, 0.0, 50.0 / alpha, limit=200)
                want = 1.0 / e_min - alpha
                assert estimator_bias(T, alpha) == pytest.approx(want, abs=1e-6)

    def test_bias_positive_and_vanishing(self):
        assert estimator_bias(2.0, 1.0) > 0.0
        assert estimator_bias(40.0, 1.0) < 1e-10

    def test_empirical_grouping(self):
        # simulated arrival-sampled mean matches alpha + bias(T, alpha);
        # the alternative (unweighted) grouping would be ~0.08 off here
        rng = np.random.default_rng(21)
        T, alpha = 2.0, 1.0
        gaps = rng.exponential(1.0 / alpha, size=400000)
        value = 0.0
        total = 0.0
        for dt in gaps:
            value = step(value, dt, 1, T)
            total += value
        mean = total / gaps.size
        want = alpha + estimator_bias(T, alpha)
        assert mean == pytest.approx(want, abs=0.01)

    def test_domain(self):
        # the last pair is finite, but 1/alpha overflows and E[min(dt, T)]
        # comes out nan
        for T, alpha in ((0.0, 1.0), (1.0, 0.0), (math.nan, 1.0), (math.inf, 1.0),
                         (1.0, math.inf), (4.1e152, 2.1e-319)):
            with pytest.raises(DomainError):
                estimator_bias(T, alpha)


def overload_scenario(strategies, rate=2.0, count=2000, num_classes=1):
    profiles = tuple(IntensityProfile.constant(rate / num_classes)
                     for _ in range(num_classes))
    spec = StreamSpec(profiles=profiles, mix=PriorityMix((1.0,)), seed=5, count=count)
    return Scenario(stream_spec=spec, capacity=C1, strategies=strategies)


class TestReqA:
    def test_gapper_bounded_under_overload(self):
        sc = overload_scenario((StrategyConfig("rg", "rate_gapper",
                                               timers=(10.0,), shares=(1.0,)),))
        run = run_once(sc, 0)
        v = check_req_a(run.strategies["rg"], C1, window=10.0, tolerance=0.25)
        assert v.passed
        assert v.evidence["violations"] == 0
        assert v.evidence["windows_checked"] > 0

    def test_detects_unthrottled_overload(self):
        # a watermark far above the load never rejects: Req-A must fail
        sc = overload_scenario((StrategyConfig("tb", "token_bucket",
                                               watermarks=(1e9,)),))
        run = run_once(sc, 0)
        v = check_req_a(run.strategies["tb"], C1, window=10.0, tolerance=0.05)
        assert not v.passed
        assert v.evidence["violations"] > 0

    def test_bad_window(self):
        sc = overload_scenario((StrategyConfig("tb", "token_bucket",
                                               watermarks=(10.0,)),))
        run = run_once(sc, 0)
        with pytest.raises(DomainError):
            check_req_a(run.strategies["tb"], C1, window=0.0)


class TestReqB:
    def test_token_bucket_ordered(self):
        tb = TokenBucket((15.0, 10.0), C1)
        tb.b = 12.0
        v = check_req_b(tb, 0.0, step=0.5, horizon=30.0)
        assert v.passed
        assert v.evidence["basis"] == "theorem"
        assert v.evidence["recovery_times"][0] <= v.evidence["recovery_times"][1]

    def test_gapper_basis_empirical(self):
        rg = RateGapper(1, (1.0,), (2.0, 1.0), C1)
        rg.admit(0.0)
        v = check_req_b(rg, 0.0, step=0.25, horizon=30.0)
        assert v.evidence["basis"] == "empirical"

    def test_survey_counts_rejections(self):
        spec = StreamSpec(profiles=(IntensityProfile.constant(5.0),),
                          mix=PriorityMix((0.5, 0.5)), seed=9, count=1500)
        offers = generate_stream(spec, 0)
        tb = TokenBucket((15.0, 10.0), C1)
        vs = survey_recovery(offers, tb, step=0.5, horizon=30.0, sample_every=10)
        assert vs  # overload run must produce sampled rejections
        assert all(v.passed for v in vs)

    def test_survey_vacuous_without_rejections(self):
        spec = StreamSpec(profiles=(IntensityProfile.constant(0.1),),
                          mix=PriorityMix((1.0,)), seed=9, count=50)
        offers = generate_stream(spec, 0)
        tb = TokenBucket((100.0,), C1)
        assert survey_recovery(offers, tb) == []


class TestReqC:
    def make_two_class_run(self, kind):
        profiles = (IntensityProfile(((0.0, 0.3), (1000.0, 1.6))),
                    IntensityProfile.constant(0.4))
        spec = StreamSpec(profiles=profiles, mix=PriorityMix((1.0,)), seed=0,
                          count=2000)
        if kind == "rate_gapper":
            cfg = StrategyConfig("s", "rate_gapper", timers=(40.0,), shares=(0.2, 0.8))
        else:
            cfg = StrategyConfig("s", "token_bucket", watermarks=(10.0,))
        sc = Scenario(stream_spec=spec, capacity=C1, strategies=(cfg,))
        return run_once(sc, 0), spec

    def test_gapper_protects_under_share_class(self):
        run, spec = self.make_two_class_run("rate_gapper")
        v = check_req_c(run.strategies["s"], (0.2, 0.8), C1, spec.profiles)
        assert v.passed
        assert v.evidence["violations_by_class"][1] == 0
        assert v.evidence["protected_windows_by_class"][1] > 0

    def test_token_bucket_violates(self):
        run, spec = self.make_two_class_run("token_bucket")
        v = check_req_c(run.strategies["s"], (0.2, 0.8), C1, spec.profiles)
        assert not v.passed
        assert v.evidence["violations_by_class"][1] > 0

    def test_windows_unprotected_when_class_over_share(self):
        profiles = (IntensityProfile.constant(5.0),)
        spec = StreamSpec(profiles=profiles, mix=PriorityMix((1.0,)), seed=1,
                          count=500)
        sc = Scenario(stream_spec=spec, capacity=C1, strategies=(
            StrategyConfig("s", "rate_gapper", timers=(1.0,), shares=(1.0,)),))
        run = run_once(sc, 0)
        v = check_req_c(run.strategies["s"], (1.0,), C1, profiles)
        # the sole class offers 5x capacity: nothing is protected, so the
        # check passes vacuously even though rejections happened
        assert v.passed
        assert v.evidence["protected_windows_by_class"] == [0]
        assert run.strategies["s"].rejected > 0

    def test_bad_window(self):
        run, spec = self.make_two_class_run("rate_gapper")
        with pytest.raises(DomainError):
            check_req_c(run.strategies["s"], (0.2, 0.8), C1, spec.profiles,
                        window=-1.0)


# round levels make lambda equal share * c exactly at some points
LEVELS = st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.0, 5.0)


@st.composite
def protection_cases(draw):
    window = draw(st.sampled_from([0.5, 2.5, 10.0]) | st.floats(0.1, 20.0))
    n_win = draw(st.integers(1, 20))
    # times on a quarter-window grid often coincide with window edges and
    # with each other; the floats land anywhere in the span and past it
    times = (st.integers(0, 4 * n_win).map(lambda x: x * window / 4)
             | st.floats(0.0, 1.2 * n_win * window))
    knots = sorted(set(draw(st.lists(times, min_size=1, max_size=4))))
    profile = IntensityProfile(tuple((t, draw(LEVELS)) for t in knots))
    starts = sorted(set(draw(st.lists(times.filter(lambda t: t > 0.0), max_size=6))))
    capacity = CapacityProfile(tuple(
        (t, draw(LEVELS.filter(lambda r: r > 0.0))) for t in [0.0, *starts]))
    share = draw(st.sampled_from([0.5, 1.0]) | st.floats(0.05, 1.0))
    return profile, share, capacity, window, n_win


class TestProtectedWindows:
    """Req-C's protected flags, computed once on the merged grid, against
    the window-by-window loop."""

    @pytest.mark.parametrize("knots, segments, share", [
        # a step up at t=5: lambda(4.99) = 0.998 > 0.5 * c(5-) = 0.5, so the
        # first window is not protected although c(5) = 10 covers lambda(5)
        (((0.0, 0.0), (10.0, 2.0)), ((0.0, 1.0), (5.0, 10.0)), 0.5),
        # a step down at t=10 belongs to the second window, not the first
        (((0.0, 0.8),), ((0.0, 1.0), (10.0, 0.5)), 1.0),
    ])
    def test_one_sided_limits(self, knots, segments, share):
        # one rejection in each of the windows [0, 10) and [10, 20); only the
        # one that protects the class may count
        result = StrategyResult("s", 1, 1, np.array([4.99, 15.0]), np.array([0, 0]),
                                np.array([0, 0]), np.array([False, False]))
        v = check_req_c(result, (share,), CapacityProfile(segments),
                        (IntensityProfile(knots),), window=10.0)
        assert v.evidence["protected_windows_by_class"] == [1]
        assert v.evidence["violations_by_class"] == [1]

    @settings(max_examples=300, deadline=None)
    @given(protection_cases())
    def test_matches_per_window_loop(self, case):
        profile, share, capacity, window, n_win = case
        edges = np.arange(n_win + 1) * window
        assert _protected_windows(profile, share, capacity, edges).tolist() == (
            oracles.protected_windows(profile, share, capacity, window, n_win))
