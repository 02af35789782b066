import math
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from gapcraft.errors import (
    ConfigError,
    DomainError,
    NonPositiveStep,
    TimeRegression,
    UnknownClass,
    UnknownPriority,
)
from gapcraft.estimator import step
from gapcraft.throttles import (
    VARIANTS,
    MixedGapper,
    RateGapper,
    TokenBucket,
    compute_bound_rates,
    probe_recovery_times,
)
from gapcraft.traffic import IntensityProfile, PriorityMix, StreamSpec, generate_stream
from gapcraft.types import CapacityProfile, Decision, Offer
from oracles import (
    ReferenceMixedGapper,
    ReferenceRateGapper,
    ReferenceTokenBucket,
    TokenBucketRateModel,
    compute_used_capacity,
)

C1 = CapacityProfile.constant(1.0)


class TestUsedCapacity:
    def test_mixed_over_under(self):
        u, u1, u2 = compute_used_capacity((0.8, 0.4), (0.2, 0.8), 1.0)
        assert u == pytest.approx(0.6)
        assert u1 == pytest.approx(0.4)
        assert u2 == pytest.approx(0.2)

    def test_all_zero(self):
        assert compute_used_capacity((0.0, 0.0), (0.5, 0.5), 3.0)[0] == 0.0

    def test_all_saturated_gives_c(self):
        u, _, _ = compute_used_capacity((5.0, 5.0), (0.5, 0.5), 2.0)
        assert u == pytest.approx(2.0)


# raw shares, multiples of s_i * c offered, capacity c
BOUND_RATE_ARGS = st.integers(min_value=1, max_value=8).flatmap(lambda n: st.tuples(
    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=n, max_size=n),
    st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=n, max_size=n),
    st.floats(min_value=0.1, max_value=100.0),
))


class TestBoundRates:
    def test_two_class_overload(self):
        g = compute_bound_rates((0.8, 0.4), (0.2, 0.8), 1.0)
        assert g == pytest.approx([0.6, 0.4])
        assert sum(g) == pytest.approx(1.0)

    def test_all_under_share(self):
        g = compute_bound_rates((0.1, 0.5), (0.2, 0.8), 1.0)
        assert g == pytest.approx([0.1, 0.5])

    def test_single_class_full_capacity(self):
        g = compute_bound_rates((2.0,), (1.0,), 1.0)
        assert g == pytest.approx([1.0])

    def test_gprime_two_class(self):
        g = compute_bound_rates((0.8, 0.4), (0.2, 0.8), 1.0, variant="GPrime")
        assert g == pytest.approx([0.65, 0.4])
        assert sum(g) == pytest.approx(1.05)

    def test_gprime_normalized_sums_to_c(self):
        g = compute_bound_rates((0.8, 0.4), (0.2, 0.8), 1.0,
                                variant="GPrime", normalize=True)
        assert sum(g) == pytest.approx(1.0)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            compute_bound_rates((1.0,), (1.0,), 1.0, variant="H")

    def test_degenerate_denominator(self):
        # all estimates at zero: the surplus fraction collapses to 0
        g = compute_bound_rates((0.0, 0.0), (0.5, 0.5), 1.0)
        assert g == [0.0, 0.0]

    @given(BOUND_RATE_ARGS)
    def test_overload_sum_identity(self, args):
        raw_shares, mults, c = args
        total = sum(raw_shares)
        shares = [x / total for x in raw_shares]
        rho = [s * c * m for s, m in zip(shares, mults)]
        # force at least one over-share class, the identity's precondition
        rho[0] = max(rho[0], shares[0] * c * 1.5 + 0.1)
        g = compute_bound_rates(rho, shares, c)
        assert abs(sum(g) - c) <= 1e-9 * max(1.0, c)
        # under-share classes are never capped below their offered estimate
        for gi, ri, si in zip(g, rho, shares):
            if ri <= si * c:
                assert gi == ri

    @given(BOUND_RATE_ARGS, st.sampled_from(["G", "GPrime"]))
    def test_normalize_is_variant_g(self, args, variant):
        raw_shares, mults, c = args
        shares = [x / sum(raw_shares) for x in raw_shares]
        rho = [s * c * m for s, m in zip(shares, mults)]
        assert (compute_bound_rates(rho, shares, c, variant, True)
                == compute_bound_rates(rho, shares, c, "G"))


class TestTokenBucket:
    def test_first_offer_admitted(self):
        tb = TokenBucket((10.0,), C1)
        assert tb.admit(0.0)
        assert tb.b == 1.0

    def test_worked_admit(self):
        tb = TokenBucket((10.0,), C1)
        tb.b = 5.0
        assert tb.admit(2.0)  # drained 3 + impulse = 4 <= 10
        assert tb.b == pytest.approx(4.0)

    def test_worked_reject(self):
        tb = TokenBucket((10.0,), C1)
        tb.b = 10.0
        assert not tb.admit(0.5)  # 9.5 + 1 = 10.5 > 10
        assert tb.b == pytest.approx(9.5)  # fill recomputed without the offer

    def test_admit_on_equality(self):
        tb = TokenBucket((10.0,), C1)
        tb.b = 9.0
        assert tb.admit(0.0)  # provisional exactly 10
        assert tb.b == pytest.approx(10.0)

    def test_floor_clamp(self):
        tb = TokenBucket((10.0,), C1)
        tb.b = 0.5
        assert tb.admit(3.0)
        assert tb.b == 1.0  # never below the fresh impulse

    def test_priority_watermarks(self):
        for priority, expect in ((0, True), (1, False)):
            tb = TokenBucket((15.0, 10.0), C1)
            tb.b = 12.0
            assert tb.admit(0.0, priority=priority) is expect

    def test_time_regression(self):
        tb = TokenBucket((10.0,), C1)
        tb.admit(5.0)
        with pytest.raises(TimeRegression):
            tb.admit(4.0)

    def test_unknown_priority(self):
        with pytest.raises(UnknownPriority):
            TokenBucket((10.0,), C1).admit(0.0, priority=3)

    def test_clone_isolated(self):
        tb = TokenBucket((10.0,), C1)
        tb.admit(0.0)
        c = tb.clone()
        c.admit(1.0)
        assert tb.b == 1.0 and tb.last_time == 0.0

    def test_decide_diagnostics(self):
        tb = TokenBucket((10.0,), C1)
        rec = tb.decide(generate_offers(1)[0])
        assert rec.verdict is Decision.ADMIT
        assert rec.b == tb.b

    def test_burst_bound(self):
        # W back-to-back offers admit, the (W+1)-th rejects
        tb = TokenBucket((5.0,), C1)
        t = 0.0
        for k in range(5):
            t += 1e-9
            assert tb.admit(t)
        assert not tb.admit(t + 1e-9)


def generate_offers(n, rate=2.0, seed=0):
    spec = StreamSpec(profiles=(IntensityProfile.constant(rate),),
                      mix=PriorityMix((1.0,)), seed=seed, count=n)
    return generate_stream(spec, 0)


class TestRateModelEquivalence:
    @pytest.mark.parametrize("r", [0.5, 1.0, 5.0])
    @pytest.mark.parametrize("W", [5.0, 10.0, 20.0])
    def test_matches_token_bucket(self, r, W):
        offers = generate_offers(1000, rate=2.0 * r, seed=17)
        tb = TokenBucket((W,), CapacityProfile.constant(r))
        rm = TokenBucketRateModel(r, W)
        for o in offers:
            d1 = tb.admit(o.arrival)
            d2 = rm.admit(o.arrival)
            assert d1 == d2
            assert abs(tb.b - rm.a_tilde * rm.T) <= 1e-9

    def test_requires_positive_rate(self):
        with pytest.raises(ValueError):
            TokenBucketRateModel(0.0, 10.0)

    def test_clone_isolated(self):
        rm = TokenBucketRateModel(1.0, 10.0)
        rm.admit(0.0)
        c = rm.clone()
        c.admit(1.0)
        assert rm.last_time == 0.0


class TestRateGapper:
    def test_first_offer_from_zero_state(self):
        rg = RateGapper(2, (0.2, 0.8), (10.0,), C1)
        rec = rg.decide(generate_offers(1)[0])
        assert rec.verdict is Decision.ADMIT
        assert rec.rho_hat[0] == pytest.approx(0.1)
        assert rec.alpha_hat[0] == pytest.approx(0.1)
        assert rec.g[0] == pytest.approx(0.1)

    def test_under_share_always_admitted(self):
        # class kept below its share is never rejected, whatever class 0 does
        rg = RateGapper(2, (0.2, 0.8), (10.0,), C1)
        spec = StreamSpec(
            profiles=(IntensityProfile.constant(3.0), IntensityProfile.constant(0.3)),
            mix=PriorityMix((1.0,)), seed=2, count=3000)
        for o in generate_stream(spec, 0):
            admitted = rg.admit(o.arrival, o.class_id, o.priority)
            if o.class_id == 1:
                assert admitted

    def test_admission_subset_invariant(self):
        # a_hat_i <= rho_hat_i at every decision boundary
        rg = RateGapper(1, (1.0,), (5.0,), C1)
        for o in generate_offers(2000, rate=3.0, seed=9):
            rg.admit(o.arrival)
            assert rg.a_hat[0] <= rg.rho[0] + 1e-12

    def test_rejection_keeps_offered_impulse(self):
        rg = RateGapper(1, (1.0,), (10.0,), C1)
        # saturate so the next offer rejects
        t = 0.0
        for _ in range(50):
            t += 0.01
            rg.admit(t)
        rho_before = rg.rho[0]
        a_before = rg.a_hat[0]
        admitted = rg.admit(t + 0.01, 0, 0)
        assert not admitted
        assert rg.rho[0] > rho_before * (1.0 - 0.01 / 10.0) + 0.09  # impulse kept
        assert rg.a_hat[0] < a_before  # pure decay, no impulse

    def test_variant_degeneracy_under_share(self):
        # while the sole class stays under share both variants reduce to
        # g = rho_hat and must decide identically
        offers = generate_offers(2000, rate=0.5, seed=4)
        a = RateGapper(1, (1.0,), (10.0,), C1, variant="G")
        b = RateGapper(1, (1.0,), (10.0,), C1, variant="GPrime")
        for o in offers:
            assert a.admit(o.arrival) == b.admit(o.arrival)

    def test_gprime_more_permissive_single_class_overload(self):
        # over share, GPrime measures the surplus against u1 = 0 and hands
        # out a looser ceiling than G's exact c
        offers = generate_offers(2000, rate=3.0, seed=4)
        a = RateGapper(1, (1.0,), (10.0,), C1, variant="G")
        b = RateGapper(1, (1.0,), (10.0,), C1, variant="GPrime")
        n_a = sum(a.admit(o.arrival) for o in offers)
        n_b = sum(b.admit(o.arrival) for o in offers)
        assert n_b >= n_a

    def test_unknown_class(self):
        with pytest.raises(UnknownClass):
            RateGapper(1, (1.0,), (1.0,), C1).admit(0.0, class_id=5)

    def test_unknown_priority(self):
        with pytest.raises(UnknownPriority):
            RateGapper(1, (1.0,), (1.0,), C1).admit(0.0, priority=1)

    def test_time_regression(self):
        rg = RateGapper(1, (1.0,), (1.0,), C1)
        rg.admit(2.0)
        with pytest.raises(TimeRegression):
            rg.admit(1.0)

    def test_clone_isolated(self):
        rg = RateGapper(2, (0.5, 0.5), (10.0,), C1)
        rg.admit(0.0)
        c = rg.clone()
        c.admit(1.0, class_id=1)
        assert c.rho != rg.rho
        assert rg.last_time == 0.0


class TestMixedGapper:
    def test_first_offer_admitted(self):
        mx = MixedGapper(1, (1.0,), (10.0,), C1)
        assert mx.admit(0.0)
        assert mx.b == 1.0

    def test_relaxation_admits_where_gapper_rejects(self):
        # identical estimator state: alpha exceeds g, but the low bucket
        # fill scales the test down below g
        cap = CapacityProfile.constant(0.5)
        mx = MixedGapper(1, (1.0,), (10.0,), cap, timers=(10.0,))
        rg = RateGapper(1, (1.0,), (10.0,), cap)
        mx.rho = [1.0]
        mx.a_hat = [0.7]
        rg.rho = [1.0]
        rg.a_hat = [0.7]
        mx.b = 4.0
        t = 0.0  # dt=0: no decay, bucket ratio (4+1)/10 = 0.5
        assert not rg.admit(t)     # alpha 0.8 > g 0.5
        assert mx.admit(t)         # 0.5 * 0.8 = 0.4 <= 0.5

    def test_full_bucket_degenerates_to_gapper(self):
        # at b = W the relaxation factor is 1: decisions match the gapper
        mx = MixedGapper(1, (1.0,), (10.0,), C1, timers=(10.0,))
        rg = RateGapper(1, (1.0,), (10.0,), C1)
        state_rho, state_a = [1.5], [0.9]
        mx.rho, mx.a_hat, mx.b = list(state_rho), list(state_a), 9.0
        rg.rho, rg.a_hat = list(state_rho), list(state_a)
        assert mx.admit(0.0) == rg.admit(0.0)

    def test_fill_clamped_to_w_max(self):
        mx = MixedGapper(1, (1.0,), (5.0,), C1, timers=(100.0,))
        t = 0.0
        for _ in range(40):
            t += 1e-6
            mx.admit(t)
        assert mx.b <= 5.0

    def test_dominates_gapper_per_decision(self):
        # from any shared estimator state, a gapper admission implies a
        # mixed admission (the bucket ratio b/W_max is <= 1); the states
        # drift apart over a stream, so compare decision by decision
        offers = generate_offers(3000, rate=2.0, seed=6)
        mx = MixedGapper(1, (1.0,), (10.0,), C1, timers=(10.0,))
        for o in offers:
            rg = RateGapper(1, (1.0,), (10.0,), C1)
            rg.rho = list(mx.rho)
            rg.a_hat = list(mx.a_hat)
            rg.last_time = mx.last_time
            g_admit = rg.admit(o.arrival)
            x_admit = mx.admit(o.arrival)
            if g_admit:
                assert x_admit

    def test_default_timers_track_rate(self):
        # without explicit timers T = W/r(t): halving r doubles the impulse
        cap = CapacityProfile(((0.0, 1.0), (100.0, 2.0)))
        mx = MixedGapper(1, (1.0,), (10.0,), cap)
        mx.admit(0.0)
        impulse_lo = mx.rho[0]
        mx2 = MixedGapper(1, (1.0,), (10.0,), cap)
        mx2.admit(200.0)
        assert mx2.rho[0] == pytest.approx(2.0 * impulse_lo)

    def test_clone_isolated(self):
        mx = MixedGapper(2, (0.5, 0.5), (10.0,), C1)
        mx.admit(0.0)
        rho, a_hat = list(mx.rho), list(mx.a_hat)
        c = mx.clone()
        assert c.admit(0.5, class_id=1)
        assert c.b != mx.b and c.rho != rho and c.a_hat != a_hat
        assert mx.b == 1.0 and mx.rho == rho and mx.a_hat == a_hat
        assert mx.last_time == 0.0


# (constructor call, the parameter its ConfigError must name)
BAD_CONSTRUCTIONS = {
    "rate_gapper-timer-0": (lambda: RateGapper(1, (1.0,), (0.0,), C1), "timers"),
    "rate_gapper-timer-negative": (lambda: RateGapper(1, (1.0,), (-1.0,), C1), "timers"),
    "rate_gapper-timer-inf": (lambda: RateGapper(1, (1.0,), (math.inf,), C1), "timers"),
    "rate_gapper-timers-none": (lambda: RateGapper(1, (1.0,), None, C1), "timers"),
    "rate_gapper-timers-empty": (lambda: RateGapper(1, (1.0,), (), C1), "timers"),
    "rate_gapper-shares-count": (lambda: RateGapper(2, (1.0,), (1.0,), C1), "shares"),
    "rate_gapper-shares-sum": (lambda: RateGapper(1, (0.5,), (1.0,), C1), "shares"),
    "rate_gapper-shares-none": (lambda: RateGapper(1, None, (1.0,), C1), "shares"),
    "rate_gapper-variant": (
        lambda: RateGapper(1, (1.0,), (1.0,), C1, variant="H"), "variant"),
    "mixed-timers-count": (
        lambda: MixedGapper(1, (1.0,), (10.0, 5.0), C1, timers=(1.0,)), "timers"),
    "mixed-watermark-0": (lambda: MixedGapper(1, (1.0,), (0.0,), C1), "watermarks"),
    "mixed-watermarks-none": (lambda: MixedGapper(1, (1.0,), None, C1), "watermarks"),
    "mixed-shares-count": (lambda: MixedGapper(1, (0.5, 0.5), (10.0,), C1), "shares"),
    "mixed-variant": (
        lambda: MixedGapper(1, (1.0,), (10.0,), C1, variant="GPrim"), "variant"),
    "token_bucket-watermark-nan": (lambda: TokenBucket((math.nan,), C1), "watermarks"),
    "token_bucket-watermark-0": (lambda: TokenBucket((0.0,), C1), "watermarks"),
    "token_bucket-watermarks-empty": (lambda: TokenBucket((), C1), "watermarks"),
    "token_bucket-watermarks-none": (lambda: TokenBucket(None, C1), "watermarks"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONSTRUCTIONS))
def test_constructor_refuses_bad_parameter(case):
    build, param = BAD_CONSTRUCTIONS[case]
    with pytest.raises(ConfigError) as info:
        build()
    assert type(info.value) is not ConfigError
    assert info.value.param == param


THROTTLES = {
    "token_bucket": lambda: TokenBucket((10.0,), C1),
    "rate_model": lambda: TokenBucketRateModel(1.0, 10.0),
    "rate_gapper": lambda: RateGapper(1, (1.0,), (10.0,), C1),
    "mixed": lambda: MixedGapper(1, (1.0,), (10.0,), C1),
}


@pytest.mark.parametrize("t", [math.nan, math.inf])
@pytest.mark.parametrize("kind", sorted(THROTTLES))
def test_non_finite_time_refused(kind, t):
    throttle = THROTTLES[kind]()
    assert throttle.admit(1.0)
    with pytest.raises(TimeRegression):
        throttle.admit(t)
    assert throttle.last_time == 1.0
    assert throttle.admit(2.0)


@st.composite
def gapper_runs(draw):
    """A gapper (plain, or bucket-relaxed with explicit or capacity-coupled
    timers) and an event sequence of (gap, class, priority)."""
    n = draw(st.integers(min_value=1, max_value=8))
    m = draw(st.integers(min_value=1, max_value=3))
    raw = draw(st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=n, max_size=n))
    shares = [x / sum(raw) for x in raw]
    capacity = CapacityProfile(((0.0, draw(st.floats(min_value=0.5, max_value=20.0))),
                                (5.0, draw(st.floats(min_value=0.5, max_value=20.0)))))
    timers = draw(st.lists(st.floats(min_value=0.05, max_value=10.0), min_size=m, max_size=m))
    watermarks = draw(st.lists(st.floats(min_value=1.0, max_value=30.0), min_size=m, max_size=m))
    form = draw(st.sampled_from(["plain", "mixed", "mixed_coupled"]))
    if form == "plain":
        gapper = RateGapper(n, shares, timers, capacity)
    else:
        gapper = MixedGapper(n, shares, watermarks, capacity,
                             timers=timers if form == "mixed" else None)
    events = draw(st.lists(st.tuples(st.floats(min_value=0.0, max_value=2.0),
                                     st.integers(min_value=0, max_value=n - 1),
                                     st.integers(min_value=0, max_value=m - 1)),
                           min_size=1, max_size=60))
    return gapper, events


@settings(max_examples=150, deadline=None)
@given(gapper_runs())
def test_gapper_estimators_follow_scalar_recursion(run):
    # after every event each class's rho_hat and a_hat equal the scalar
    # estimator step with the arriving offer's timer, bit for bit
    gapper, events = run
    t = 0.0
    for gap, k, j in events:
        t += gap
        if gapper.timers is None:  # capacity-coupled T_j = W_j / c(t)
            T = gapper.watermarks[j] / gapper.capacity.rate_at(t)
        else:
            T = gapper.timers[j]
        rho, a_hat = list(gapper.rho), list(gapper.a_hat)
        dt = t - gapper.last_time
        admitted = gapper.admit(t, k, j)
        assert gapper.rho == [step(v, dt, i == k, T) for i, v in enumerate(rho)]
        assert gapper.a_hat == [step(v, dt, admitted and i == k, T)
                                for i, v in enumerate(a_hat)]


@st.composite
def reference_runs(draw):
    """A throttle factory (new or reference class) of any kind on a stepped
    capacity, sorted event times that hit breakpoints, repeat and jump
    several segments, and where to clone and where to set b/last_time."""
    n = draw(st.integers(min_value=1, max_value=8))
    m = draw(st.integers(min_value=1, max_value=3))
    raw = draw(st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=n, max_size=n))
    shares = [x / sum(raw) for x in raw]
    n_seg = draw(st.integers(min_value=1, max_value=50))
    lengths = draw(st.lists(st.floats(min_value=0.01, max_value=4.0),
                            min_size=n_seg - 1, max_size=n_seg - 1))
    starts = list(accumulate(lengths, initial=0.0))
    rates = draw(st.lists(st.floats(min_value=0.5, max_value=20.0),
                          min_size=n_seg, max_size=n_seg))
    capacity = CapacityProfile(tuple(zip(starts, rates)))
    timers = draw(st.lists(st.floats(min_value=0.05, max_value=10.0), min_size=m, max_size=m))
    watermarks = draw(st.lists(st.floats(min_value=1.0, max_value=30.0), min_size=m, max_size=m))
    variant = draw(st.sampled_from(VARIANTS))
    kind = draw(st.sampled_from(["token_bucket", "rate_gapper", "mixed", "mixed_coupled"]))

    def build(reference: bool):
        if kind == "token_bucket":
            return (ReferenceTokenBucket if reference else TokenBucket)(watermarks, capacity)
        if kind == "rate_gapper":
            cls = ReferenceRateGapper if reference else RateGapper
            return cls(n, shares, timers, capacity, variant=variant)
        cls = ReferenceMixedGapper if reference else MixedGapper
        return cls(n, shares, watermarks, capacity, variant=variant,
                   timers=timers if kind == "mixed" else None)

    instants = st.sampled_from(starts) | st.floats(min_value=0.0, max_value=starts[-1] + 10.0)
    times = sorted(draw(st.lists(instants, min_size=1, max_size=80)))
    events = [(t, draw(st.integers(min_value=0, max_value=n - 1)),
               draw(st.integers(min_value=0, max_value=m - 1))) for t in times]
    clone_at = draw(st.integers(min_value=0, max_value=len(events) - 1))
    reset_at = draw(st.integers(min_value=0, max_value=len(events) - 1))
    return build, starts, events, clone_at, reset_at, draw(instants), draw(
        st.floats(min_value=0.0, max_value=40.0))


def _state(throttle):
    return (throttle.b, getattr(throttle, "rho", None), getattr(throttle, "a_hat", None),
            throttle.last_time)


@settings(max_examples=300, deadline=None)
@given(reference_runs())
def test_hot_path_matches_reference(run):
    # admit and decide agree with the reference throttles (tests/oracles.py)
    # bit for bit after every event, also on a clone advanced past a
    # breakpoint and after b and last_time are set directly
    build, starts, events, clone_at, reset_at, reset_last, reset_b = run
    new, ref, new_d, ref_d = build(False), build(True), build(False), build(True)
    for i, (t, k, j) in enumerate(events):
        if i == reset_at:
            for throttle in (new, ref, new_d, ref_d):
                throttle.last_time = min(reset_last, t)
                if throttle.b is not None:
                    throttle.b = reset_b
        if i == clone_at:
            c_new, c_ref = new.clone(), ref.clone()
            t_step = next((s for s in starts if s > new.last_time), new.last_time + 1.0)
            for u in (t_step, t_step, t_step + 0.5):
                assert c_new.admit(u, k, j) == c_ref.admit(u, k, j)
                assert _state(c_new) == _state(c_ref)
        verdict = new.admit(t, k, j)
        assert verdict == ref.admit(t, k, j)
        record = new_d.decide(Offer(t, k, j))
        assert record == ref_d.decide(Offer(t, k, j))
        assert (record.verdict is Decision.ADMIT) == verdict
        assert _state(new) == _state(ref) == _state(new_d) == _state(ref_d)


class TestProbeRecovery:
    def test_token_bucket_priority_order(self):
        tb = TokenBucket((15.0, 10.0), C1)
        tb.b = 12.0
        tb.last_time = 0.0
        times = probe_recovery_times(tb, 0.0, step=0.5, horizon=30.0)
        # high priority readmits immediately, low only after ~3s of drain
        assert times[0] == pytest.approx(0.5)
        assert times[1] == pytest.approx(3.0)
        assert times[0] <= times[1]

    def test_equal_watermarks_equal_times(self):
        tb = TokenBucket((10.0, 10.0), C1)
        tb.b = 12.0
        times = probe_recovery_times(tb, 0.0, step=0.25, horizon=30.0)
        assert times[0] == times[1]

    def test_none_when_horizon_too_short(self):
        tb = TokenBucket((10.0,), C1)
        tb.b = 50.0
        times = probe_recovery_times(tb, 0.0, step=1.0, horizon=5.0)
        assert times[0] is None

    def test_original_untouched(self):
        tb = TokenBucket((10.0,), C1)
        tb.b = 12.0
        probe_recovery_times(tb, 0.0, step=0.5, horizon=10.0)
        assert tb.b == 12.0 and tb.last_time == 0.0

    def test_bad_step(self):
        with pytest.raises(NonPositiveStep):
            probe_recovery_times(TokenBucket((10.0,), C1), 0.0, 0.0, 10.0)
        with pytest.raises(DomainError, match="probes of step"):
            probe_recovery_times(TokenBucket((10.0,), C1), 0.0, 1e-12, 5.0)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=10.5, max_value=40.0))
    def test_monotone_in_watermark_order(self, fill):
        tb = TokenBucket((30.0, 20.0, 10.0), C1)
        tb.b = fill
        times = probe_recovery_times(tb, 0.0, step=0.25, horizon=60.0)
        vals = [times[j] if times[j] is not None else math.inf for j in range(3)]
        assert vals == sorted(vals)
