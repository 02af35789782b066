"""End-to-end acceptance gate.

Each test covers one numbered release criterion and prints a single
``ACCEPTANCE <n>: PASS`` line (pytest -s / -v shows them); tolerances and
runtime budgets are pinned in the assertions.  Statistical criteria use the
canned scenario files shipped with the package so the numbers are
reproducible bit for bit.
"""

import math
import time
from importlib import resources

import numpy as np

from gapcraft.analysis import check_req_a, erlang_b, estimator_bias, survey_recovery
from gapcraft.estimator import step
from gapcraft.harness import Scenario, StrategyConfig, run_once, summarize
from gapcraft.scenario_io import load_scenario
from gapcraft.throttles import (
    MixedGapper,
    RateGapper,
    TokenBucket,
    compute_bound_rates,
)
from gapcraft.traffic import IntensityProfile, PriorityMix, StreamSpec, generate_stream
from gapcraft.types import CapacityProfile
from oracles import TokenBucketRateModel

SCENARIOS = resources.files("gapcraft") / "scenarios"


def report(n, detail):
    print(f"\nACCEPTANCE {n}: PASS ({detail})")


def poisson_offers(rate, n, seed, mix=(1.0,)):
    spec = StreamSpec(profiles=(IntensityProfile.constant(rate),),
                      mix=PriorityMix(mix), seed=seed, count=n)
    return generate_stream(spec, 0)


def test_acceptance_01_bounding_identity_fuzz():
    """10^5 random share/estimate tuples with an over-share class:
    the variant-G ceilings must sum to the capacity exactly (<= 1e-9)."""
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    n = 100000
    sizes = rng.integers(1, 9, size=n)
    gammas = rng.gamma(1.0, size=(n, 8))
    cs = rng.uniform(1e-6, 100.0, size=n)
    mults = rng.uniform(0.0, 3.0, size=(n, 8))
    over_pick = rng.random(size=n)
    # Python lists, with the shares of all rows of one length normalised in
    # one numpy division (equal to normalising row by row): per-element numpy
    # indexing would cost more than the 10^5 calls under test
    share_rows = [None] * n
    for k in range(1, 9):
        rows = np.flatnonzero(sizes == k)
        block = gammas[rows, :k]
        normalised = (block / block.sum(axis=1, keepdims=True)).tolist()
        for i, shares in zip(rows.tolist(), normalised):
            share_rows[i] = shares
    cs, mults, over_pick = (a.tolist() for a in (cs, mults, over_pick))
    worst = 0.0
    for i in range(n):
        shares = share_rows[i]
        k = len(shares)
        c = cs[i]
        rho = [shares[j] * c * mults[i][j] for j in range(k)]
        j = int(over_pick[i] * k)
        if rho[j] <= shares[j] * c:
            rho[j] = shares[j] * c * 1.5 + 0.1
        g = compute_bound_rates(rho, shares, c)
        err = abs(sum(g) - c)
        if err > worst:
            worst = err
    elapsed = time.monotonic() - t0
    assert worst <= 1e-9, f"worst |sum(g) - c| = {worst:.3e}"
    assert elapsed < 1.0, f"fuzz took {elapsed:.2f}s (budget 1s)"
    report(1, f"worst deviation {worst:.2e}, {elapsed:.2f}s")


def test_acceptance_02_bucket_rate_model_equivalence():
    """Token bucket and its rate-model restatement make identical decisions
    and satisfy b = a_tilde * T to 1e-9 on 10^4-offer streams."""
    mismatches = 0
    worst = 0.0
    for r in (0.5, 1.0, 5.0):
        offers = poisson_offers(2.0 * r, 10000, seed=int(10 * r))
        for W in (5.0, 10.0, 20.0):
            tb = TokenBucket((W,), CapacityProfile.constant(r))
            rm = TokenBucketRateModel(r, W)
            for o in offers:
                if tb.admit(o.arrival) != rm.admit(o.arrival):
                    mismatches += 1
                worst = max(worst, abs(tb.b - rm.a_tilde * rm.T))
    assert mismatches == 0
    assert worst <= 1e-9, f"worst |b - aT| = {worst:.3e}"
    report(2, f"9 (r, W) combos, 0 mismatches, worst |b - aT| {worst:.2e}")


def test_acceptance_03_class_fairness_reproduction():
    """Class B stays under its 80% share: the estimator strategies reject
    zero class-B offers in all 100 replications; the share-blind token
    bucket rejects class B in at least 90."""
    t0 = time.monotonic()
    sf = load_scenario(SCENARIOS / "shares_20_80.json")
    gapper_b = []
    mixed_b = []
    bucket_b = []
    for r in range(100):
        run = run_once(sf.scenario, r)
        gapper_b.append(run.strategies["rate_gapping"].reject_by_class[1])
        mixed_b.append(run.strategies["mixed"].reject_by_class[1])
        bucket_b.append(run.strategies["token_bucket"].reject_by_class[1])
    elapsed = time.monotonic() - t0
    assert max(gapper_b) == 0, f"rate gapper rejected class B: {max(gapper_b)}"
    assert max(mixed_b) == 0, f"mixed rejected class B: {max(mixed_b)}"
    bucket_hits = sum(b > 0 for b in bucket_b)
    assert bucket_hits >= 90, f"bucket rejected class B in only {bucket_hits} reps"
    assert elapsed < 30.0, f"took {elapsed:.1f}s (budget 30s)"
    report(3, f"gapper/mixed 0 class-B rejections, bucket {bucket_hits}/100 reps, "
              f"{elapsed:.1f}s")


def test_acceptance_04_throughput_bound_under_overload():
    """Sustained 2x overload: steady-state windowed admission rate mean over
    100 replications stays within 2% (gapper) / 5% (mixed) of capacity."""
    t0 = time.monotonic()
    cap = CapacityProfile.constant(1.0)
    spec = StreamSpec(profiles=(IntensityProfile.constant(2.0),),
                      mix=PriorityMix((1.0,)), seed=11, duration=1000.0)
    scenario = Scenario(stream_spec=spec, capacity=cap, strategies=(
        StrategyConfig("rg", "rate_gapper", timers=(10.0,), shares=(1.0,)),
        StrategyConfig("mx", "mixed", watermarks=(10.0,), timers=(10.0,),
                       shares=(1.0,)),
    ), replications=100)
    means = {"rg": [], "mx": []}
    for r in range(100):
        run = run_once(scenario, r)
        for name in means:
            v = check_req_a(run.strategies[name], cap, window=10.0, tolerance=0.5)
            means[name].append(v.evidence["steady_mean_rate"])
    rg_mean = sum(means["rg"]) / len(means["rg"])
    mx_mean = sum(means["mx"]) / len(means["mx"])
    elapsed = time.monotonic() - t0
    assert rg_mean <= 1.02, f"gapper steady mean {rg_mean:.4f} > 1.02"
    assert mx_mean <= 1.05, f"mixed steady mean {mx_mean:.4f} > 1.05"
    assert elapsed < 30.0, f"took {elapsed:.1f}s (budget 30s)"
    report(4, f"steady means: gapper {rg_mean:.4f} <= 1.02, "
              f"mixed {mx_mean:.4f} <= 1.05, {elapsed:.1f}s")


def _reject_share_means(scenario_name, replications=100):
    sf = load_scenario(SCENARIOS / scenario_name)
    batch = summarize([run_once(sf.scenario, r) for r in range(replications)])
    return {name: [d["mean"] for d in stats["reject_share_by_priority"]]
            for name, stats in batch.strategies.items()}


def test_acceptance_05_equal_settings_symmetric_rejections():
    """Critical load with identical per-priority settings: every strategy
    splits rejections 50/50 (+-0.03) between the priorities."""
    shares = _reject_share_means("table1_row4.json")
    for name, (high, low) in shares.items():
        assert abs(high - 0.5) <= 0.03, f"{name} high share {high:.4f}"
        assert abs(low - 0.5) <= 0.03, f"{name} low share {low:.4f}"
    detail = ", ".join(f"{n} {s[0]:.3f}/{s[1]:.3f}" for n, s in shares.items())
    report(5, detail)


def test_acceptance_06_priority_ordered_rejections():
    """Critical load with watermarks 20/10 (timers W/c): bucket and mixed
    push essentially all rejections onto the low priority; the gapper's
    high-priority share lands in the documented [0.21, 0.41] band."""
    shares = _reject_share_means("table1_row3.json")
    assert shares["token_bucket"][0] <= 0.02, shares["token_bucket"]
    assert shares["mixed"][0] <= 0.02, shares["mixed"]
    rg_high = shares["rate_gapping"][0]
    assert 0.21 <= rg_high <= 0.41, f"gapper high share {rg_high:.4f}"
    report(6, f"bucket {shares['token_bucket'][0]:.4f}, "
              f"mixed {shares['mixed'][0]:.4f}, gapper {rg_high:.4f}")


def test_acceptance_07_ramp_throughput_ordering():
    """0.8 -> 2.0 offers/sec ramp against capacity 1: mean admitted
    fractions order gapper <= mixed <= bucket, each within [0.56, 0.77]."""
    sf = load_scenario(SCENARIOS / "ramp_throughput.json")
    batch = summarize([run_once(sf.scenario, r) for r in range(50)])
    frac = {name: stats["admitted_fraction"]["mean"]
            for name, stats in batch.strategies.items()}
    assert frac["rate_gapping"] <= frac["mixed"] <= frac["token_bucket"], frac
    for name, f in frac.items():
        assert 0.56 <= f <= 0.77, f"{name} admitted fraction {f:.4f}"
    report(7, f"gapper {frac['rate_gapping']:.4f} <= mixed {frac['mixed']:.4f} "
              f"<= bucket {frac['token_bucket']:.4f}")


def test_acceptance_08_recovery_time_ordering():
    """After every rejection the high priority readmits no later than the
    low one: exact for the token bucket, >= 95% for the estimator throttles."""
    cap = CapacityProfile.constant(10.0)
    spec = StreamSpec(profiles=(IntensityProfile.constant(20.0),),
                      mix=PriorityMix((0.5, 0.5)), seed=3, count=10000)
    offers = generate_stream(spec, 0)

    bucket = TokenBucket((20.0, 10.0), cap)
    verdicts = survey_recovery(offers, bucket, step=0.1, horizon=10.0)
    assert verdicts, "overload run produced no rejections to probe"
    bad = sum(not v.passed for v in verdicts)
    assert bad == 0, f"bucket recovery ordering violated {bad} times"

    fracs = {}
    for name, throttle in (
        ("gapper", RateGapper(1, (1.0,), (2.0, 1.0), cap)),
        ("mixed", MixedGapper(1, (1.0,), (20.0, 10.0), cap, timers=(2.0, 1.0))),
    ):
        vs = survey_recovery(offers, throttle, step=0.25, horizon=30.0,
                             sample_every=20)
        assert vs
        fracs[name] = sum(v.passed for v in vs) / len(vs)
        assert fracs[name] >= 0.95, f"{name} ordered fraction {fracs[name]:.3f}"
    report(8, f"bucket {len(verdicts)} probes 0 violations; "
              f"gapper {fracs['gapper']:.3f}, mixed {fracs['mixed']:.3f}")


def test_acceptance_09_closed_forms():
    """Blocking probability and estimator-bias closed forms against exact
    values, a direct-sum oracle, and numerical quadrature."""
    from scipy import integrate

    t0 = time.monotonic()
    assert abs(erlang_b(1, 1.0) - 0.5) <= 1e-12
    assert abs(erlang_b(2, 1.0) - 0.2) <= 1e-12
    for W in range(0, 51):
        for a in (0.5, 1.0, 5.0, 20.0):
            term = 1.0
            total = 1.0
            for k in range(1, W + 1):
                term *= a / k
                total += term
            assert abs(erlang_b(W, a) - term / total) <= 1e-12

    worst = 0.0
    for T in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
        for alpha in (0.1, 0.5, 1.0, 2.0, 5.0):
            def integrand(x):
                return min(x, T) * alpha * math.exp(-alpha * x)

            e_min, _ = integrate.quad(integrand, 0.0, 60.0 / alpha, limit=200)
            want = 1.0 / e_min - alpha
            worst = max(worst, abs(estimator_bias(T, alpha) - want))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-6, f"worst quadrature gap {worst:.2e}"
    assert elapsed < 1.0, f"took {elapsed:.2f}s (budget 1s)"
    report(9, f"erlang exact, bias worst gap {worst:.2e}, {elapsed:.2f}s")


def test_acceptance_10_estimator_statistics():
    """Arrival-sampled estimator mean on Poisson(1) input with T=10 sits in
    [0.9, 1.3]; invariants survive 10^6 fuzzed transitions."""
    t0 = time.monotonic()
    rng = np.random.default_rng(2)
    gaps = rng.exponential(1.0, size=100000)
    T = 10.0
    value = 0.0
    total = 0.0
    for dt in gaps:
        value = step(value, dt, 1, T)
        total += value
    mean = total / gaps.size
    assert 0.9 <= mean <= 1.3, f"sampled mean {mean:.4f}"

    n = 1000000
    dts = rng.uniform(0.0, 30.0, size=n)
    chis = rng.integers(0, 2, size=n)
    timers = rng.uniform(1e-3, 20.0, size=n)
    vals = rng.uniform(0.0, 100.0, size=n)
    for i in range(n):
        v = step(vals[i], dts[i], chis[i], timers[i])
        assert v >= 0.0
        if dts[i] >= timers[i]:
            assert v == chis[i] / timers[i]  # history fully forgotten
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"took {elapsed:.1f}s (budget 5s)"
    report(10, f"sampled mean {mean:.4f}, 1e6 fuzzed updates clean, {elapsed:.1f}s")
