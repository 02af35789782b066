import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gapcraft import harness
from gapcraft.errors import ConfigError, UnknownPriority
from gapcraft.harness import (
    MIN_LANES,
    Scenario,
    StrategyConfig,
    build_throttle,
    export_report,
    export_trace_csv,
    export_windowed_rates_csv,
    run_batch,
    run_once,
    run_replications,
    run_stream,
    summarize,
)
from gapcraft.throttles import MixedGapper, RateGapper, TokenBucket
from gapcraft.traffic import (
    IntensityProfile,
    PriorityMix,
    StreamSpec,
    generate_stream,
    stream_columns,
)
from gapcraft.types import CapacityProfile, Offer
from oracles import TokenBucketRateModel


def make_scenario(strategies=None, replications=1, trace=False, rate=2.0,
                  count=500, num_classes=1, mix=(1.0,)):
    profiles = tuple(IntensityProfile.constant(rate / num_classes)
                     for _ in range(num_classes))
    spec = StreamSpec(profiles=profiles, mix=PriorityMix(mix), seed=3, count=count)
    if strategies is None:
        strategies = (
            StrategyConfig("tb", "token_bucket", watermarks=(10.0,) * len(mix)),
            StrategyConfig("rg", "rate_gapper", timers=(10.0,) * len(mix),
                           shares=tuple(1.0 / num_classes for _ in range(num_classes))),
        )
    return Scenario(stream_spec=spec, capacity=CapacityProfile.constant(1.0),
                    strategies=strategies, replications=replications, trace=trace)


class TestScenarioValidation:
    def test_needs_strategies(self):
        with pytest.raises(ConfigError):
            make_scenario(strategies=())

    def test_unique_names(self):
        dup = (StrategyConfig("x", "token_bucket", watermarks=(10.0,)),) * 2
        with pytest.raises(ConfigError):
            make_scenario(strategies=dup)

    def test_replications_positive(self):
        with pytest.raises(ConfigError):
            make_scenario(replications=0)


class TestBuildThrottle:
    def test_kinds(self):
        sc = make_scenario()
        assert isinstance(build_throttle(
            StrategyConfig("a", "token_bucket", watermarks=(10.0,)), sc), TokenBucket)
        assert isinstance(build_throttle(
            StrategyConfig("c", "rate_gapper", timers=(1.0,), shares=(1.0,)), sc),
            RateGapper)
        assert isinstance(build_throttle(
            StrategyConfig("d", "mixed", watermarks=(10.0,), shares=(1.0,)), sc),
            MixedGapper)

    @pytest.mark.parametrize("kind", ["rate_gapper", "mixed"])
    @pytest.mark.parametrize("variant", ["G", "GPrime"])
    def test_normalize_selects_variant_g(self, kind, variant):
        sc = make_scenario()
        for normalize, want in ((False, variant), (True, "G")):
            cfg = StrategyConfig("s", kind, watermarks=(10.0,), timers=(1.0,),
                                 shares=(1.0,), variant=variant, normalize=normalize)
            assert build_throttle(cfg, sc).variant == want

    @pytest.mark.parametrize("cfg", [
        StrategyConfig("a", "token_bucket"),
        StrategyConfig("b", "rate_model", watermarks=(10.0,)),  # kind removed
        StrategyConfig("c", "rate_gapper", timers=(1.0,)),
        StrategyConfig("d", "rate_gapper", shares=(1.0,)),
        StrategyConfig("e", "mixed", shares=(1.0,)),
        StrategyConfig("f", "mixed", watermarks=(10.0,)),
        StrategyConfig("g", "nonsense"),
    ])
    def test_missing_params(self, cfg):
        with pytest.raises(ConfigError):
            build_throttle(cfg, make_scenario())


class TestRunStream:
    def test_conservation(self):
        sc = make_scenario()
        run = run_once(sc, 0)
        for res in run.strategies.values():
            assert res.admitted + res.rejected == run.offers
            assert sum(res.admit_by_class) == res.admitted
            assert sum(res.reject_by_class) == res.rejected
            assert sum(res.admit_by_priority) == res.admitted
            assert sum(res.reject_by_priority) == res.rejected

    def test_trace_records_every_offer(self):
        run = run_once(make_scenario(trace=True, count=200), 0)
        for res in run.strategies.values():
            assert len(res.trace) == run.offers

    def test_no_trace_by_default(self):
        run = run_once(make_scenario(), 0)
        assert all(r.trace is None for r in run.strategies.values())

    def test_strategies_share_stream(self):
        # both strategies saw the same offers: totals and end times agree
        run = run_once(make_scenario(), 0)
        ends = {r.end_time for r in run.strategies.values()}
        assert len(ends) == 1

    def test_reject_shares_nan_when_no_rejections(self):
        sc = make_scenario(rate=0.2)  # underload: nothing rejected
        run = run_once(sc, 0)
        tb = run.strategies["tb"]
        if tb.rejected == 0:
            assert all(math.isnan(x) for x in tb.reject_shares_by_priority())

    def test_windowed_rates_mass(self):
        run = run_once(make_scenario(count=400), 0)
        res = run.strategies["tb"]
        starts, agg, per_class = res.windowed_rates(10.0)
        assert len(starts) == len(agg)
        total = sum(r * 10.0 for r in agg)
        assert total == pytest.approx(res.admitted)
        for k in range(res.num_classes):
            assert sum(r * 10.0 for r in per_class[k]) == pytest.approx(
                res.admit_by_class[k])

    def test_run_stream_direct(self):
        offers = generate_stream(make_scenario().stream_spec, 0)
        tb = TokenBucket((10.0,), CapacityProfile.constant(1.0))
        res = run_stream(offers, tb, "tb", 1)
        assert res.total == len(offers)
        assert res.end_time == offers[-1].arrival


class TestBatch:
    def test_single_replication_zero_std(self):
        report = run_batch(make_scenario(replications=1))
        for stats in report.strategies.values():
            assert stats["admitted"]["std"] == 0.0
            assert stats["admitted"]["n"] == 1

    def test_deterministic_json(self):
        a = run_batch(make_scenario(replications=3)).to_json()
        b = run_batch(make_scenario(replications=3)).to_json()
        assert a == b

    def test_summarize_order_independent(self):
        runs = [run_once(make_scenario(), r) for r in range(4)]
        fwd = summarize(runs).to_json()
        rev = summarize(list(reversed(runs))).to_json()
        assert fwd == rev

    def test_summarize_empty(self):
        with pytest.raises(ConfigError):
            summarize([])

    def test_mean_matches_hand_average(self):
        runs = [run_once(make_scenario(), r) for r in range(3)]
        report = summarize(runs)
        want = sum(r.strategies["tb"].admitted for r in runs) / 3
        assert report.strategies["tb"]["admitted"]["mean"] == pytest.approx(want)

    def test_traced_batch_records_replication_zero(self):
        sc = make_scenario(replications=3, trace=True, count=50)
        runs = run_replications(sc)
        assert [r.replication for r in runs] == [0, 1, 2]
        assert [r.strategies["tb"].trace is not None for r in runs] == [True, False, False]
        assert summarize(runs).to_json() == run_batch(make_scenario(
            replications=3, count=50)).to_json()
        # run_once itself traces whatever replication it is given
        assert len(run_once(sc, 2).strategies["tb"].trace) == runs[2].offers


class TestExports:
    def test_report_round_trip(self, tmp_path):
        report = run_batch(make_scenario(replications=2))
        path = tmp_path / "report.json"
        export_report(report, path)
        doc = json.loads(path.read_text())
        assert doc["replications"] == 2
        assert set(doc["strategies"]) == {"tb", "rg"}

    def test_trace_csv(self, tmp_path):
        run = run_once(make_scenario(trace=True, count=100), 0)
        path = tmp_path / "trace.csv"
        export_trace_csv(run, path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header[:6] == ["idx", "t", "class", "priority", "strategy", "decision"]
        assert len(lines) == 1 + 2 * run.offers  # two traced strategies

    def test_trace_csv_strategy_columns(self, tmp_path):
        import csv

        run = run_once(make_scenario(trace=True, count=50), 0)
        path = tmp_path / "trace.csv"
        export_trace_csv(run, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            if row["strategy"] == "tb":
                assert row["b"] != "" and row["g_0"] == ""
            else:
                assert row["g_0"] != "" and row["b"] == ""

    def test_windowed_rates_csv(self, tmp_path):
        run = run_once(make_scenario(count=300), 0)
        path = tmp_path / "rates.csv"
        export_windowed_rates_csv(run, path, 10.0)
        lines = path.read_text().splitlines()
        assert lines[0].split(",")[0] == "t"
        assert len(lines) > 2


def reference_tally(offers, decisions, num_classes, num_priorities):
    """The per-offer tally of the harness before it kept decision vectors."""
    ref = {
        "admitted": 0, "rejected": 0,
        "admit_by_class": [0] * num_classes, "reject_by_class": [0] * num_classes,
        "admit_by_priority": [0] * num_priorities,
        "reject_by_priority": [0] * num_priorities,
        "admit_times_by_class": [[] for _ in range(num_classes)], "end_time": 0.0,
    }
    for offer, admitted in zip(offers, decisions):
        if admitted:
            ref["admitted"] += 1
            ref["admit_by_class"][offer.class_id] += 1
            ref["admit_by_priority"][offer.priority] += 1
            ref["admit_times_by_class"][offer.class_id].append(offer.arrival)
        else:
            ref["rejected"] += 1
            ref["reject_by_class"][offer.class_id] += 1
            ref["reject_by_priority"][offer.priority] += 1
    if offers:
        ref["end_time"] = offers[-1].arrival
    return ref


def reference_windowed_rates(ref, num_classes, w):
    """The per-event windowed-rate loop, over a reference tally."""
    n_win = max(1, int(math.ceil(ref["end_time"] / w)))
    agg = [0.0] * n_win
    per_class = [[0.0] * n_win for _ in range(num_classes)]
    for k, ts in enumerate(ref["admit_times_by_class"]):
        for t in ts:
            idx = min(n_win - 1, int(t / w))
            agg[idx] += 1.0
            per_class[k][idx] += 1.0
    starts = [i * w for i in range(n_win)]
    return starts, [x / w for x in agg], [[x / w for x in row] for row in per_class]


def assert_matches_reference(res, ref, window):
    for key, want in ref.items():
        if key == "admit_times_by_class":  # the windowed-rate reference's input
            continue
        got = getattr(res, key)
        assert got == want, key
        if key != "end_time":
            assert all(type(x) is int for x in (got if isinstance(got, list) else [got]))
    assert res.windowed_rates(window) == reference_windowed_rates(
        ref, res.num_classes, window)


def _weights(draw, n):
    w = [draw(st.floats(0.1, 1.0)) for _ in range(n)]
    return tuple(x / sum(w) for x in w)


@st.composite
def tally_cases(draw):
    kind = draw(st.sampled_from(["token_bucket", "rate_gapper", "mixed"]))
    nc = draw(st.integers(1, 8))
    nj = draw(st.integers(1, 3))
    profiles = tuple(
        IntensityProfile(((0.0, draw(st.floats(0.1, 4.0))),
                          (draw(st.floats(1.0, 50.0)), draw(st.floats(0.1, 4.0)))))
        for _ in range(nc))
    if draw(st.booleans()):
        stop = {"count": draw(st.integers(1, 300))}
    else:
        stop = {"duration": draw(st.sampled_from([1e-9, 0.5]) | st.floats(1.0, 60.0))}
    spec = StreamSpec(profiles, PriorityMix(_weights(draw, nj)),
                      seed=draw(st.integers(0, 2**32)), **stop)
    starts = sorted(set(draw(st.lists(st.floats(0.5, 40.0), max_size=4))))
    capacity = CapacityProfile(tuple(
        (t, draw(st.floats(0.5, 10.0))) for t in [0.0, *starts]))
    watermarks = tuple(draw(st.floats(1.0, 20.0)) for _ in range(nj))
    timers = tuple(draw(st.floats(0.05, 5.0)) for _ in range(nj))
    cfg = StrategyConfig(
        "s", kind, watermarks=watermarks,
        timers=None if kind == "mixed" and draw(st.booleans()) else timers,
        shares=_weights(draw, nc), variant=draw(st.sampled_from(["G", "GPrime"])),
        normalize=draw(st.booleans()))
    scenario = Scenario(spec, capacity, (cfg,), trace=draw(st.booleans()))
    return scenario, draw(st.integers(0, 3)), draw(st.sampled_from([0.5, 3.0, 10.0]))


class TestColumnarTally:
    """The columnar StrategyResult against the per-offer reference tally."""

    @settings(max_examples=80, deadline=None)
    @given(tally_cases())
    def test_matches_reference_tally(self, case):
        scenario, rep, window = case
        spec = scenario.stream_spec
        (cfg,) = scenario.strategies
        offers = generate_stream(spec, rep)
        admit = build_throttle(cfg, scenario).admit
        decisions = [admit(o.arrival, o.class_id, o.priority) for o in offers]
        nj = build_throttle(cfg, scenario).num_priorities
        ref = reference_tally(offers, decisions, spec.num_classes, nj)
        batch = run_once(scenario, rep)
        assert batch.offers == len(offers)
        assert batch.end_time == ref["end_time"]
        streamed = run_stream(offers, build_throttle(cfg, scenario), cfg.name,
                              spec.num_classes, trace=scenario.trace)
        for res in (batch.strategies[cfg.name], streamed):
            assert res.decisions.tolist() == decisions
            assert (res.trace is not None) == scenario.trace
            assert_matches_reference(res, ref, window)

    @settings(max_examples=40, deadline=None)
    @given(tally_cases())
    def test_generate_stream_is_the_columns(self, case):
        scenario, rep, _ = case
        columns = stream_columns(scenario.stream_spec, rep)
        assert [c.dtype for c in columns] == [np.float64, np.intp, np.intp]
        assert generate_stream(scenario.stream_spec, rep) == [
            Offer(t, k, j) for t, k, j in zip(*(c.tolist() for c in columns))]

    def test_empty_stream(self):
        spec = StreamSpec((IntensityProfile.constant(1.0),), PriorityMix((1.0,)),
                          seed=0, duration=1e-9)
        scenario = make_scenario()
        scenario = Scenario(spec, scenario.capacity, scenario.strategies)
        run = run_once(scenario, 0)
        assert run.offers == 0 and run.end_time == 0.0
        ref = reference_tally([], [], 1, 1)
        for res in run.strategies.values():
            assert_matches_reference(res, ref, 10.0)
        tb = TokenBucket((10.0,), CapacityProfile.constant(1.0))
        assert_matches_reference(run_stream([], tb, "tb", 1), ref, 10.0)

    def test_columns_shared_between_strategies(self):
        run = run_once(make_scenario(), 0)
        tb, rg = run.strategies.values()
        assert tb.arrival is rg.arrival and tb.class_id is rg.class_id
        assert tb.decisions is not rg.decisions

    def test_priority_outside_the_throttle(self):
        # the rate model ignores priority, so the tally is what refuses it
        offers = [Offer(0.0, 0, 0), Offer(1.0, 0, 1)]
        throttle = TokenBucketRateModel(1.0, 10.0)
        with pytest.raises(UnknownPriority):
            run_stream(offers, throttle, "rm", 1)


def lane_scenario(replications):
    """Three strategies, two classes and priorities, a stepped capacity and a
    duration stop, so the replications' streams have ragged lengths."""
    spec = StreamSpec((IntensityProfile(((0.0, 1.0), (30.0, 4.0))),
                       IntensityProfile.constant(1.5)),
                      PriorityMix((0.3, 0.7)), seed=11, duration=40.0)
    strategies = (
        StrategyConfig("tb", "token_bucket", watermarks=(6.0, 3.0)),
        StrategyConfig("rg", "rate_gapper", timers=(2.0, 1.0), shares=(0.4, 0.6),
                       variant="GPrime"),
        StrategyConfig("mx", "mixed", watermarks=(6.0, 3.0), shares=(0.4, 0.6)),
    )
    capacity = CapacityProfile(((0.0, 3.0), (10.0, 1.5), (25.0, 4.0)))
    return Scenario(spec, capacity, strategies, replications=replications)


# replications 1..n-1 of lane_scenario (3 strategies) make MIN_LANES lanes
# from this many of them on
LANE_REPS = -(-MIN_LANES // 3)


class TestReplicationLanes:
    """Replications 1..n-1 decided by admit_lanes when they make at least
    MIN_LANES (strategy, replication) lanes."""

    def assert_same_runs(self, runs, want):
        assert [r.replication for r in runs] == [r.replication for r in want]
        for got, exp in zip(runs, want):
            assert (got.offers, got.end_time) == (exp.offers, exp.end_time)
            assert got.strategies.keys() == exp.strategies.keys()
            for name, res in got.strategies.items():
                ref = exp.strategies[name]
                assert res.decisions.dtype == bool
                assert res.decisions.tolist() == ref.decisions.tolist()
                assert res.arrival.tolist() == ref.arrival.tolist()
                assert res.num_priorities == ref.num_priorities
        assert summarize(runs).to_json() == summarize(want).to_json()

    def test_serial_lanes_match_run_once(self, monkeypatch):
        # replication 0 through run_once, the others in lanes, each stream
        # drawn once; every decision vector and the report as run_once's
        sc = lane_scenario(LANE_REPS + 1)
        want = [run_once(sc, r) for r in range(sc.replications)]
        assert len({r.offers for r in want}) > 1  # ragged lanes
        drawn, once = [], []

        def counted_columns(spec, replication=0):
            drawn.append(replication)
            return stream_columns(spec, replication)

        def counted_run_once(scenario, replication=0):
            once.append(replication)
            return run_once(scenario, replication)

        monkeypatch.setattr(harness, "stream_columns", counted_columns)
        monkeypatch.setattr(harness, "run_once", counted_run_once)
        runs = run_replications(sc)
        assert drawn == list(range(sc.replications))
        assert once == [0]
        self.assert_same_runs(runs, want)

    def test_below_min_lanes_runs_once_each(self, monkeypatch):
        sc = lane_scenario(LANE_REPS)
        once = []

        def counted_run_once(scenario, replication=0):
            once.append(replication)
            return run_once(scenario, replication)

        monkeypatch.setattr(harness, "run_once", counted_run_once)
        run_replications(sc)
        assert once == list(range(LANE_REPS))

    @pytest.mark.parametrize("replications", [2 * LANE_REPS - 1, 2 * LANE_REPS, 33, 65])
    def test_pooled_chunks_match_serial(self, replications):
        # replications 1..n-1 as one lane batch of 2*LANE_REPS - 2,
        # 2*LANE_REPS - 1, 32 or 64 ragged streams
        sc = lane_scenario(replications)
        want = [run_once(sc, r) for r in range(replications)]
        self.assert_same_runs(run_replications(sc), want)
        assert run_batch(sc).to_json() == summarize(want).to_json()

    def test_traced_replication_zero_with_lanes(self):
        sc = replace(lane_scenario(LANE_REPS + 1), trace=True)
        runs = run_replications(sc)
        assert [r.strategies["tb"].trace is not None for r in runs] == [True] + [False] * LANE_REPS
        self.assert_same_runs(runs, [run_once(sc, 0)] + [
            run_once(replace(sc, trace=False), r) for r in range(1, sc.replications)])
