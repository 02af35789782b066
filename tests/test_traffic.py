import csv
import math
import warnings

import numpy as np
import pytest

from gapcraft.errors import AllZeroIntensity, ConfigError, InvalidMix
from gapcraft.traffic import (
    IntensityProfile,
    PriorityMix,
    StreamSpec,
    generate_stream,
    stream_columns,
    stream_to_file,
)
from gapcraft.types import Offer


def make_spec(**kwargs):
    defaults = dict(
        profiles=(IntensityProfile.constant(1.0),),
        mix=PriorityMix((1.0,)),
        seed=0,
        duration=100.0,
    )
    defaults.update(kwargs)
    return StreamSpec(**defaults)


class TestIntensityProfile:
    def test_constant(self):
        p = IntensityProfile.constant(2.5)
        assert p.rate_at(0.0) == 2.5
        assert p.rate_at(1e6) == 2.5

    def test_linear_interpolation(self):
        p = IntensityProfile(((0.0, 0.8), (430.0, 2.0)))
        assert p.rate_at(0.0) == pytest.approx(0.8)
        assert p.rate_at(215.0) == pytest.approx(1.4)
        assert p.rate_at(430.0) == pytest.approx(2.0)
        assert p.rate_at(1000.0) == pytest.approx(2.0)  # flat extrapolation

    def test_vectorized_query(self):
        p = IntensityProfile(((0.0, 0.0), (10.0, 1.0)))
        got = p.rate_at(np.array([0.0, 5.0, 10.0]))
        assert np.allclose(got, [0.0, 0.5, 1.0])

    @pytest.mark.parametrize("knots", [
        (),
        ((0.0, 1.0), (0.0, 2.0)),
        ((5.0, 1.0), (2.0, 2.0)),
        ((0.0, -1.0),),
        ((0.0, math.inf),),
    ])
    def test_invalid_knots(self, knots):
        with pytest.raises(ConfigError):
            IntensityProfile(knots)


class TestPriorityMix:
    def test_valid(self):
        assert len(PriorityMix((0.5, 0.5))) == 2

    @pytest.mark.parametrize("p", [(), (0.5, 0.6), (1.2, -0.2), (-0.1, 1.1)])
    def test_invalid(self, p):
        with pytest.raises(InvalidMix):
            PriorityMix(p)


class TestStreamSpec:
    def test_needs_exactly_one_stop(self):
        with pytest.raises(ConfigError):
            make_spec(duration=10.0, count=10)
        with pytest.raises(ConfigError):
            make_spec(duration=None)

    def test_bad_stop_values(self):
        with pytest.raises(ConfigError):
            make_spec(duration=0.0)
        with pytest.raises(ConfigError):
            make_spec(duration=None, count=0)

    def test_no_profiles(self):
        with pytest.raises(ConfigError):
            make_spec(profiles=())


class TestGenerateStream:
    def test_deterministic(self):
        spec = make_spec(seed=42)
        a = generate_stream(spec, 0)
        b = generate_stream(spec, 0)
        assert a == b

    def test_replications_differ(self):
        spec = make_spec(seed=42)
        assert generate_stream(spec, 0) != generate_stream(spec, 1)

    def test_seeds_differ(self):
        assert generate_stream(make_spec(seed=1), 0) != generate_stream(make_spec(seed=2), 0)

    def test_every_seed_and_replication_its_own_stream(self):
        # the Philox key is two uint64 words; a float64 key made every
        # negative seed (masked to >= 2**63) one stream and warned on -1
        keys = [(seed, 0) for seed in (0, 1, -1, -2, -1000, 2**63 - 1, 2**63 + 1,
                                       2**63 + 2, 2**63)]
        keys += [(0, 2**63 + 1), (0, 2**63 + 2)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            times = {tuple(stream_columns(make_spec(seed=seed, duration=5.0), rep)[0])
                     for seed, rep in keys}
        assert len(times) == len(keys)

    def test_strictly_increasing(self):
        offers = generate_stream(make_spec(duration=1000.0), 0)
        ts = [o.arrival for o in offers]
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_count_stop_exact(self):
        offers = generate_stream(make_spec(duration=None, count=500), 0)
        assert len(offers) == 500

    def test_duration_stop(self):
        offers = generate_stream(make_spec(duration=50.0), 0)
        assert all(o.arrival < 50.0 for o in offers)

    def test_poisson_count_concentration(self):
        # lambda=1 over 10^4 s: N ~ Poisson(10^4), +-3 sigma is +-300
        offers = generate_stream(make_spec(duration=10000.0, seed=7), 0)
        assert 9700 <= len(offers) <= 10300

    def test_thinning_tracks_ramp(self):
        # per-half counts of a 0 -> 2 ramp: expected 250 then 750 (of 1000)
        prof = IntensityProfile(((0.0, 0.0), (1000.0, 2.0)))
        spec = make_spec(profiles=(prof,), duration=1000.0, seed=3)
        offers = generate_stream(spec, 0)
        first = sum(o.arrival < 500.0 for o in offers)
        second = len(offers) - first
        assert abs(first - 250) < 4 * math.sqrt(250)
        assert abs(second - 750) < 4 * math.sqrt(750)

    def test_class_assignment_proportional(self):
        profs = (IntensityProfile.constant(1.0), IntensityProfile.constant(3.0))
        spec = make_spec(profiles=profs, duration=5000.0, seed=11)
        offers = generate_stream(spec, 0)
        frac1 = sum(o.class_id == 1 for o in offers) / len(offers)
        assert frac1 == pytest.approx(0.75, abs=0.02)

    def test_priority_mix_respected(self):
        spec = make_spec(mix=PriorityMix((0.5, 0.5)), duration=10000.0, seed=13)
        offers = generate_stream(spec, 0)
        frac0 = sum(o.priority == 0 for o in offers) / len(offers)
        assert frac0 == pytest.approx(0.5, abs=0.02)

    def test_all_zero_intensity(self):
        with pytest.raises(AllZeroIntensity):
            generate_stream(make_spec(profiles=(IntensityProfile.constant(0.0),)), 0)

    def test_zero_tail_with_count_stop(self):
        prof = IntensityProfile(((0.0, 1.0), (10.0, 0.0)))
        spec = make_spec(profiles=(prof,), duration=None, count=10**6)
        with pytest.raises(AllZeroIntensity):
            generate_stream(spec, 0)


class TestStreamFiles:
    def test_round_trip(self, tmp_path):
        offers = generate_stream(make_spec(duration=200.0, seed=5,
                                           mix=PriorityMix((0.3, 0.7))), 0)
        path = tmp_path / "stream.csv"
        stream_to_file(offers, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "class", "priority"]
        back = [Offer(float(t), int(k), int(j)) for t, k, j in rows[1:]]
        assert back == offers  # repr() timestamps are lossless
