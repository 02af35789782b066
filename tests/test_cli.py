import json
import math
from importlib import resources

import pytest

from gapcraft.cli import main
from gapcraft.errors import SchemaError
from gapcraft.scenario_io import (
    load_scenario,
    parse_scenario_dict,
    scenario_to_dict,
)

SCENARIOS = resources.files("gapcraft") / "scenarios"


def minimal_doc(**overrides):
    doc = {
        "seed": 3,
        "replications": 2,
        "traffic": {
            "classes": [{"knots": [[0.0, 2.0]]}],
            "priority_mix": [1.0],
            "stop": {"offers": 300},
        },
        "capacity": {"segments": [[0.0, 1.0]]},
        "strategies": [
            {"name": "tb", "kind": "token_bucket", "watermarks": [10.0]},
            {"name": "rg", "kind": "rate_gapper", "timers": [10.0], "shares": [1.0]},
        ],
    }
    doc.update(overrides)
    return doc


def write_doc(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestScenarioIO:
    def test_canned_scenarios_parse(self):
        for name in ("ramp_throughput", "table1_row1", "table1_row2",
                     "table1_row3", "table1_row4", "shares_20_80"):
            sf = load_scenario(SCENARIOS / f"{name}.json")
            assert sf.scenario.replications >= 50
            assert sf.scenario.strategies

    def test_round_trip_fixed_point(self, tmp_path):
        sf = load_scenario(SCENARIOS / "shares_20_80.json")
        doc = scenario_to_dict(sf)
        sf2 = parse_scenario_dict(doc)
        assert scenario_to_dict(sf2) == doc

    def test_unknown_top_key(self):
        with pytest.raises(SchemaError):
            parse_scenario_dict(minimal_doc(bogus=1))

    def test_unknown_strategy_key(self):
        doc = minimal_doc()
        doc["strategies"][0]["watermark"] = 5  # typo: singular
        with pytest.raises(SchemaError):
            parse_scenario_dict(doc)

    def test_missing_traffic(self):
        doc = minimal_doc()
        del doc["traffic"]
        with pytest.raises(SchemaError):
            parse_scenario_dict(doc)

    def test_both_stop_keys(self):
        doc = minimal_doc()
        doc["traffic"]["stop"] = {"offers": 10, "duration": 5.0}
        with pytest.raises(SchemaError):
            parse_scenario_dict(doc)

    def test_source_fields_ignored(self):
        doc = minimal_doc(_source="note")
        doc["traffic"]["_source"] = "note"
        sf = parse_scenario_dict(doc)
        assert "_source" not in sf.requirements

    def test_requirements_block_keys(self):
        doc = minimal_doc(requirements={"A": {"tolarance": 0.1}})
        with pytest.raises(SchemaError):
            parse_scenario_dict(doc)


class TestCliExitCodes:
    def test_missing_file(self, capsys):
        assert main(["simulate", "/nonexistent/scenario.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["simulate", str(path)]) == 2

    def test_schema_error(self, tmp_path, capsys):
        doc = minimal_doc(bogus=1)
        assert main(["simulate", write_doc(tmp_path, doc)]) == 2

    def test_check_without_requirements(self, tmp_path, capsys):
        assert main(["check", write_doc(tmp_path, minimal_doc())]) == 2

    @pytest.mark.parametrize("shares", [[0.1, 0.4], [-0.2, 1.2], [1.0]])
    def test_bad_shares(self, tmp_path, capsys, shares):
        doc = json.loads((SCENARIOS / "shares_20_80.json").read_text())
        i = next(i for i, s in enumerate(doc["strategies"]) if "shares" in s)
        doc["strategies"][i]["shares"] = shares
        assert main(["simulate", write_doc(tmp_path, doc)]) == 2
        assert f"strategies[{i}].shares" in capsys.readouterr().err


class TestSimulate:
    def test_report_to_stdout(self, tmp_path, capsys):
        assert main(["simulate", write_doc(tmp_path, minimal_doc())]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["replications"] == 2
        assert set(doc["strategies"]) == {"tb", "rg"}

    def test_report_file_and_determinism(self, tmp_path, capsys):
        path = write_doc(tmp_path, minimal_doc())
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(["simulate", path, "--report", str(out1)]) == 0
        assert main(["simulate", path, "--report", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_report(self, tmp_path, capsys):
        path = write_doc(tmp_path, minimal_doc())
        main(["simulate", path])
        base = capsys.readouterr().out
        main(["simulate", path, "--seed", "99"])
        reseeded = capsys.readouterr().out
        assert base != reseeded

    def test_replications_override(self, tmp_path, capsys):
        path = write_doc(tmp_path, minimal_doc())
        main(["simulate", path, "--replications", "5"])
        assert json.loads(capsys.readouterr().out)["replications"] == 5

    def test_trace_output(self, tmp_path, capsys):
        path = write_doc(tmp_path, minimal_doc())
        trace = tmp_path / "trace.csv"
        assert main(["simulate", path, "--trace-out", str(trace)]) == 0
        assert trace.read_text().startswith("idx,t,class,priority,strategy,decision")


class TestCheck:
    def test_fairness_scenario_passes(self, capsys):
        # canned class-fairness scenario: estimator strategies never reject
        # the under-share class (trimmed replication count for test speed)
        rc = main(["check", str(SCENARIOS / "shares_20_80.json"),
                   "--replications", "10"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert {v["strategy"] for v in out["verdicts"]} == {"rate_gapping", "mixed"}
        assert all(v["passed"] for v in out["verdicts"])

    def test_token_bucket_fails_fairness(self, tmp_path, capsys):
        sf_doc = json.loads((SCENARIOS / "shares_20_80.json").read_text())
        sf_doc["requirements"]["C"]["strategies"] = ["token_bucket"]
        # requirement C needs shares; the bucket doesn't carry them, so give
        # the check the scenario's share split via a gapper-shaped clone
        sf_doc["strategies"] = [
            {"name": "token_bucket", "kind": "mixed", "watermarks": [10.0],
             "shares": [0.2, 0.8], "timers": [0.1]},
        ]
        sf_doc["replications"] = 5
        rc = main(["check", write_doc(tmp_path, sf_doc)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert not out["verdicts"][0]["passed"]

    def test_requirement_b_verdicts(self, tmp_path, capsys):
        doc = minimal_doc(requirements={
            "B": {"step": 0.5, "horizon": 30.0, "sample_every": 5,
                  "strategies": ["tb"]},
        })
        rc = main(["check", write_doc(tmp_path, doc)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        v = out["verdicts"][0]
        assert v["requirement"] == "B"
        assert v["evidence"]["basis"] == "theorem"
        assert v["evidence"]["ordered_fraction"] >= 0.95

    def test_requirement_a_verdicts(self, tmp_path, capsys):
        doc = minimal_doc(requirements={
            "A": {"window": 10.0, "tolerance": 0.3, "strategies": ["rg"]},
        })
        rc = main(["check", write_doc(tmp_path, doc)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["verdicts"][0]["requirement"] == "A"

    def test_verdicts_written_to_file(self, tmp_path, capsys):
        doc = minimal_doc(requirements={
            "A": {"tolerance": 0.3, "strategies": ["rg"]}},
            output={"verdicts": str(tmp_path / "verdicts.json")})
        main(["check", write_doc(tmp_path, doc)])
        capsys.readouterr()
        saved = json.loads((tmp_path / "verdicts.json").read_text())
        assert saved["verdicts"]


class TestClosedFormCommands:
    def test_erlang(self, capsys):
        assert main(["erlang", "2", "1.0"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(0.2, abs=1e-12)

    def test_bias(self, capsys):
        assert main(["bias", "1.0", "1.0"]) == 0
        want = math.exp(-1.0) / (1.0 - math.exp(-1.0))
        assert float(capsys.readouterr().out) == pytest.approx(want, rel=1e-10)

    def test_erlang_domain_error(self, capsys):
        assert main(["erlang", "-1", "1.0"]) == 2


class TestGenStream:
    def test_writes_csv(self, tmp_path, capsys):
        path = write_doc(tmp_path, minimal_doc())
        out = tmp_path / "stream.csv"
        assert main(["gen-stream", path, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,class,priority"
        assert len(lines) == 301

    def test_deterministic(self, tmp_path, capsys):
        path = write_doc(tmp_path, minimal_doc())
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["gen-stream", path, "--out", str(a)])
        main(["gen-stream", path, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_replication_selector(self, tmp_path, capsys):
        path = write_doc(tmp_path, minimal_doc())
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["gen-stream", path, "--out", str(a), "--replication", "0"])
        main(["gen-stream", path, "--out", str(b), "--replication", "1"])
        assert a.read_bytes() != b.read_bytes()

    def test_needs_out_path(self, tmp_path, capsys):
        assert main(["gen-stream", write_doc(tmp_path, minimal_doc())]) == 2
