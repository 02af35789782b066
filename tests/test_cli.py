import copy
import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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


def _row3(edit):
    doc = json.loads((SCENARIOS / "table1_row3.json").read_text())
    doc["replications"] = 2
    doc["traffic"]["stop"] = {"offers": 200}
    edit(doc)
    return doc


def _set(path, value):
    """An edit that sets doc[path[0]][path[1]]... to value."""
    def edit(doc):
        block = doc
        for key in path[:-1]:
            block = block[key]
        block[path[-1]] = value
    return edit


def _two_classes_c_judges_bucket(doc, bucket_shares=None):
    doc["traffic"]["classes"] *= 2
    for blk in doc["strategies"][1:]:
        blk["shares"] = [0.5, 0.5]
    if bucket_shares is not None:
        doc["strategies"][0]["shares"] = bucket_shares
    doc["requirements"] = {"C": {"strategies": ["token_bucket"]}}


def _one_class_c_judges_bucket(doc):
    doc["strategies"][0]["shares"] = [0.5]
    doc["requirements"] = {"C": {"strategies": ["token_bucket"]}}


def _near_zero_tail(doc):
    # a count-stopped stream whose intensity falls near zero ends at a huge time
    doc["traffic"]["classes"][0]["knots"] = [[0.0, 10.0], [10.0, 1e-12]]
    doc["traffic"]["stop"] = {"offers": 300}
    doc["requirements"] = {"A": {}}


# (command, edit of table1_row3, key the error must name)
BAD_FILES = [
    ("simulate", _set(("strategies", 1, "timers"), [0.0, 1.0]), "strategies[1].timers"),
    ("simulate", _set(("strategies", 1, "timers"), [-1.0, 1.0]), "strategies[1].timers"),
    ("simulate", _set(("strategies", 2, "timers"), [math.inf, 1.0]), "strategies[2].timers"),
    ("simulate", _set(("strategies", 2, "timers"), [2.0]), "strategies[2].timers"),
    ("simulate", _set(("strategies", 0, "watermarks"), [0.5, 0.5]),
     "strategies[0].watermarks"),
    ("simulate", _set(("strategies", 2, "watermarks"), [math.nan, 10.0]),
     "strategies[2].watermarks"),
    ("simulate", _set(("strategies", 1, "variant"), "H"), "strategies[1].variant"),
    ("simulate", _set(("traffic", "priority_mix"), [0.3, 0.3, 0.4]),
     "traffic.priority_mix"),
    ("simulate", _set(("requirements",), []), "requirements"),
    ("check", _set(("requirements",), []), "requirements"),
    ("check", _set(("requirements",), {"A": [10.0]}), "requirements.A"),
    ("simulate", _set(("window_seconds",), 0), "window_seconds"),
    ("simulate", _set(("traffic", "stop"), {"offers": 1.7}), "traffic.stop.offers"),
    ("simulate", _set(("traffic", "stop"), {"duration": -1.0}), "traffic.stop.duration"),
    ("simulate", _set(("traffic", "classes", 0, "knots"), [[0.0]]),
     "traffic.classes[0].knots"),
    ("simulate", _set(("capacity", "segments"), [[0.0, "fast"]]), "capacity.segments"),
    ("simulate", _set(("strategies", 0, "kind"), "rate_model"), "strategies[0].kind"),
    ("simulate", _set(("strategies", 0, "rate_segments"), [[0.0, 7.0]]), "rate_segments"),
    ("simulate", _set(("strategies", 1, "normalize"), "false"), "strategies[1].normalize"),
    ("simulate", _set(("trace",), True), "trace"),  # the key is gone
    ("check", _set(("requirements",), {"C": {"strategies": ["rate_gaping"]}}),
     "requirements.C.strategies"),
    ("check", _set(("requirements",), {"B": {"sample_every": 0}}),
     "requirements.B.sample_every"),
    ("check", _set(("requirements",), {"A": {"window": "ten"}}), "requirements.A.window"),
    ("check", _set(("requirements",), {"A": {"window": 0}}), "requirements.A.window"),
    ("check", _set(("requirements",), {"A": {"tolerance": -0.1}}),
     "requirements.A.tolerance"),
    ("check", _set(("requirements",), {"B": {"step": 0}}), "requirements.B.step"),
    ("check", _set(("requirements",), {"B": {"horizon": math.inf}}),
     "requirements.B.horizon"),
    ("check", _set(("requirements",), {"B": {"class_id": 9}}), "requirements.B.class_id"),
    ("check", _set(("requirements",), {"B": {"min_pass_fraction": 1.5}}),
     "requirements.B.min_pass_fraction"),
    ("simulate", _two_classes_c_judges_bucket, "requirements.C.strategies"),
    # a token bucket ignores shares, but Req-C judges it by them
    ("check", partial(_two_classes_c_judges_bucket, bucket_shares=[0.2]),
     "strategies[0].shares"),
    ("check", partial(_two_classes_c_judges_bucket, bucket_shares=[0.3, 0.3]),
     "strategies[0].shares"),
    ("check", _one_class_c_judges_bucket, "strategies[0].shares"),
    # grids too large to judge: refused before anything is allocated
    ("check", _near_zero_tail, "windows of length"),
    ("check", _set(("requirements",), {"A": {"window": 1e-9}}), "windows of length"),
    ("check", _set(("requirements",), {"B": {"step": 1e-12}}), "probes of step"),
]


class TestBadScenarioFiles:
    @pytest.mark.parametrize("command, edit, key", BAD_FILES)
    def test_exit_2_naming_the_key(self, tmp_path, capsys, command, edit, key):
        assert main([command, write_doc(tmp_path, _row3(edit))]) == 2
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err

    def test_generated_and_bundled_files_load(self, monkeypatch):
        # the benchmark's generated scenarios must pass the same validation
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import workloads

        for path in SCENARIOS.iterdir():
            if path.name.endswith(".json"):
                load_scenario(path)
        for seed in (0, 1, 99):
            parse_scenario_dict(workloads.fairness_doc(seed))
            parse_scenario_dict(workloads.diagnose_doc(seed))


# Every requirement, so that the fuzz below reaches each field's check.
REQUIREMENTS = {
    "A": {"window": 10.0, "tolerance": 0.05},
    "B": {"step": 0.25, "horizon": 5.0, "sample_every": 5, "class_id": 0,
          "min_pass_fraction": 0.95},
    "C": {"window": 10.0, "strategies": ["token_bucket", "rate_gapping", "mixed"]},
}
POOL = [None, True, "x", [], {}, -1, 0, 0.5, 1e-12]


def _entries(node):
    """(container, key, value) for every value nested in a JSON document."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return
    for key, child in items:
        yield node, key, child
        yield from _entries(child)


@st.composite
def fuzzed_scenarios(draw):
    """table1_row3 with a requirements block and shares on its token bucket
    (which Req-C judges by them), after one to three mutations:
    delete a key or list element, add an unknown key, or replace a value
    with one from POOL or with a list one element too short or too long.

    The pool leaves out values that only ask for more work (large counts,
    long horizons).  Its 1e-12 makes tiny windows, steps and timers and
    near-zero intensities, whose grids the checkers must refuse.
    """
    doc = _row3(_set(("requirements",), copy.deepcopy(REQUIREMENTS)))
    doc["strategies"][0]["shares"] = [1.0]
    for _ in range(draw(st.integers(1, 3))):
        entries = list(_entries(doc))
        op = draw(st.sampled_from(["delete", "add", "replace"]))
        if op == "add":
            blocks = [doc] + [v for _, _, v in entries if isinstance(v, dict)]
            draw(st.sampled_from(blocks))["unknown_key"] = 1
            continue
        container, key, value = draw(st.sampled_from(entries))
        if op == "delete":
            del container[key]
            continue
        pool = POOL + ([value[:-1], value + value[-1:]]
                       if isinstance(value, list) and value else [])
        container[key] = copy.deepcopy(draw(st.sampled_from(pool)))
    return doc


@settings(max_examples=200, deadline=None)
@given(fuzzed_scenarios())
def test_fuzzed_scenario_files_exit_cleanly(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(doc))
        for command in ("simulate", "check"):
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                rc = main([command, str(path)])
            assert rc in (0, 1, 2), (command, rc, err.getvalue())
            assert "Traceback" not in err.getvalue()


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

    def test_each_replication_decided_once(self, tmp_path, capsys, monkeypatch):
        # The trace and rates CSVs come from the batch's own replication 0.
        # run_once draws one stream per call, so the draws count its calls.
        from gapcraft import harness

        drawn = []
        draw = harness.stream_columns
        monkeypatch.setattr(harness, "stream_columns",
                            lambda spec, r: drawn.append(r) or draw(spec, r))
        doc = minimal_doc(replications=3, output={"rates": str(tmp_path / "rates.csv")})
        traced = tmp_path / "traced.json"
        assert main(["simulate", write_doc(tmp_path, doc), "--report", str(traced),
                     "--trace-out", str(tmp_path / "trace.csv")]) == 0
        assert drawn == [0, 1, 2]
        untraced = tmp_path / "untraced.json"
        plain = write_doc(tmp_path, minimal_doc(replications=3), "plain.json")
        assert main(["simulate", plain, "--report", str(untraced)]) == 0
        assert traced.read_bytes() == untraced.read_bytes()
        assert len((tmp_path / "trace.csv").read_text().splitlines()) == 1 + 2 * 300
        assert (tmp_path / "rates.csv").read_text().startswith("t,tb_aggregate,tb_class_0")


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

    def test_threads_give_the_serial_verdicts(self, capsys, monkeypatch):
        from gapcraft import harness

        pools = []

        class CountedPool(harness.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs)
                super().__init__(*args, **kwargs)

        argv = ["check", str(SCENARIOS / "shares_20_80.json"), "--replications", "4"]
        main(argv)
        serial = capsys.readouterr().out
        monkeypatch.setattr(harness, "ProcessPoolExecutor", CountedPool)
        monkeypatch.setenv("GAPCRAFT_THREADS", "2")
        main(argv)
        assert pools == [{"max_workers": 2}]
        assert capsys.readouterr().out == serial

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

    def test_erlang_server_bound(self, capsys):
        assert main(["erlang", "3000000", "1"]) == 0
        assert capsys.readouterr().out == "0\n"
        assert main(["erlang", "1000000000000", "1e300"]) == 2
        captured = capsys.readouterr()
        assert "servers" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("argv, name", [
        (["bias", "1", "inf"], "alpha"),
        (["bias", "nan", "1"], "timer"),
        (["bias", "inf", "1"], "timer"),
        (["erlang", "2", "nan"], "load"),
        (["erlang", "2", "inf"], "load"),
    ], ids=lambda v: "-".join(v) if isinstance(v, list) else v)
    def test_non_finite_argument(self, capsys, argv, name):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and name in captured.err
        assert "Traceback" not in captured.err


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

    @pytest.mark.parametrize("replication", ["-1", "99999999999999999999999"])
    def test_replication_out_of_range(self, tmp_path, capsys, replication):
        out = tmp_path / "stream.csv"
        assert main(["gen-stream", write_doc(tmp_path, minimal_doc()), "--out", str(out),
                     "--replication", replication]) == 2
        err = capsys.readouterr().err
        assert f"replication must be in [0, 2**64), got {replication}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_needs_out_path(self, tmp_path, capsys):
        assert main(["gen-stream", write_doc(tmp_path, minimal_doc())]) == 2
