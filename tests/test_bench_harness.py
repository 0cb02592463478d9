"""The benchmark harness: presets, discovery, schema, compare, CLI gate."""

import json

import pytest

from repro.bench import (
    build_report,
    compare_reports,
    discover_scenarios,
    dumps_report,
    load_report,
    run_scenario,
    run_suite,
    scale_count,
    scale_duration,
    validate_report,
    write_report,
)
from repro.bench.discovery import DiscoveryError
from repro.bench.harness import HarnessError
from repro.bench.presets import MIN_DURATION_NS
from repro.bench.schema import SchemaError
from repro.cli import main

FAKE_SCENARIO = """\
from repro.sim.engine import Engine

def run(preset="smoke"):
    engine = Engine()
    ticks = 10 if preset == "smoke" else 100
    fired = [0]
    def tick():
        fired[0] += 1
    for i in range(ticks):
        engine.schedule(i + 1, tick)
    engine.run()
    return {"ticks": fired[0]}
"""

COLD_START_S = 0.3
COLD_START_SCENARIO = f"""\
import time

from repro.sim.engine import Engine

calls = []

def run(preset="smoke"):
    if not calls:
        time.sleep({COLD_START_S})
    calls.append(preset)
    engine = Engine()
    for i in range(5):
        engine.schedule(i + 1, lambda: None)
    engine.run()
    return {{"calls": len(calls)}}
"""


@pytest.fixture
def bench_dir(tmp_path):
    (tmp_path / "bench_fake.py").write_text(FAKE_SCENARIO)
    return tmp_path


class TestPresets:
    def test_smoke_scales_duration_to_a_tenth(self):
        assert scale_duration("smoke", 1_000_000_000) == 100_000_000

    def test_full_keeps_the_full_duration(self):
        assert scale_duration("full", 1_000_000_000) == 1_000_000_000

    def test_smoke_respects_the_floor(self):
        assert scale_duration("smoke", 50_000_000) == MIN_DURATION_NS

    def test_floor_never_exceeds_the_full_duration(self):
        assert scale_duration("smoke", 5_000_000) == 5_000_000

    def test_count_scaling_with_floor(self):
        assert scale_count("smoke", 1000, floor=10) == 100
        assert scale_count("smoke", 50, floor=10) == 10
        assert scale_count("full", 1000, floor=10) == 1000

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown preset"):
            scale_duration("quick", 1_000_000_000)


class TestDiscovery:
    def test_repo_benchmarks_are_discovered(self):
        names = {s.name for s in discover_scenarios()}
        assert "micro_engine" in names
        assert "fig7a_overhead_latency" in names
        assert len(names) >= 18

    def test_only_filter_accepts_both_name_forms(self, bench_dir):
        for wanted in ("fake", "bench_fake"):
            scenarios = discover_scenarios(bench_dir, only=[wanted])
            assert [s.name for s in scenarios] == ["fake"]

    def test_unknown_only_name_is_an_error(self, bench_dir):
        with pytest.raises(DiscoveryError, match="unknown scenario"):
            discover_scenarios(bench_dir, only=["nope"])

    def test_file_without_run_is_rejected_at_load(self, tmp_path):
        (tmp_path / "bench_empty.py").write_text("x = 1\n")
        (scenario,) = discover_scenarios(tmp_path)
        with pytest.raises(DiscoveryError, match="run"):
            scenario.load()


class TestHarness:
    def test_run_scenario_counts_engine_events(self, bench_dir):
        (scenario,) = discover_scenarios(bench_dir)
        result = run_scenario(scenario, preset="smoke")
        assert result.events_executed == 10
        assert result.metrics == {"ticks": 10}
        assert result.wall_ns > 0
        assert result.probe_fires == 0
        assert result.ns_per_probe is None

    def test_preset_reaches_the_scenario(self, bench_dir):
        (scenario,) = discover_scenarios(bench_dir)
        assert run_scenario(scenario, preset="full").metrics == {"ticks": 100}

    def test_non_dict_return_is_a_harness_error(self, tmp_path):
        (tmp_path / "bench_bad.py").write_text("def run(preset='smoke'):\n    return 7\n")
        (scenario,) = discover_scenarios(tmp_path)
        with pytest.raises(HarnessError, match="must return a dict"):
            run_scenario(scenario)

    def test_warm_up_run_is_untimed(self, tmp_path):
        # The first call stands for a cold start (lazy imports, first
        # compiles); only the calls after it may be timed and counted.
        (tmp_path / "bench_cold.py").write_text(COLD_START_SCENARIO)
        (scenario,) = discover_scenarios(tmp_path)
        result = run_scenario(scenario, preset="smoke", repeat=2)
        assert result.wall_ns < COLD_START_S * 1e9 / 2
        assert result.events_executed == 5
        assert result.metrics["calls"] in (2, 3)

    def test_run_suite_reports_progress(self, bench_dir):
        lines = []
        results = run_suite(preset="smoke", bench_dir=bench_dir, progress=lines.append)
        assert [r.name for r in results] == ["fake"]
        assert len(lines) == 1 and "fake" in lines[0]


class TestSchema:
    def _report(self, bench_dir, **kwargs):
        results = run_suite(preset="smoke", bench_dir=bench_dir)
        return build_report(results, "smoke", **kwargs)

    def test_round_trip_through_disk(self, bench_dir, tmp_path):
        doc = self._report(bench_dir, tolerance=0.5)
        path = write_report(doc, tmp_path / "report.json")
        assert load_report(path) == doc

    def test_measured_report_carries_wall_fields(self, bench_dir):
        doc = validate_report(self._report(bench_dir))
        (entry,) = doc["scenarios"]
        assert entry["wall_ns"] > 0 and "events_per_sec" in entry
        assert "created_utc" in doc and "host" in doc

    def test_deterministic_report_omits_wall_fields(self, bench_dir):
        doc = validate_report(self._report(bench_dir, deterministic=True))
        assert "created_utc" not in doc and "host" not in doc
        (entry,) = doc["scenarios"]
        assert "wall_ns" not in entry and "events_per_sec" not in entry
        assert entry["events_executed"] == 10

    def test_deterministic_serialization_is_stable(self, bench_dir):
        docs = [
            dumps_report(self._report(bench_dir, deterministic=True))
            for _ in range(2)
        ]
        assert docs[0] == docs[1]

    def test_bad_schema_version_rejected(self):
        with pytest.raises(SchemaError, match="schema_version"):
            validate_report({"schema_version": 99, "preset": "smoke", "scenarios": []})

    def test_duplicate_scenarios_rejected(self):
        entry = {"name": "x", "events_executed": 1, "probe_fires": 0,
                 "metrics": {}, "wall_ns": 1}
        with pytest.raises(SchemaError, match="duplicate"):
            validate_report({"schema_version": 1, "preset": "smoke",
                             "scenarios": [entry, dict(entry)]})

    def test_tolerance_out_of_range_rejected(self):
        with pytest.raises(SchemaError, match="tolerance"):
            validate_report({"schema_version": 1, "preset": "smoke",
                             "scenarios": [], "tolerance": 1.5})


def _doc(scenarios, tolerance=None):
    doc = {"schema_version": 1, "preset": "smoke", "deterministic": False,
           "scenarios": scenarios}
    if tolerance is not None:
        doc["tolerance"] = tolerance
    return doc


def _entry(name, eps, nspp=None):
    entry = {"name": name, "events_executed": 100, "probe_fires": 10,
             "metrics": {}, "wall_ns": 1000, "events_per_sec": eps}
    if nspp is not None:
        entry["ns_per_probe"] = nspp
    return entry


class TestCompare:
    def test_within_tolerance_passes(self):
        current = _doc([_entry("a", 80.0)])
        baseline = _doc([_entry("a", 100.0)], tolerance=0.5)
        regressions, lines = compare_reports(current, baseline)
        assert regressions == []
        assert any("ok" in line for line in lines)

    def test_throughput_drop_beyond_tolerance_fails(self):
        current = _doc([_entry("a", 40.0)])
        baseline = _doc([_entry("a", 100.0)], tolerance=0.5)
        (regression,), _ = compare_reports(current, baseline)
        assert regression.scenario == "a"
        assert regression.metric == "events_per_sec"
        assert regression.allowed == 50.0

    def test_ns_per_probe_growth_beyond_tolerance_fails(self):
        current = _doc([_entry("a", 100.0, nspp=300.0)])
        baseline = _doc([_entry("a", 100.0, nspp=100.0)], tolerance=0.5)
        (regression,), _ = compare_reports(current, baseline)
        assert regression.metric == "ns_per_probe"

    def test_missing_scenario_is_a_regression(self):
        regressions, _ = compare_reports(
            _doc([]), _doc([_entry("gone", 100.0)], tolerance=0.5))
        assert [r.metric for r in regressions] == ["missing"]
        assert "gone" in regressions[0].describe()

    def test_extra_scenarios_are_noted_not_failed(self):
        current = _doc([_entry("a", 100.0), _entry("new", 1.0)])
        baseline = _doc([_entry("a", 100.0)], tolerance=0.5)
        regressions, lines = compare_reports(current, baseline)
        assert regressions == []
        assert any("new" in line for line in lines)


class TestCLI:
    def test_list_prints_scenarios(self, bench_dir, capsys):
        assert main(["bench", "--list", "--bench-dir", str(bench_dir)]) == 0
        assert capsys.readouterr().out.strip() == "fake"

    def test_json_output_validates(self, bench_dir, capsys):
        code = main(["bench", "--bench-dir", str(bench_dir), "--json", "--out", "-"])
        assert code == 0
        doc = validate_report(json.loads(capsys.readouterr().out))
        assert doc["scenarios"][0]["name"] == "fake"

    def test_writes_report_file(self, bench_dir, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["bench", "--bench-dir", str(bench_dir), "--out", str(out)]) == 0
        assert load_report(out)["preset"] == "smoke"

    def test_compare_pass_and_fail_exit_codes(self, bench_dir, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        argv = ["bench", "--bench-dir", str(bench_dir), "--out", "-"]
        assert main(argv + ["--update-baseline", "--tolerance", "0.5"]) == 0
        assert (bench_dir / "baseline.json").is_file()
        # A fresh run against its own baseline passes...
        assert main(argv + ["--compare", str(bench_dir / "baseline.json")]) == 0
        # ...but an impossibly fast baseline fails with exit code 1.
        doc = load_report(bench_dir / "baseline.json")
        doc["scenarios"][0]["events_per_sec"] = 1e15
        write_report(doc, baseline)
        assert main(argv + ["--compare", str(baseline)]) == 1
        assert "regression" in capsys.readouterr().out

    def test_unknown_scenario_exits_2(self, bench_dir, capsys):
        argv = ["bench", "--bench-dir", str(bench_dir), "--only", "nope", "--out", "-"]
        assert main(argv) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_profile_prints_cumulative_hotspots(self, bench_dir, tmp_path, capsys):
        out = tmp_path / "report.json"
        argv = ["bench", "--bench-dir", str(bench_dir), "--out", str(out), "--profile", "5"]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "cumulative" in err  # sorted by cumulative time
        assert "-- profile: top 5 functions" in err
        assert load_report(out)["scenarios"][0]["name"] == "fake"  # report unchanged

    def test_profile_never_interleaves_with_json_report(self, bench_dir, monkeypatch):
        """Regression: ``--profile`` used to print before the report was
        emitted, so with ``--json --out -`` and stdout/stderr sharing a
        pipe (the common ``2>&1`` case) the profile table landed in the
        middle of the JSON document.  The profile must come strictly
        after the last byte of the report."""
        import io
        import sys

        shared = io.StringIO()
        monkeypatch.setattr(sys, "stdout", shared)
        monkeypatch.setattr(sys, "stderr", shared)
        argv = ["bench", "--bench-dir", str(bench_dir), "--json", "--out", "-",
                "--profile", "5"]
        assert main(argv) == 0
        combined = shared.getvalue()
        marker = combined.index("-- profile: top 5 functions")
        # Everything before the profile is one parseable JSON document.
        doc = validate_report(json.loads(combined[:marker]))
        assert doc["scenarios"][0]["name"] == "fake"

    def test_profile_flag_defaults_to_top_25(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["bench", "--profile"])
        assert args.profile == 25
        assert build_parser().parse_args(["bench"]).profile is None


class TestScenarioRegressions:
    def test_filter_selectivity_smoke_reports_nonzero_throughput(self):
        """The stale-baseline bug: a fixed 50 ms warm-up reset landing
        after the smoke preset's 25 ms of traffic restarted an idle
        measurement window and reported 0.0 Mbps on every leg."""
        (scenario,) = discover_scenarios(only=["ablation_filter_selectivity"])
        result = run_scenario(scenario, preset="smoke")
        assert result.metrics, "selectivity scenario returned no metrics"
        for name, mbps in result.metrics.items():
            assert mbps > 0, f"{name} regressed to zero throughput"

    def test_fig7b_smoke_reports_nonzero_throughput(self):
        """Same bug in fig7b: a fixed 100 ms warm-up reset after the
        smoke preset's 30 ms of traffic measured 0.0 Mbps on all legs."""
        from repro.experiments.overhead import run_fig7b

        result = run_fig7b(link_gbps=10.0, duration_ns=30_000_000)
        assert result.baseline_bps > 0
        assert result.vnettracer_bps > 0
        assert result.systemtap_bps > 0
        assert result.systemtap_loss_pct > result.vnettracer_loss_pct
