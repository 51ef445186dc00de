"""Tests of the perf-regression harness itself.

The fast tests exercise the runner against stub scenarios (regression
detection, JSON emission, baseline update); the slow smoke runs a real
macro-scenario end to end through the CLI exactly as CI does.
"""

from __future__ import annotations

import json

import pytest

from repro.perf import SCENARIOS, Scenario, load_baseline, run_perf
from repro.perf import runner as runner_mod
from repro.perf import scenarios as scenarios_mod


@pytest.fixture
def stub_scenarios(monkeypatch):
    """Replace the registry with two instant stub scenarios."""
    calls = {"fast": 0, "work": 0}

    def fast():
        calls["fast"] += 1
        return {"events": 100.0, "jobs_done": 1.0}

    def work():
        calls["work"] += 1
        return {"events": 500.0, "jobs_done": 2.0}

    stubs = {
        "fast": Scenario("fast", "instant stub", fast),
        "work": Scenario("work", "instant stub 2", work),
    }
    monkeypatch.setattr(scenarios_mod, "SCENARIOS", stubs)
    monkeypatch.setattr(runner_mod, "SCENARIOS", stubs)
    return calls


def _write_baseline(path, entries):
    path.write_text(json.dumps({"scenarios": entries}))


class TestRunner:
    def test_report_written_with_speedup(self, tmp_path, stub_scenarios):
        baseline = tmp_path / "baseline.json"
        _write_baseline(baseline, {"fast": {"wall_s": 1000.0, "events": 100}})
        out = tmp_path / "BENCH.json"
        code = run_perf(
            names=["fast"], output=str(out), baseline_path=str(baseline)
        )
        assert code == 0
        report = json.loads(out.read_text())
        entry = report["scenarios"]["fast"]
        assert entry["events"] == 100
        assert entry["baseline_wall_s"] == 1000.0
        assert entry["speedup_vs_baseline"] > 1.0
        assert entry["regressed"] is False

    def test_check_fails_on_regression(self, tmp_path, stub_scenarios):
        baseline = tmp_path / "baseline.json"
        # Baseline of ~0 seconds: any real run is a >20% regression.
        _write_baseline(baseline, {"fast": {"wall_s": 1e-9, "events": 100}})
        code = run_perf(
            names=["fast"],
            check=True,
            output=str(tmp_path / "BENCH.json"),
            baseline_path=str(baseline),
        )
        assert code == 1

    def test_check_fails_on_event_count_drift(
        self, tmp_path, stub_scenarios, monkeypatch
    ):
        # The obs re-timing of an instant stub is all noise: keep it
        # out so only the event-count gate can fail the run.
        monkeypatch.setattr(runner_mod, "_obs_check", lambda *a: [])
        baseline = tmp_path / "baseline.json"
        out = tmp_path / "BENCH.json"
        _write_baseline(baseline, {"fast": {"wall_s": 1000.0, "events": 100}})
        code = run_perf(
            names=["fast"],
            check=True,
            output=str(out),
            baseline_path=str(baseline),
        )
        assert code == 0
        # Wall-clock well inside the gate, but the stub simulates 100
        # events against a pinned 101: the behaviour changed.
        _write_baseline(baseline, {"fast": {"wall_s": 1000.0, "events": 101}})
        code = run_perf(
            names=["fast"],
            check=True,
            output=str(out),
            baseline_path=str(baseline),
        )
        assert code == 1
        entry = json.loads(out.read_text())["scenarios"]["fast"]
        assert entry["events_match_baseline"] is False
        assert entry["regressed"] is False
        # Without --check the drift is reported, not fatal.
        code = run_perf(
            names=["fast"], output=str(out), baseline_path=str(baseline)
        )
        assert code == 0

    def test_check_without_baseline_fails(self, tmp_path, stub_scenarios):
        baseline = tmp_path / "baseline.json"
        _write_baseline(baseline, {})
        code = run_perf(
            names=["fast"],
            check=True,
            output=str(tmp_path / "BENCH.json"),
            baseline_path=str(baseline),
        )
        assert code == 1

    def test_unknown_scenario_rejected(self, tmp_path, stub_scenarios):
        code = run_perf(names=["nope"], output=str(tmp_path / "B.json"))
        assert code == 2

    def test_update_baseline_pins_current(self, tmp_path, stub_scenarios):
        baseline = tmp_path / "baseline.json"
        _write_baseline(baseline, {"work": {"wall_s": 123.0, "events": 1}})
        code = run_perf(
            names=["fast"],
            update_baseline=True,
            output=str(tmp_path / "BENCH.json"),
            baseline_path=str(baseline),
        )
        assert code == 0
        pinned = load_baseline(str(baseline))
        assert "fast" in pinned and pinned["fast"]["events"] == 100
        # Entries for scenarios not re-run survive the merge.
        assert pinned["work"]["wall_s"] == 123.0

    def test_repeat_takes_fastest(self, tmp_path, stub_scenarios):
        run_perf(
            names=["fast"], repeat=3, output=str(tmp_path / "B.json"),
            baseline_path=str(tmp_path / "missing.json"),
        )
        assert stub_scenarios["fast"] == 3

    def test_obs_check_alternates_untraced_and_traced_runs(
        self, tmp_path, stub_scenarios, monkeypatch
    ):
        """Host drift must not read as tracing overhead: the check
        times untraced/traced pairs, not one block after the other,
        and each traced run gets a fresh recorder."""
        from repro.obs import current_default

        armed = []
        clock = iter(range(100))

        def fast():
            obs = current_default()
            armed.append(obs)
            return {"events": 100.0}

        # Each run takes one second: untraced and traced tie.
        monkeypatch.setattr(
            runner_mod.time, "perf_counter", lambda: float(next(clock))
        )
        monkeypatch.setitem(
            runner_mod.SCENARIOS, "fast", Scenario("fast", "stub", fast)
        )
        results = {"fast": {"events": 100}}
        failures = runner_mod._obs_check("fast", 3, results, out=None)
        assert failures == []
        traced = [obs is not None and obs.tracer.enabled for obs in armed]
        assert traced == [False, True] * 3
        recorders = [obs for obs in armed if obs is not None]
        assert len({id(obs) for obs in recorders}) == 3
        check = results["fast"]["obs_check"]
        assert check["pairs"] == 3
        assert check["overhead_pct"] == 0.0


class TestRegistry:
    def test_real_registry_names(self):
        assert set(SCENARIOS) == {
            "fig6", "fig7", "service2k", "fairshare", "autoscale2k",
            "replay2k", "preempt2k", "detect2k", "recover2k",
            "scale10k",
        }

    def test_descriptions_present(self):
        for s in SCENARIOS.values():
            assert s.description


@pytest.mark.slow
def test_cli_smoke_fig6_against_committed_baseline(tmp_path, capsys):
    """The CI perf smoke: `repro perf --scenario fig6 --check`.

    ``--repeat 2`` takes the fastest of two timings: the wall-clock
    gate should trip on real regressions, not on a scheduler hiccup
    during a single run.  The event checksum is exact either way.
    """
    from repro.cli.main import main

    out = tmp_path / "BENCH_PR2.json"
    code = main(
        ["perf", "--scenario", "fig6", "--check", "--repeat", "2",
         "--output", str(out)]
    )
    assert code == 0, capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["scenarios"]["fig6"]["wall_s"] > 0
