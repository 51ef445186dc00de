"""Timing, baseline comparison and JSON emission for `repro perf`.

The committed baseline (``benchmarks/perf/baseline.json``) records the
wall-clock each scenario took at the harness's introduction, measured
pre-optimization on the reference machine.  Every ``repro perf`` run
re-times the requested scenarios, writes ``BENCH_PR2.json`` at the
repo root and — under ``--check`` — fails when a scenario's wall-clock
regresses more than :data:`REGRESSION_THRESHOLD_PCT` percent against
the baseline, or when its simulated event count differs from the
baseline's.  ``--update-baseline`` re-pins the baseline file after a
deliberate change (new machine, new scenario, accepted slowdown,
intended behaviour change).
"""

from __future__ import annotations

import gc
import json
import os
import platform
import sys
import time
from typing import Dict, List, Optional, Tuple

from .scenarios import SCENARIOS

#: A scenario slower than baseline by more than this fails ``--check``.
REGRESSION_THRESHOLD_PCT = 20.0

#: Under ``--check``, one scenario is re-run with tracing armed; the
#: traced run failing to stay within this overhead — or drifting on
#: the event checksum — fails the gate (the obs-on half of the ISSUE-6
#: invariant: tracing observes the simulation, never perturbs it).
OBS_OVERHEAD_THRESHOLD_PCT = 10.0

#: Baseline location relative to the repo root.
BASELINE_RELPATH = os.path.join("benchmarks", "perf", "baseline.json")
#: Report emitted at the repo root.
REPORT_NAME = "BENCH_PR2.json"


def find_repo_root(start: Optional[str] = None) -> Optional[str]:
    """Walk upward from ``start`` (default cwd) to the directory that
    holds the committed baseline; None when run outside the repo."""
    d = os.path.abspath(start or os.getcwd())
    while True:
        if os.path.exists(os.path.join(d, BASELINE_RELPATH)):
            return d
        parent = os.path.dirname(d)
        if parent == d:
            return None
        d = parent


def load_baseline(path: Optional[str] = None) -> Dict[str, dict]:
    """Baseline entries keyed by scenario name ({} when absent)."""
    if path is None:
        root = find_repo_root()
        if root is None:
            return {}
        path = os.path.join(root, BASELINE_RELPATH)
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return data.get("scenarios", {})


def _timed_run(scenario) -> Tuple[float, Dict[str, float]]:
    """One run of ``scenario``: (wall seconds, its work dict).  The
    previous run's garbage (a traced run leaves a full recorder) is
    collected first, outside the timing."""
    gc.collect()
    t0 = time.perf_counter()
    work = scenario.run()
    return time.perf_counter() - t0, work


def time_scenario(name: str, repeat: int = 1) -> dict:
    """Run one scenario ``repeat`` times; report the fastest wall."""
    scenario = SCENARIOS[name]
    best_wall = None
    work: Dict[str, float] = {}
    for _ in range(max(1, repeat)):
        wall, work = _timed_run(scenario)
        if best_wall is None or wall < best_wall:
            best_wall = wall
    entry = {
        "description": scenario.description,
        "wall_s": round(best_wall, 6),
        "events": int(work.get("events", 0)),
        "events_per_s": (
            round(work.get("events", 0) / best_wall) if best_wall > 0 else 0
        ),
    }
    for key, value in sorted(work.items()):
        if key != "events":
            entry[key] = round(value, 3)
    return entry


def run_perf(
    names: Optional[List[str]] = None,
    repeat: int = 1,
    check: bool = False,
    update_baseline: bool = False,
    output: Optional[str] = None,
    baseline_path: Optional[str] = None,
    out=sys.stdout,
) -> int:
    """Drive the harness; returns a process exit code."""
    names = list(names or SCENARIOS)
    for name in names:
        if name not in SCENARIOS:
            print(f"unknown scenario: {name!r} "
                  f"(have: {', '.join(SCENARIOS)})", file=out)
            return 2
    baseline = load_baseline(baseline_path)

    results: Dict[str, dict] = {}
    regressions: List[str] = []
    drifts: List[str] = []
    for name in names:
        print(f"[perf] {name}: {SCENARIOS[name].description}", file=out)
        entry = time_scenario(name, repeat=repeat)
        base = baseline.get(name)
        if base and base.get("wall_s"):
            wall = max(entry["wall_s"], 1e-9)
            entry["baseline_wall_s"] = base["wall_s"]
            entry["speedup_vs_baseline"] = round(base["wall_s"] / wall, 2)
            slowdown_pct = 100.0 * (wall / base["wall_s"] - 1.0)
            entry["regressed"] = slowdown_pct > REGRESSION_THRESHOLD_PCT
            if entry["regressed"]:
                regressions.append(
                    f"{name}: {entry['wall_s']:.2f}s vs baseline "
                    f"{base['wall_s']:.2f}s (+{slowdown_pct:.0f}%)"
                )
        if base and "events" in base:
            # Wall-clock aside, the event count is a behaviour
            # checksum: a drift vs the baseline means the simulation
            # itself changed.  ``--check`` fails on it; re-pin with
            # ``--update-baseline`` after an intended behaviour change.
            entry["events_match_baseline"] = base["events"] == entry["events"]
            if not entry["events_match_baseline"]:
                drifts.append(
                    f"{name}: simulated {entry['events']} events vs "
                    f"{base['events']} at baseline"
                )
        results[name] = entry
        line = (
            f"[perf] {name}: {entry['wall_s']:.2f}s wall, "
            f"{entry['events']} events ({entry['events_per_s']}/s)"
        )
        if "speedup_vs_baseline" in entry:
            line += f", {entry['speedup_vs_baseline']:.2f}x vs baseline"
        print(line, file=out)

    obs_failures: List[str] = []
    if check:
        obs_failures = _obs_check(names[0], repeat, results, out)

    root = find_repo_root()
    out_path = output or os.path.join(root or os.getcwd(), REPORT_NAME)
    # Merge over any prior report so a partial run (e.g. CI's fig6
    # smoke) refreshes its own scenarios without clobbering the rest.
    merged_scenarios: Dict[str, dict] = {}
    if os.path.exists(out_path):
        try:
            with open(out_path, "r", encoding="utf-8") as fh:
                merged_scenarios = json.load(fh).get("scenarios", {})
        except (OSError, ValueError):
            merged_scenarios = {}
    merged_scenarios.update(results)
    report = {
        "bench": "MOON perf-regression harness (PR 2)",
        "threshold_pct": REGRESSION_THRESHOLD_PCT,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "scenarios": merged_scenarios,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"[perf] wrote {out_path}", file=out)

    if update_baseline:
        base_path = baseline_path or os.path.join(
            root or os.getcwd(), BASELINE_RELPATH
        )
        merged = load_baseline(base_path)
        for name, entry in results.items():
            merged[name] = {
                "description": entry["description"],
                "wall_s": entry["wall_s"],
                "events": entry["events"],
            }
        os.makedirs(os.path.dirname(base_path), exist_ok=True)
        with open(base_path, "w", encoding="utf-8") as fh:
            json.dump({"scenarios": merged}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[perf] baseline re-pinned at {base_path}", file=out)

    for r in drifts:
        print(f"[perf] EVENT-COUNT DRIFT {r}", file=out)
    if check and (regressions or drifts or obs_failures):
        for r in regressions:
            print(f"[perf] REGRESSION {r}", file=out)
        for r in obs_failures:
            print(f"[perf] OBS-CHECK FAILED {r}", file=out)
        return 1
    if check and not any("baseline_wall_s" in e for e in results.values()):
        print("[perf] --check requested but no baseline found", file=out)
        return 1
    return 0


def _obs_check(name: str, repeat: int, results: Dict[str, dict], out) -> List[str]:
    """Re-time ``name`` untraced and traced; fail on checksum drift or
    obs-on overhead beyond :data:`OBS_OVERHEAD_THRESHOLD_PCT`.

    The runs alternate, one untraced then one traced, for at least two
    pairs, and each side keeps its fastest run: a host that speeds up
    or slows down during the check shifts both sides alike instead of
    reading as tracing overhead, and a single sample never decides,
    because one run on a busy machine swings more than the threshold
    by itself.  Each traced run records into a fresh recorder, as a
    real ``--trace`` run does.  Results land in the scenario's report
    entry under ``"obs_check"``.
    """
    from ..obs import Observability, ObsConfig, default_observability

    pairs = max(2, repeat)
    print(
        f"[perf] obs-check: re-timing {name} in {pairs} untraced/traced "
        "pairs",
        file=out,
    )
    scenario = SCENARIOS[name]
    off_walls: List[float] = []
    on_walls: List[float] = []
    off_events: List[int] = []
    on_events: List[int] = []
    for _ in range(pairs):
        wall, work = _timed_run(scenario)
        off_walls.append(wall)
        off_events.append(int(work.get("events", 0)))
        with default_observability(Observability(ObsConfig(trace=True))):
            wall, work = _timed_run(scenario)
        on_walls.append(wall)
        on_events.append(int(work.get("events", 0)))
    off_wall = round(min(off_walls), 6)
    on_wall = round(min(on_walls), 6)
    overhead_pct = 100.0 * (on_wall / max(off_wall, 1e-9) - 1.0)
    expected = results[name]["events"]
    events_match = all(e == expected for e in off_events + on_events)
    failures: List[str] = []
    if not events_match:
        failures.append(
            f"{name}: event checksum drift with tracing on — "
            f"{on_events} traced vs {expected} untraced "
            f"(off re-runs: {off_events})"
        )
    if overhead_pct > OBS_OVERHEAD_THRESHOLD_PCT:
        failures.append(
            f"{name}: obs-on overhead {overhead_pct:.1f}% exceeds "
            f"{OBS_OVERHEAD_THRESHOLD_PCT:.0f}% "
            f"({on_wall:.2f}s traced vs {off_wall:.2f}s off)"
        )
    results[name]["obs_check"] = {
        "events_match": events_match,
        "overhead_pct": round(overhead_pct, 1),
        "pairs": pairs,
        "traced_wall_s": on_wall,
        "untraced_wall_s": off_wall,
        "threshold_pct": OBS_OVERHEAD_THRESHOLD_PCT,
    }
    print(
        f"[perf] obs-check {name}: {on_wall:.2f}s traced vs "
        f"{off_wall:.2f}s untraced ({overhead_pct:+.1f}%), events "
        f"{'match' if events_match else 'DRIFTED'}",
        file=out,
    )
    return failures
