"""Tests of the benchmark itself: inputs, invariants, digests, contract.

Run from the repository root with ``python -m pytest perfbench``; the
simulation-heavy cases are marked ``slow``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from moonbench.checks import CheckFailed, check_cell
from moonbench.layers import ENTRY_POINTS, LayerTrace
from moonbench.measure import run_workload
from moonbench.workloads import (
    WORKLOADS,
    CellResult,
    JobRow,
    Workload,
    fairshare_cells,
    paper_cells,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _load(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


@pytest.mark.slow
@pytest.mark.parametrize(
    "scenario, cells",
    [
        ("service2k", WORKLOADS["serve_stream"].cells),
        ("fig7", paper_cells(n_maps=384, jobs=1)),
        ("fairshare", fairshare_cells(n_maps=192, jobs=1)),
    ],
)
def test_seed_42_rebuilds_the_perf_scenario_inputs(scenario, cells):
    pinned = _load(os.path.join(ROOT, "benchmarks", "perf", "baseline.json"))
    run = run_workload(Workload(scenario, "", cells), seed=42)
    assert run.events == pinned["scenarios"][scenario]["events"]


@pytest.mark.slow
def test_held_out_seed_changes_the_digest_and_keeps_the_invariants():
    workload = Workload("held_out", "", WORKLOADS["fairshare_sort"].cells)
    at_42 = run_workload(workload, seed=42)
    # run_workload checks every invariant of every cell it runs.
    plain = run_workload(workload, seed=43)
    assert plain.digests != at_42.digests

    trace = LayerTrace()
    saved = {(cls, n): cls.__dict__[n] for _l, cls, names in ENTRY_POINTS
             for n in names if n in cls.__dict__}
    trace.install()
    try:
        traced = run_workload(workload, seed=43, trace=trace)
    finally:
        trace.uninstall()
    assert traced.digests == plain.digests
    assert trace.events == plain.events
    assert all(cls.__dict__[n] is fn for (cls, n), fn in saved.items())


def _cell(**overrides) -> CellResult:
    fields = dict(
        events=10,
        sim_end=5.0,
        submitted=2,
        rows=[JobRow(0.0, 1.0, 4.0, "succeeded", False),
              JobRow(2.0, None, None, "rejected", True)],
        reported={"arrived": 2, "succeeded": 1, "failed": 0, "rejected": 1,
                  "dropped": 0, "unserved": 0},
        jobs=[],
    )
    fields.update(overrides)
    return CellResult(**fields)


def test_invariants_reject_inconsistent_outcomes():
    # No JobTracker job backs the succeeded row.
    with pytest.raises(CheckFailed, match="succeeded jobs"):
        check_cell("c", _cell())
    # The program returned an outcome for fewer jobs than were submitted.
    with pytest.raises(CheckFailed, match="3 submitted"):
        check_cell("c", _cell(submitted=3))
    with pytest.raises(CheckFailed, match="submitted"):
        check_cell("c", _cell(reported={"arrived": 2, "succeeded": 1,
                                        "failed": 1, "rejected": 1,
                                        "dropped": 0, "unserved": 0}))
    # The JobTracker lost a job the program reported on.
    with pytest.raises(CheckFailed, match="1 job rows"):
        check_cell("c", _cell(rows=[JobRow(0.0, 1.0, 4.0, "succeeded",
                                           False)]))
    # The rows' states disagree with the returned outcomes.
    with pytest.raises(CheckFailed, match="disagree"):
        check_cell("c", _cell(rows=[JobRow(0.0, 1.0, 4.0, "succeeded", False)]
                              * 2))
    with pytest.raises(CheckFailed, match="negative response"):
        check_cell("c", _cell(
            rows=[JobRow(3.0, None, 2.0, "rejected", True)] * 2,
            reported={"arrived": 2, "succeeded": 0, "failed": 0,
                      "rejected": 2, "dropped": 0, "unserved": 0},
        ))


def test_task_check_allows_only_a_consumed_map_to_end_incomplete():
    from types import SimpleNamespace as NS

    from repro.mapreduce import AttemptState, JobState

    def task(is_map, complete, *states):
        attempts = [NS(state=st, finished=True) for st in states]
        return NS(task_id="t", is_map=is_map, complete=complete,
                  attempts=attempts, live_attempts=lambda: [])

    won, lost = AttemptState.SUCCEEDED, AttemptState.KILLED

    def check(n_reduces, *tasks):
        job = NS(job_id="j", state=JobState.SUCCEEDED, n_reduces=n_reduces,
                 tasks=list(tasks))
        rows = [JobRow(0.0, 0.0, 1.0, "succeeded", None)]
        reported = {"arrived": 1, "succeeded": 1, "failed": 0,
                    "rejected": 0, "dropped": 0, "unserved": 0}
        return check_cell("c", _cell(submitted=1, rows=rows,
                                     reported=reported, jobs=[job]))

    # A map whose output was lost after the reduces read it.
    assert check(1, task(True, False, lost, lost), task(False, True, won)) == 1
    for n_reduces, bad in (
        (1, task(False, False, lost)),  # an unfinished reduce
        (0, task(True, False, lost)),  # an unfinished map of a map-only job
        (1, task(True, True, won, won)),  # two winners
        (1, task(True, False, won)),  # a win on an incomplete task
    ):
        with pytest.raises(CheckFailed, match="SUCCEEDED attempts"):
            check(n_reduces, bad)


def test_benchmark_json_matches_the_contract():
    bench = _load(os.path.join(ROOT, "BENCHMARK.json"))
    contract = _load(os.path.join(HERE, "contract.json"))
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    for kind, keys in (("end_to_end", ("name", "unit", "better", "bound")),
                       ("per_layer", ("name", "unit", "better"))):
        assert bench[kind] == [{k: m[k] for k in keys}
                               for m in contract[kind]]


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
