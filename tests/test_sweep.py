"""Parallel sweep runner (engine scale-out PR).

The contract: the merged report is byte-stable — identical JSON at any
``--procs`` — cells land in grid order regardless of completion order,
and bad grids fail loudly before any cell runs.
"""

from __future__ import annotations

import json

import pytest

from repro.cli.main import main
from repro.errors import ConfigError
from repro.service import SweepSpec, run_sweep, sweep_summary_rows

TINY = SweepSpec(
    policies=("fifo", "sjf"),
    scales=(1.0,),
    seeds=(1, 2),
    jobs_per_hour=12.0,
    hours=0.25,
    n_volatile=6,
    n_dedicated=2,
)


class TestByteStability:
    def test_procs_1_equals_procs_2(self):
        a = run_sweep(TINY, procs=1).to_json()
        b = run_sweep(TINY, procs=2).to_json()
        assert a == b

    def test_cells_in_grid_order(self):
        result = run_sweep(TINY, procs=2)
        got = [(c["policy"], c["scale"], c["seed"]) for c in result.cells]
        want = [(c.policy, c.scale, c.seed) for c in TINY.cells()]
        assert got == want

    def test_report_carries_no_wall_clock(self):
        # Nothing in the canonical bytes may depend on how fast the
        # host ran: a re-run must compare equal with cmp.
        text = run_sweep(TINY, procs=1).to_json()
        payload = json.loads(text)
        assert payload["schema_version"] == 1
        flat = json.dumps(payload, sort_keys=True)
        for banned in ("wall", "elapsed_real", "hostname", "pid"):
            assert banned not in flat

    def test_summary_rows_cover_every_cell(self):
        result = run_sweep(TINY, procs=1)
        rows = sweep_summary_rows(result)
        assert len(rows) == len(result.cells)
        assert rows[0][0] == "fifo" and rows[-1][0] == "sjf"


class TestValidation:
    def test_unknown_policy(self):
        with pytest.raises(ConfigError, match="policy"):
            SweepSpec(policies=("nope",)).validate()

    def test_duplicate_seeds(self):
        with pytest.raises(ConfigError, match="duplicate"):
            SweepSpec(seeds=(1, 1)).validate()

    def test_bad_scale(self):
        with pytest.raises(ConfigError, match="positive"):
            SweepSpec(scales=(0.0,)).validate()

    def test_procs_must_be_positive(self):
        with pytest.raises(ConfigError, match="procs"):
            run_sweep(TINY, procs=0)


class TestCli:
    def test_sweep_writes_canonical_json(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        rc = main(
            [
                "sweep",
                "--policies", "fifo",
                "--scales", "1",
                "--seeds", "3",
                "--hours", "0.25",
                "--volatile", "6",
                "--json", str(out),
            ]
        )
        assert rc == 0
        assert "sweep - 1 cells" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert [c["seed"] for c in payload["cells"]] == [3]

    def test_bad_grid_is_exit_2(self, tmp_path):
        rc = main(["sweep", "--policies", "bogus", "--seeds", "1"])
        assert rc == 2

    def test_sweep_cell_equals_the_serve_run(self, tmp_path, capsys):
        """One builder: a sweep cell and `repro serve` on the same world
        report the same dict."""
        world = ["--hours", "0.25", "--volatile", "6", "--dedicated", "2",
                 "--rate", "0.1", "--max-in-flight", "2",
                 "--jobs-per-hour", "6", "--catalog", "sleep"]
        swept, served = tmp_path / "sweep.json", tmp_path / "serve.json"
        assert main(["sweep", "--policies", "fifo", "--seeds", "4",
                     *world, "--json", str(swept)]) == 0
        assert main(["serve", "--pattern", "poisson", "--policy", "fifo",
                     "--seed", "4", *world, "--json", str(served)]) == 0
        [cell] = json.loads(swept.read_text())["cells"]
        [report] = json.loads(served.read_text())["reports"]
        assert cell["report"] == report

