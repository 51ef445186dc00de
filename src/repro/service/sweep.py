"""Grid runner: one spec per served world, one cell builder, one loop.

The questions the service layer gets asked — "does EDF still win at 3x
load?", "does pausing help every queue policy?", "is the SJF edge seed
luck?" — need a grid.  A :class:`SweepSpec` holds the served world and
six axes (:data:`AXES`); every cell of their cartesian product is an
independent, seed-deterministic world.  :func:`build_cell` is the only
place a cell's world is assembled, :func:`serve_grid` the one loop and
:func:`comparison_table` the one summary.  :func:`run_sweep` fans the
cells across processes and merges them into a **byte-stable** report:
identical JSON on 1 process or 16, keyed and ordered by grid position,
with no wall-clock content, so ``cmp`` on two sweep files is a
regression test.  The scale axis multiplies the offered load, not the
cluster: how do policies degrade as the same machines get busier?
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, replace
from typing import Any, Iterator, List, NamedTuple, Optional, Tuple

from ..config import (
    ClusterConfig,
    DetectorConfig,
    DfsConfig,
    JournalConfig,
    SystemConfig,
    TraceConfig,
    moon_scheduler_config,
)
from ..errors import ConfigError
from ..plotting import table
from .arrivals import (
    bursty_arrivals,
    default_catalog,
    diurnal_arrivals,
    poisson_arrivals,
    sleep_catalog,
)
from .autoscale import AutoscaleConfig, render_decisions
from .preempt import PreemptConfig, render_preempt_events
from .queue import QUEUE_POLICIES
from .service import MoonService, ServiceConfig

#: Bump on any incompatible change to the merged-report layout.
SWEEP_SCHEMA_VERSION = 1

class Axis(NamedTuple):
    """One grid axis: the cell coordinate, the :class:`SweepSpec` field
    holding its values, its comparison-table title label, and the
    columns it adds to that table when it varies — read from the
    ``ServiceReport`` method ``row`` after the summary cells."""

    name: str
    values: str
    label: str
    columns: Tuple[str, ...] = ()
    row: Optional[str] = None


#: The grid axes in loop order, outermost first.
AXES = (
    Axis("autoscale", "autoscales", "autoscale-policy",
         ("node-h", "tier", "ops"), "cost_row"),
    Axis("policy", "policies", "queue-policy"),
    Axis("preempt", "preempts", "preemption", ("depri", "pauses"),
         "preempt_row"),
    Axis("detector", "detectors", "detector",
         ("detect s", "false+", "requeues", "wasted s"), "detector_row"),
    Axis("scale", "scales", "load-scale"),
    Axis("seed", "seeds", "seed"),
)


@dataclass(frozen=True)
class SweepSpec:
    """A served world and the grid of cells run over it.

    Every field is the value of an existing ``serve``/``replay``/
    ``sweep`` flag.  The first six are the axes; a one-value axis is
    fixed for every cell.
    """

    #: Autoscale policies (None = the fixed tier).
    autoscales: Tuple[Optional[str], ...] = (None,)
    policies: Tuple[str, ...] = tuple(QUEUE_POLICIES)
    #: Preemption modes (None = no controller).
    preempts: Tuple[Optional[str], ...] = (None,)
    detectors: Tuple[str, ...] = ("oracle",)
    #: Load multipliers applied to ``jobs_per_hour``.
    scales: Tuple[float, ...] = (1.0,)
    seeds: Tuple[int, ...] = (42,)
    n_volatile: int = 8
    n_dedicated: int = 2
    unavailability_rate: float = 0.3
    detector_scale: float = 1.0
    #: "off" | "on"; a ``namenode_crash`` implies "on".
    journal: str = "off"
    checkpoint_interval: float = 300.0
    namenode_crash: Optional[float] = None
    #: Arrival-pattern label: poisson | bursty | diurnal generate the
    #: stream; with ``trace`` set it only labels the replay.
    pattern: str = "poisson"
    jobs_per_hour: float = 12.0
    burst_size: float = 6.0
    hours: float = 1.0
    tenants: int = 3
    catalog: str = "sleep"
    block_mb: float = 4.0
    #: A replayed :class:`~repro.workload_traces.WorkloadTrace` (its
    #: horizon and name) and its arrivals, calibrated once and shared
    #: by every cell.
    trace: Optional[Any] = None
    arrivals: Tuple = ()
    max_in_flight: int = 4
    max_queue_depth: Optional[int] = 64
    tenant_quota: Optional[int] = None
    admission_prices: bool = False
    drain_hours: float = 4.0
    autoscale_interval: float = 30.0
    min_dedicated: int = 1
    #: Autoscale ceiling (None = 2x the tier, at least the floor + 1).
    max_dedicated: Optional[int] = None

    @property
    def dedicated_ceiling(self) -> int:
        if self.max_dedicated is not None:
            return self.max_dedicated
        return max(2 * self.n_dedicated, self.min_dedicated + 1)

    def varying(self) -> List[Axis]:
        """The axes with more than one value, in :data:`AXES` order."""
        return [a for a in AXES if len(getattr(self, a.values)) > 1]

    def cells(self) -> Iterator["SweepCell"]:
        """Grid order — the canonical order of every grid output."""
        axes = (getattr(self, a.values) for a in AXES)
        return itertools.starmap(SweepCell, itertools.product(*axes))

    def validate(self) -> None:
        """Check the grid, then build and validate every cell's
        configs: a bad value fails before any cell runs."""
        for axis in AXES:
            values = getattr(self, axis.values)
            if not values:
                raise ConfigError(f"the grid needs >= 1 {axis.name}")
            if len(set(values)) != len(values):
                raise ConfigError(f"duplicate {axis.values} in sweep grid")
        if any(s <= 0 for s in self.scales):
            raise ConfigError("scales must be positive")
        if self.trace is not None:
            if self.scales != (1.0,):
                raise ConfigError(
                    "a replay stream is calibrated once; synthesize the "
                    "trace at the load instead of scaling it"
                )
        elif self.pattern not in ("poisson", "bursty", "diurnal"):
            raise ConfigError(
                f"a synthetic stream is poisson, bursty or diurnal, not "
                f"{self.pattern!r}; feed a workload trace with `repro "
                f"replay --trace <file>` instead"
            )
        elif self.jobs_per_hour <= 0 or self.hours <= 0:
            raise ConfigError("jobs_per_hour and hours must be positive")
        elif self.pattern == "bursty" and self.burst_size < 1:
            raise ConfigError("burst_size must be >= 1")
        elif self.tenants < 1:
            raise ConfigError("need at least one tenant")
        elif self.catalog not in ("sleep", "mixed"):
            raise ConfigError(f"unknown catalog: {self.catalog!r}")
        for cell in self.cells():
            system, service = _cell_configs(self, cell)
            system.validate()
            service.validate()


@dataclass(frozen=True)
class SweepCell:
    """One grid point: a value on every axis, in :data:`AXES` order."""

    autoscale: Optional[str]
    policy: str
    preempt: Optional[str]
    detector: str
    scale: float
    seed: int


def _cell_configs(
    spec: SweepSpec, cell: SweepCell, capture: bool = False
) -> Tuple[SystemConfig, ServiceConfig]:
    """The system and service configs of one cell."""
    scheduler = moon_scheduler_config()
    autoscale = None
    if cell.autoscale is not None:
        scheduler = replace(scheduler, dedicated_primary=True)
        autoscale = AutoscaleConfig(
            policy=cell.autoscale,
            interval=spec.autoscale_interval,
            min_dedicated=spec.min_dedicated,
            max_dedicated=spec.dedicated_ceiling,
        )
    dfs = DfsConfig()
    if spec.journal == "on" or spec.namenode_crash is not None:
        dfs = DfsConfig(
            journal=JournalConfig(
                enabled=True,
                checkpoint_interval=spec.checkpoint_interval,
                crash_at=spec.namenode_crash,
            )
        )
    system = SystemConfig(
        cluster=ClusterConfig(
            n_volatile=spec.n_volatile, n_dedicated=spec.n_dedicated
        ),
        trace=TraceConfig(unavailability_rate=spec.unavailability_rate),
        scheduler=scheduler,
        detector=DetectorConfig(
            mode=cell.detector, timeout_scale=spec.detector_scale
        ),
        dfs=dfs,
        seed=cell.seed,
    )
    replay = spec.trace
    service = ServiceConfig(
        policy=cell.policy,
        max_in_flight=spec.max_in_flight,
        max_queue_depth=spec.max_queue_depth,
        tenant_quota=spec.tenant_quota,
        horizon=spec.hours * 3600.0 if replay is None else replay.horizon,
        drain_limit=spec.drain_hours * 3600.0,
        autoscale=autoscale,
        capture=capture,
        trace_name=None if replay is None else replay.name,
        preempt=None if cell.preempt is None else PreemptConfig(cell.preempt),
        admission_prices=spec.admission_prices,
    )
    return system, service


def build_cell(
    spec: SweepSpec, cell: SweepCell, obs=None, capture: bool = False
):
    """One cell as ``(system, arrivals, ServiceConfig)``: a fresh system
    per cell, so the same seed gives the same traces and the same
    arrival draws and every cell competes on an identical stream."""
    # Imported here: repro.core imports the service package.
    from ..core import moon_system

    system_cfg, service_cfg = _cell_configs(spec, cell, capture)
    system = moon_system(system_cfg, obs=obs)
    if spec.trace is not None:
        return system, spec.arrivals, service_cfg
    catalog = (
        sleep_catalog()
        if spec.catalog == "sleep"
        else default_catalog(block_mb=spec.block_mb)
    )
    tenants = tuple(f"tenant-{i + 1}" for i in range(spec.tenants))
    rng = system.sim.rng("service/arrivals")
    rate = spec.jobs_per_hour * cell.scale
    horizon = service_cfg.horizon
    if spec.pattern == "poisson":
        arrivals = poisson_arrivals(rng, rate, horizon, catalog, tenants)
    elif spec.pattern == "bursty":
        # Bursts of burst_size jobs whose epoch rate preserves the
        # requested mean arrival rate exactly.
        arrivals = bursty_arrivals(
            rng, rate / spec.burst_size, spec.burst_size, horizon,
            catalog, tenants,
        )
    else:
        arrivals = diurnal_arrivals(rng, rate, horizon, catalog, tenants)
    return system, arrivals, service_cfg


def serve_cell(
    spec: SweepSpec, cell: SweepCell, obs=None, capture: bool = False
):
    """Build and serve one cell; return ``(service, report)``."""
    system, arrivals, config = build_cell(spec, cell, obs, capture)
    service = MoonService(system, config, arrivals, pattern=spec.pattern)
    report = service.run()
    system.jobtracker.stop()
    system.namenode.stop()
    return service, report


def serve_grid(spec: SweepSpec, obs=None, capture: bool = False):
    """The one grid loop: yield ``(cell, service, report)`` per cell in
    grid order.  The whole grid is validated before the first cell
    runs; the flight recorder (``obs``) and the stream ``capture``
    observe the first cell only."""
    spec.validate()
    for i, cell in enumerate(spec.cells()):
        first = i == 0
        service, report = serve_cell(
            spec, cell, obs if first else None, capture and first
        )
        yield cell, service, report


def render_cell(report) -> str:
    """One cell's report, then whichever audit logs it has (scale
    decisions, preemption actions); printed, each ends in a blank
    line."""
    parts = [report.render()]
    if report.scale_events:
        parts.append(render_decisions(report.scale_events))
    if report.preempt_events:
        parts.append(render_preempt_events(report.preempt_events))
    return "\n\n".join(parts) + "\n"


#: Overall summary columns (``ServiceReport.summary_row``).
SUMMARY_COLS = ["done", "p50 s", "p95 s", "p99 s", "miss", "good/h",
                "fairness"]

def comparison_table(spec: SweepSpec, reports) -> Optional[str]:
    """The grid's one comparison table (None for a single cell).

    Columns: the axes that vary, the summary columns, then each
    varying axis's extension columns.  The title names the varying
    axes and the stream, then the queue policy when it is fixed and
    the autoscale bounds when the tier autoscales.
    """
    varying = spec.varying()
    if not varying:
        return None
    headers = [a.name for a in varying] + SUMMARY_COLS
    for axis in varying:
        headers += axis.columns
    rows = []
    for cell, report in zip(spec.cells(), reports):
        row = [
            f"x{cell.scale:g}" if a.name == "scale" else getattr(cell, a.name)
            for a in varying
        ]
        row += report.summary_row()
        for axis in varying:
            if axis.row is not None:
                row += getattr(report, axis.row)()[len(SUMMARY_COLS):]
        rows.append(row)
    title = " x ".join(a.label for a in varying)
    if spec.trace is None:
        title += f" comparison - {spec.pattern} arrivals"
    else:
        title += f" comparison - trace {spec.trace.name}"
    if len(spec.policies) == 1:
        title += f", {spec.policies[0]} queue"
    if spec.autoscales != (None,):
        title += (
            f" (D{spec.n_dedicated}, bounds "
            f"{spec.min_dedicated}..{spec.dedicated_ceiling})"
        )
    return table(headers, rows, title=title)


@dataclass
class SweepResult:
    """The merged, byte-stable sweep report."""

    spec: SweepSpec
    #: One report dict per cell, in grid order.
    cells: List[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "schema_version": SWEEP_SCHEMA_VERSION,
            "grid": {
                "policies": list(self.spec.policies),
                "scales": list(self.spec.scales),
                "seeds": list(self.spec.seeds),
                "jobs_per_hour": self.spec.jobs_per_hour,
                "hours": self.spec.hours,
                "volatile": self.spec.n_volatile,
                "dedicated": self.spec.n_dedicated,
                "unavailability_rate": self.spec.unavailability_rate,
                "catalog": self.spec.catalog,
            },
            "cells": self.cells,
        }

    def to_json(self) -> str:
        """Canonical bytes: sorted keys, fixed separators, newline."""
        return (
            json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"
        )


def _sweep_worker(payload: Tuple[SweepSpec, SweepCell]) -> dict:
    spec, cell = payload
    return serve_cell(spec, cell)[1].to_dict()


def run_sweep(spec: SweepSpec, procs: int = 1) -> SweepResult:
    """Run the grid on ``procs`` worker processes; merge in grid order.

    ``procs=1`` runs :func:`serve_grid` inline and is byte-identical to
    any ``procs>1`` run: results are reassembled by grid position.  A
    merged cell records its policy, scale and seed; any other axis is
    in its report.
    """
    if procs < 1:
        raise ConfigError("procs must be >= 1")
    spec.validate()
    cells = list(spec.cells())
    if procs == 1 or len(cells) == 1:
        reports = [r.to_dict() for _, _, r in serve_grid(spec)]
    else:
        # Imported here: only a fanned-out sweep pays for the pool.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(procs, len(cells))) as ex:
            # Executor.map preserves input order regardless of which
            # worker finishes first — the merge is the identity.
            reports = list(
                ex.map(_sweep_worker, [(spec, c) for c in cells])
            )
    return SweepResult(spec, [
        {"policy": c.policy, "scale": c.scale, "seed": c.seed, "report": r}
        for c, r in zip(cells, reports)
    ])


def sweep_summary_rows(result: SweepResult) -> List[List]:
    """Per-cell table rows (policy, scale, seed + the summary columns)
    for the CLI; pure formatting over the canonical dicts."""
    def sec(v) -> str:
        return "-" if v is None else f"{v:.1f}"

    def pct(v) -> str:
        return "-" if v is None else f"{100.0 * v:.1f}%"

    rows: List[List] = []
    for cell in result.cells:
        overall = cell["report"]["overall"]
        rows.append(
            [
                cell["policy"],
                f"x{cell['scale']:g}",
                cell["seed"],
                overall["completed"],
                sec(overall["p50"]),
                sec(overall["p95"]),
                pct(overall["miss_rate"]),
                f"{overall['goodput_per_hour']:.2f}",
            ]
        )
    return rows
