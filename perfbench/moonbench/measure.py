"""Timed runs of one workload and the metrics derived from them.

A run builds and simulates every cell of every realization of a
workload once.  Set-up is the time from the start of a cell's system
build to its first dispatched event (stamped through
``Simulation.trace_hook``); the run is the time from that event until
the cell's results are in hand, less the calibration kernel's runs
(``calibrate.py``) that interrupted it, which also give each
realization's times in reference seconds.
"""

from __future__ import annotations

import contextlib
import gc
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter, process_time
from typing import Dict, List, Optional, Tuple

from repro.obs import ObsConfig, Observability, default_observability

from .calibrate import Sampler, reference_factor
from .checks import CheckFailed, check_cell, outcome_digest
from .layers import LAYERS, LayerTrace
from .workloads import CellResult, Workload, realization_seeds


@dataclass
class Span:
    """Host time of one realization, with the host's speed around it."""

    setup_s: float
    run_s: float
    cpu_s: float
    #: Factor from this host's seconds to reference seconds, from the
    #: calibrations around and during the realization.
    to_ref: float


@dataclass
class Run:
    """One pass over every realization and cell of a workload."""

    spans: List[Span]
    cells: List[CellResult]
    #: SUCCEEDED attempts over every cell (read before the jobs are
    #: released).
    succeeded_attempts: int
    #: Outcome digest of each realization.
    digests: List[str]

    @property
    def run_s(self) -> float:
        return sum(s.run_s for s in self.spans)

    @property
    def cpu_s(self) -> float:
        return sum(s.cpu_s for s in self.spans)

    @property
    def setup_s(self) -> float:
        """Median set-up over realizations (each summed over cells)."""
        return statistics.median(s.setup_s for s in self.spans)

    @property
    def run_ref_s(self) -> float:
        return sum(s.run_s * s.to_ref for s in self.spans)

    @property
    def cpu_ref_s(self) -> float:
        return sum(s.cpu_s * s.to_ref for s in self.spans)

    @property
    def setup_ref_s(self) -> float:
        return statistics.median(s.setup_s * s.to_ref for s in self.spans)

    @property
    def events(self) -> int:
        return sum(c.events for c in self.cells)


class _FirstEvent:
    """One-shot trace hook: stamps the clocks at the first event."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.at: Optional[Tuple[float, float]] = None

    def __call__(self, time, event) -> None:
        self.at = (perf_counter(), process_time())
        self.sim.trace_hook = None


def run_workload(
    workload: Workload,
    seed: int,
    trace: Optional[LayerTrace] = None,
    recorder: bool = False,
) -> Run:
    """Build and run every cell of every realization once, checking
    each cell's invariants.

    ``trace`` hooks a :class:`LayerTrace` (its shims must already be
    installed); ``recorder`` builds the systems under the flight
    recorder (``ObsConfig(trace=True)``).
    """
    gc.collect()
    realizations_done: List[Span] = []
    spans: list = []
    digests: List[str] = []
    cells: List[CellResult] = []
    succeeded_attempts = 0
    for sub_seed in realization_seeds(seed, workload.realizations):
        setup = run = cpu = 0.0
        done: List[CellResult] = []
        # Traced runs calibrate only around the realization: a kernel
        # run inside a span would be billed to that span's layer.
        with Sampler(during=trace is None) as sampler:
            for name, build in workload.cells:
                if trace is not None:
                    trace.begin_cell()
                t0 = perf_counter()
                armed = (
                    default_observability(Observability(ObsConfig(trace=True)))
                    if recorder
                    else contextlib.nullcontext()
                )
                with armed:
                    system, go = build(sub_seed)
                if trace is not None:
                    trace.attach(system.sim, system.cluster)
                else:
                    stamp = _FirstEvent(system.sim)
                    system.sim.trace_hook = stamp
                cell = go()
                t_end, c_end = perf_counter(), process_time()
                first = trace.first_event if trace is not None else stamp.at
                label = f"{workload.name}/{name}/seed {sub_seed}"
                if first is None:
                    raise CheckFailed(f"{label}: no event dispatched")
                spans.append((t0, first, t_end, c_end))
                succeeded_attempts += check_cell(label, cell)
                cell.name = name
                cell.jobs = []  # release the object graph before the next cell
                del system, go
                done.append(cell)
        for t0, (t_first, c_first), t_end, c_end in spans:
            setup += t_first - t0 - sampler.spent(t0, t_first)[0]
            wall, kernel_cpu = sampler.spent(t_first, t_end)
            run += t_end - t_first - wall
            cpu += c_end - c_first - kernel_cpu
        spans.clear()
        realizations_done.append(Span(setup, run, cpu, sampler.to_ref))
        digests.append(outcome_digest(done))
        cells += done
    return Run(realizations_done, cells, succeeded_attempts, digests)


def import_samples(times: int) -> List[Tuple[float, float]]:
    """Seconds fresh interpreters take to import ``repro``, each in this
    host's seconds and in reference seconds.  The child calibrates
    right before and after its import, on the core it runs on."""
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(os.path.dirname(here), "src")
    child = (
        "import sys, time\n"
        f"sys.path[:0] = [{src!r}, {here!r}]\n"
        "from moonbench.calibrate import calibrate\n"
        "before = calibrate()\n"
        "t0 = time.perf_counter()\n"
        "import repro.core, repro.service\n"
        "took = time.perf_counter() - t0\n"
        "print(took, before, calibrate())\n"
    )
    samples = []
    for _ in range(times):
        done = subprocess.run(
            [sys.executable, "-c", child],
            capture_output=True,
            text=True,
            check=True,
        )
        took, before, after = map(float, done.stdout.split())
        samples.append((took, took * reference_factor((before + after) / 2)))
    return samples


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Simulated outcomes (identical on every run of one seed)
# ----------------------------------------------------------------------
def _responses(cell: CellResult) -> List[float]:
    return [r.finished - r.arrival for r in cell.rows if r.state == "succeeded"]


def sim_metrics(run: Run) -> Dict[str, Tuple[float, str]]:
    """Simulated end-to-end outcomes of one run, with their units.

    ``sim_response_p50_s`` is, for each cell, the median response over
    its completed jobs in every realization, averaged over the cells:
    the two policies of a comparison weigh the same however their
    distributions overlap, and a job that hits its time limit moves a
    median by one rank, not a mean by hours.
    """
    by_cell: Dict[str, List[float]] = {}
    for cell in run.cells:
        by_cell.setdefault(cell.name, []).extend(_responses(cell))
    if not all(by_cell.values()):
        raise CheckFailed("a cell completed no job")
    medians = [statistics.median(v) for v in by_cell.values()]
    rows = [r for c in run.cells for r in c.rows]
    responses = sorted(x for c in run.cells for x in _responses(c))
    out = {
        "sim_response_p50_s": (statistics.fmean(medians), "s"),
        "sim_completed": (float(len(responses)), "count"),
        "sim_submitted": (float(len(rows)), "count"),
        "jobs_failed_frac": (
            sum(r.state != "succeeded" for r in rows) / len(rows),
            "fraction",
        ),
    }
    # The highest percentile with at least ten samples beyond it.
    for pct in (99.0, 95.0, 90.0):
        if len(responses) * (1 - pct / 100) >= 10:
            q = statistics.quantiles(responses, n=1000, method="inclusive")
            out[f"sim_response_p{pct:g}_s"] = (q[int(pct * 10) - 1], "s")
            break
    eligible = [r for r in rows if r.missed is not None]
    if eligible:
        out["sim_slo_miss_frac"] = (
            sum(r.missed for r in eligible) / len(eligible),
            "fraction",
        )
    return out


# ----------------------------------------------------------------------
# Per-layer metrics of one traced run
# ----------------------------------------------------------------------
def layer_metrics(
    trace: LayerTrace, traced: Run, plain: Run, recorded: Run
) -> Dict[str, Tuple[float, str]]:
    """Per-layer counts, ratios and self times of the traced run.

    ``plain`` is an untraced run of the same seed, the base of the
    overheads (in reference seconds) and of ``us_per_event``;
    ``recorded`` ran under the flight recorder.  Self times are in this
    host's seconds and add up, with ``other.self_s``, to the traced
    run's wall time.
    """
    base_s = plain.run_ref_s
    selfs = trace.self_seconds()
    launches = trace.count("mapreduce", "launch")
    selects = trace.count("scheduling", "select_task")
    scheduled = trace.count("simulation", "call_at", "call_after")
    net_calls = trace.count("net", "transfer", "disk_io")
    admitted = [
        r.admitted - r.arrival
        for c in traced.cells
        for r in c.rows
        if r.admitted is not None
    ]
    offers = trace.count("service", "offer")
    m: Dict[str, Tuple[float, str]] = {
        "simulation.events": (trace.events, "count"),
        "simulation.scheduled": (scheduled, "count"),
        "simulation.live_frac": (trace.events / scheduled, "fraction"),
        "simulation.queue_peak": (trace.queue_peak, "count"),
        "simulation.us_per_event": (plain.run_s / plain.events * 1e6, "us"),
        "scheduling.select_calls": (selects, "count"),
        "scheduling.assign_frac": (launches / selects, "fraction"),
        "mapreduce.ticks": (trace.count("scheduling", "begin_tick"), "count"),
        "mapreduce.launches": (launches, "count"),
        "mapreduce.useful_attempt_frac": (
            traced.succeeded_attempts / launches,
            "fraction",
        ),
        "dfs.reads": (trace.count("dfs", "read_block"), "count"),
        "dfs.writes": (trace.count("dfs", "write_file"), "count"),
        "dfs.replicas": (trace.count("dfs", "register_replica"), "count"),
        "net.calls": (net_calls, "count"),
        "net.us_per_call": (
            trace.entry_self("net", "transfer", "disk_io") / net_calls * 1e6,
            "us",
        ),
        "cluster.outages": (trace.outages, "count"),
        "service.offers": (offers, "count"),
        "service.queue_wait_mean_s": (
            statistics.fmean(admitted) if offers else 0.0,
            "s",
        ),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (selfs[layer], "s")
    m["other.self_s"] = (traced.run_s - sum(selfs.values()), "s")
    m["obs.recorder_overhead_pct"] = (
        (recorded.run_ref_s / base_s - 1) * 100,
        "%",
    )
    m["trace.overhead_pct"] = ((traced.run_ref_s / base_s - 1) * 100, "%")
    m["trace.run_host_s"] = (traced.run_s, "s")
    return m
