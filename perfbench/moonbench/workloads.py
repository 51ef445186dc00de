"""The benchmark's workloads, built only from the public ``repro`` API.

Each workload is a list of cells run on one or more realizations.  A
cell builds one system from a realization's seed (``SystemConfig.seed``
seeds the availability traces and, for the service stream, the arrival
stream) and returns it with a ``go`` callable that runs the simulation
and reports every job's outcome.  Realization 0 uses the benchmark's
``--seed`` itself; the others use seeds derived from it, so one run
averages the sort workloads over several independent availability
traces.

Realization 0 of ``serve_stream`` at seed 42 is ``repro perf``'s
``service2k`` exactly.  The sort workloads run the cells of ``fig7``
and ``fairshare`` on smaller jobs; :func:`paper_cells` and
:func:`fairshare_cells` at the perf scenarios' job sizes rebuild those
scenarios exactly.  A single 384-map sort spreads its host time by a
third from one seed to the next; many small jobs over independent
traces keep a run's total steady.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from numpy.random import SeedSequence

from repro import (
    ClusterConfig,
    SystemConfig,
    TraceConfig,
    hadoop_scheduler_config,
    moon_scheduler_config,
)
from repro.core import MoonSystem, hadoop_system, moon_system
from repro.dfs import ReplicationFactor
from repro.service import (
    ServedState,
    ServiceConfig,
    poisson_arrivals,
    sleep_catalog,
)
from repro.workloads import sort_spec

HOUR = 3600.0

#: Outcome states of one submitted job, as the benchmark counts them.
STATES = ("succeeded", "failed", "rejected", "dropped", "unserved")


class JobRow(NamedTuple):
    """One submitted job, read from outside the simulator."""

    arrival: float
    admitted: Optional[float]
    finished: Optional[float]
    state: str
    #: True when the job had a deadline and missed it (the service's
    #: rule: rejected and unfinished jobs miss); None without a deadline.
    missed: Optional[bool]


@dataclass
class CellResult:
    """What one cell's run left behind."""

    events: int
    sim_end: float
    #: Jobs the benchmark handed to the program.
    submitted: int
    #: One row per job, read from the JobTracker's jobs (sort cells) or
    #: the service's job records (``serve_stream``).
    rows: List[JobRow]
    #: Outcome counts as the program returned them (``arrived`` plus
    #: one entry per state): the ``JobResult`` states of ``run_job`` /
    #: ``run_jobs``, or the service report's totals.
    reported: Dict[str, int]
    #: The JobTracker's job objects, for the attempt invariant.
    jobs: list
    #: The cell's name in its workload (set by the harness).
    name: str = ""


#: ``build(seed) -> (system, go)``; ``go()`` runs the cell.
Build = Callable[[int], Tuple[MoonSystem, Callable[[], CellResult]]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cells: Tuple[Tuple[str, Build], ...]
    realizations: int = 1


def realization_seeds(seed: int, count: int) -> List[int]:
    """``seed`` itself, then ``count - 1`` seeds derived from it."""
    derived = SeedSequence(seed).spawn(count - 1)
    return [seed] + [int(s.generate_state(1)[0]) for s in derived]


def _rf(dedicated: int, volatile: int) -> ReplicationFactor:
    return ReplicationFactor(dedicated, volatile)


_SERVED = {
    ServedState.SUCCEEDED: "succeeded",
    ServedState.FAILED: "failed",
    ServedState.REJECTED: "rejected",
    ServedState.DROPPED: "dropped",
    ServedState.QUEUED: "unserved",
    ServedState.UNFINISHED: "unserved",
}


def _serve_stream(seed: int):
    """``service2k``: 250 jobs/h Poisson for 8 h through an EDF queue."""
    system = moon_system(
        SystemConfig(
            cluster=ClusterConfig(n_volatile=30, n_dedicated=3),
            trace=TraceConfig(unavailability_rate=0.3),
            scheduler=moon_scheduler_config(hybrid_aware=True),
            seed=seed,
        )
    )
    arrivals = poisson_arrivals(
        system.sim.rng("service/arrivals"),
        rate_per_hour=250.0,
        horizon=8 * HOUR,
        catalog=sleep_catalog(),
    )
    config = ServiceConfig(
        policy="edf",
        max_in_flight=16,
        max_queue_depth=256,
        horizon=8 * HOUR,
        drain_limit=4 * HOUR,
    )

    def go() -> CellResult:
        report = system.run_service(arrivals, config, pattern="poisson")
        rows = [
            JobRow(
                r.arrival.arrival_time,
                r.admitted_at,
                r.finished_at,
                _SERVED[r.state],
                None if r.deadline is None else r.missed_deadline,
            )
            for r in report.records
        ]
        o = report.overall
        reported = {
            "arrived": o.arrived,
            "succeeded": o.completed,
            "failed": o.failed,
            "rejected": o.rejected,
            "dropped": o.dropped,
            "unserved": o.unserved,
        }
        return _finish(system, len(arrivals), rows, reported)

    return system, go


def _job_cell(spec, scheduler, rate: float, hadoop: bool, network: str,
              jobs: int, concurrent: bool):
    """A cell of ``jobs`` sorts on 60 volatile + 6 dedicated nodes, run
    one after another through ``run_job`` or all at once through
    ``run_jobs``, each with a 4 h limit."""

    def build(seed: int):
        cfg = SystemConfig(
            cluster=ClusterConfig(n_volatile=60, n_dedicated=6),
            trace=TraceConfig(unavailability_rate=rate),
            scheduler=scheduler,
            seed=seed,
            network_model=network,
        )
        system = hadoop_system(cfg) if hadoop else moon_system(cfg)

        def go() -> CellResult:
            if concurrent:
                results = system.run_jobs([spec] * jobs, time_limit=4 * HOUR)
            else:
                results = [
                    system.run_job(spec, time_limit=system.sim.now + 4 * HOUR)
                    for _ in range(jobs)
                ]
            rows = [
                JobRow(job.submitted_at, job.submitted_at, job.finished_at,
                       _job_state(job.state.value), None)
                for job in system.jobtracker.jobs
            ]
            states = [_job_state(r.state) for r in results]
            reported = {s: states.count(s) for s in STATES}
            reported["arrived"] = len(results)
            return _finish(system, jobs, rows, reported)

        return system, go

    return build


def _job_state(state: str) -> str:
    """A ``JobState`` value as an outcome state; a job still running at
    its time limit is unserved."""
    return state if state in ("succeeded", "failed") else "unserved"


def _finish(system: MoonSystem, submitted: int, rows, reported) -> CellResult:
    system.jobtracker.stop()
    system.namenode.stop()
    return CellResult(
        events=system.sim.executed_events,
        sim_end=system.sim.now,
        submitted=submitted,
        rows=rows,
        reported=reported,
        jobs=list(system.jobtracker.jobs),
    )


def _sort(n_maps: int, input_rf, output_rf, intermediate_rf):
    """Table-I sort at the reduced 32 MB block size."""
    return sort_spec(n_maps=384, block_mb=32.0).with_(
        n_maps=n_maps,
        input_rf=input_rf,
        output_rf=output_rf,
        intermediate_rf=intermediate_rf,
    )


def paper_cells(n_maps: int, jobs: int):
    """Fig. 7 at unavailability 0.5: Hadoop-VO (six volatile replicas,
    1-min tracker expiry, every node presented as volatile) and
    MOON-Hybrid D6 ({1,3} input/output, {1,1} intermediate).  With one
    384-map job per cell at seed 42 these are ``repro perf``'s ``fig7``
    inputs exactly."""
    return (
        (
            "hadoop-vo",
            _job_cell(
                _sort(n_maps, _rf(0, 6), _rf(0, 6), _rf(0, 3)),
                hadoop_scheduler_config(tracker_expiry_interval=60.0),
                0.5, hadoop=True, network="fifo", jobs=jobs,
                concurrent=False,
            ),
        ),
        (
            "moon-hybrid-d6",
            _job_cell(
                _sort(n_maps, _rf(1, 3), _rf(1, 3), _rf(1, 1)),
                moon_scheduler_config(hybrid_aware=True),
                0.5, hadoop=False, network="fifo", jobs=jobs,
                concurrent=False,
            ),
        ),
    )


def fairshare_cells(n_maps: int, jobs: int):
    """MOON-Hybrid sort at unavailability 0.3 on the max-min fair-share
    network, ``jobs`` submitted together.  With one 192-map job at seed
    42 these are ``repro perf``'s ``fairshare`` inputs exactly."""
    return (
        (
            "moon-fairshare",
            _job_cell(
                _sort(n_maps, _rf(1, 3), _rf(1, 3), _rf(1, 1)),
                moon_scheduler_config(hybrid_aware=True),
                0.3, hadoop=False, network="fairshare", jobs=jobs,
                concurrent=True,
            ),
        ),
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "serve_stream",
            "open-loop 250 jobs/h EDF service stream past saturation; "
            "JobTracker heartbeats and select_task walks dominate",
            (("moon-edf", _serve_stream),),
            realizations=2,
        ),
        Workload(
            "paper_sort",
            "Fig. 7 sorts one after another at unavailability 0.5, Hadoop-VO "
            "and MOON-Hybrid D6; dfs, engine and FIFO net dominate",
            paper_cells(n_maps=48, jobs=2),
            realizations=12,
        ),
        Workload(
            "fairshare_sort",
            "concurrent sorts at unavailability 0.3 on the max-min "
            "fair-share network; water-filling in the net layer dominates",
            fairshare_cells(n_maps=24, jobs=4),
            realizations=8,
        ),
    )
}
