"""Named macro-scenarios for the perf-regression harness.

Each scenario is an end-to-end slice of a paper pipeline (or of the
service layer) sized to run in seconds, built fresh on every call so
wall-clock timings never hit the experiment memo cache.  Scenarios pin
the reduced scale explicitly — timings must stay comparable across
machines and across ``REPRO_FULL_SCALE`` settings.

The work counters a scenario returns (simulated events, completed
jobs) double as a behaviour checksum: the same code must report the
same counts on every run.  The runner records a per-scenario
``events_match_baseline`` flag, and ``--check`` fails on a count that
differs from the committed baseline: the simulation's behaviour
changed, not just its speed.  A behaviour-changing PR re-pins the
baseline with ``--update-baseline``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from ..config import ClusterConfig, SystemConfig, TraceConfig
from ..core import hadoop_system, moon_system
from ..dfs import ReplicationFactor
from ..experiments.harness import hadoop_policy, moon_policy, rf
from ..experiments.scale import Scale, sort_at, system_config
from ..service import (
    MoonService,
    ServiceConfig,
    SweepSpec,
    WorkloadClass,
    build_cell,
    poisson_arrivals_vectorised,
)
from ..workload_traces import (
    SynthesisConfig,
    sample_hadoop_trace,
    synthesize,
    trace_arrivals,
)
from ..workloads import sleep_spec

#: The scale every scenario runs at (the benchmarks' reduced scale,
#: pinned here so env overrides cannot skew baseline comparisons).
PERF_SCALE = Scale(
    n_volatile=60,
    n_dedicated=6,
    sort_maps=384,
    wc_maps=320,
    data_factor=0.5,
    seeds=(42,),
    time_limit=4 * 3600.0,
)


# ----------------------------------------------------------------------
# Paper-pipeline sorts: one row of data per scenario, one runner
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SortJob:
    """One sort job on a fresh PERF_SCALE cluster, as data.

    The defaults are the MOON-Hybrid cell at unavailability 0.5:
    ``{1,3}`` input and output replicas, ``{1,1}`` intermediate data,
    the FIFO network.
    """

    input_rf: ReplicationFactor = rf(1, 3)
    output_rf: ReplicationFactor = rf(1, 3)
    intermediate_rf: ReplicationFactor = rf(1, 1)
    rate: float = 0.5
    #: Hadoop-VO (``hadoop_system`` under the Hadoop1Min scheduler)
    #: instead of MOON-Hybrid.
    hadoop: bool = False
    #: Map count override (None = the scale's sort size).
    n_maps: Optional[int] = None
    network_model: str = "fifo"


@dataclass(frozen=True)
class Sort:
    """One sort scenario: its jobs run one after another."""

    description: str
    jobs: Tuple[SortJob, ...]


def run_sort(sort: Sort) -> Dict[str, float]:
    """Run each job on its own fresh system; sum the work."""
    events = 0
    jobs_done = 0
    sim_seconds = 0.0
    for job in sort.jobs:
        spec = sort_at(PERF_SCALE).with_(
            input_rf=job.input_rf,
            output_rf=job.output_rf,
            intermediate_rf=job.intermediate_rf,
            **({} if job.n_maps is None else {"n_maps": job.n_maps}),
        )
        cfg = system_config(
            PERF_SCALE,
            job.rate,
            hadoop_policy(1) if job.hadoop else moon_policy(True),
            PERF_SCALE.seeds[0],
            network_model=job.network_model,
        )
        system = hadoop_system(cfg) if job.hadoop else moon_system(cfg)
        result = system.run_job(spec, time_limit=PERF_SCALE.time_limit)
        system.jobtracker.stop()
        system.namenode.stop()
        events += system.sim.executed_events
        sim_seconds += system.sim.now
        if result.succeeded:
            jobs_done += 1
    return {
        "events": float(events),
        "jobs_done": float(jobs_done),
        "sim_seconds": sim_seconds,
    }


SORTS: Dict[str, Sort] = {
    # The two intermediate-replication extremes (HA-V1, VO-V1) exercise
    # the shuffle pump, write pipelines and the replication queue back
    # to back.
    "fig6": Sort(
        "Fig. 6 slice: sort HA-V1 + VO-V1 at rate 0.5",
        (SortJob(), SortJob(intermediate_rf=rf(0, 1))),
    ),
    # The Hadoop-VO cell (six uniform replicas) floods the DFS layers;
    # the MOON-Hybrid D6 cell covers hybrid scheduling plus
    # hibernation handling.
    "fig7": Sort(
        "Fig. 7 slice: Hadoop-VO + MOON-Hybrid D6 at 0.5",
        (SortJob(rf(0, 6), rf(0, 6), rf(0, 3), hadoop=True), SortJob()),
    ),
    # Max-min fair-share network under a data-heavy sort: dominated by
    # water-filling recomputation on every flow start and finish.
    "fairshare": Sort(
        "192-map sort on the fair-share network",
        (SortJob(rate=0.3, n_maps=192, network_model="fairshare"),),
    ),
}


# ----------------------------------------------------------------------
# 2k-job service streams: one row of data per scenario, one runner
# ----------------------------------------------------------------------
#: The world every stream serves: a 30+3-node cluster at
#: unavailability 0.3, the EDF queue (16 in flight, depth 256), ~2000
#: sleep-catalog arrivals at 250 jobs/h over 8 h, a 4 h drain.  A
#: stream row says only what differs from it.
STREAM_WORLD = SweepSpec(
    policies=("edf",),
    seeds=PERF_SCALE.seeds,
    n_volatile=30,
    n_dedicated=3,
    jobs_per_hour=250.0,
    hours=8.0,
    max_in_flight=16,
    max_queue_depth=256,
)

#: 8 bursts/h of ~30 jobs each.
_BURSTY = {"pattern": "bursty", "jobs_per_hour": 240.0, "burst_size": 30.0}


def _replay() -> dict:
    """~2000 jobs synthesized from the bundled Hadoop-style sample's
    fitted inter-arrival law (18x load over a 4x horizon) and
    calibrated onto the catalogue: fit + sample + calibrate."""
    trace = synthesize(
        sample_hadoop_trace(),
        np.random.default_rng(PERF_SCALE.seeds[0]),
        SynthesisConfig(load_factor=18.0, horizon_factor=4.0),
    )
    arrivals = tuple(trace_arrivals(trace))
    return {"trace": trace, "arrivals": arrivals, "pattern": trace.pattern}


@dataclass(frozen=True)
class Stream:
    """One 2k-job service-stream scenario as data."""

    description: str
    #: ``SweepSpec`` overrides on :data:`STREAM_WORLD`.
    world: Mapping[str, object] = field(default_factory=dict)
    #: ``fn() -> overrides`` built while the scenario runs (a replay).
    replay: Optional[Callable[[], dict]] = None
    #: Reported key -> obs metric counter it reads.
    counters: Mapping[str, str] = field(default_factory=dict)
    #: Reported key -> ``fn(service report)``.
    report: Mapping[str, Callable[..., float]] = field(default_factory=dict)


def run_stream(stream: Stream) -> Dict[str, float]:
    """Build the one cell, serve the stream, stop, report the work."""
    world = dict(stream.world)
    if stream.replay is not None:
        world.update(stream.replay())
    spec = replace(STREAM_WORLD, **world)
    system, arrivals, config = build_cell(spec, next(spec.cells()))
    report = MoonService(system, config, arrivals, spec.pattern).run()
    system.jobtracker.stop()
    system.namenode.stop()
    metrics = system.obs.metrics
    work = {
        "events": float(system.sim.executed_events),
        "jobs_done": float(report.overall.completed),
        "sim_seconds": system.sim.now,
        "arrivals": float(len(arrivals)),
    }
    for key, counter in stream.counters.items():
        work[key] = float(metrics.counter(counter).value)
    for key, read in stream.report.items():
        work[key] = float(read(report))
    return work


STREAMS: Dict[str, Stream] = {
    # Admission control, the EDF queue and the full task machinery.
    "service2k": Stream("2k-job Poisson service stream (EDF queue)"),
    # Reactive provisioning: control rounds on the sim clock, repeated
    # provision / graceful-drain / decommission cycles (tracker and
    # DataNode registries churn, ids get reused), node-hours accounting.
    "autoscale2k": Stream(
        "2k-job bursty stream with reactive tier autoscaling",
        world={
            **_BURSTY,
            "autoscales": ("reactive",),
            "min_dedicated": 1,
            "max_dedicated": 12,
        },
        report={
            "scale_actions": lambda r: len(r.scale_events),
            "node_hours": lambda r: r.node_hours,
        },
    ),
    # The full workload-trace pipeline, end to end.
    "replay2k": Stream(
        "2k-job synthesized trace replay (fit + calibrate + EDF)",
        replay=_replay,
    ),
    # Pause preemption in its heaviest mode: tight-SLO bursts demote
    # and pause in-flight batch jobs (slot release, tracker
    # re-registration, shuffle re-pump on resume).
    "preempt2k": Stream(
        "2k-job bursty stream under SLO-aware pause preemption",
        world={**_BURSTY, "preempts": ("pause",), "admission_prices": True},
        report={
            "preempt_actions": lambda r: len(r.preempt_events),
            "pauses": lambda r: r.preempt_counts["pause"],
        },
    ),
    # Node state observed, not oracle-fed: per-node silence processes,
    # phi-accrual threshold updates, grace-period requeues and
    # late-result reconciliation; the counters checksum the suspicion
    # layer.
    "detect2k": Stream(
        "2k-job Poisson stream under the adaptive honest detector",
        world={"detectors": ("adaptive",)},
        counters={
            "trips": "detector/trips",
            "false_positives": "detector/false_positives",
            "requeues": "detector/suspicion_requeues",
        },
    ),
    # Journal on, checkpoints on the sim clock, and a NameNode crash at
    # t=2h (unsynced tail lost, checkpoint + log replayed, block
    # reports reconverge) while the stream keeps arriving; the
    # counters checksum the durable-metadata layer.
    "recover2k": Stream(
        "2k-job Poisson stream, journal on, NameNode crash at 2h",
        world={
            "journal": "on",
            "checkpoint_interval": 600.0,
            "namenode_crash": 2 * 3600.0,
        },
        counters={
            "journal_records": "dfs/journal_records",
            "checkpoints": "dfs/checkpoints",
            "replicas_recovered": "dfs/replicas_recovered",
        },
    ),
}


def scale_stream(
    n_nodes: int = 10000,
    jobs_per_hour: float = 41667.0,
    hours: float = 24.0,
) -> Dict[str, float]:
    """Service-scale stress: an ``n_nodes``-node cluster serving a
    day-long Poisson stream (defaults: 10k nodes, ~1M jobs over 24h).

    This is the engine-scale-out checksum: the vectorised arrival
    sampler, the candidacy-indexed assignment walk
    and the busy-tracker registry all run at their design scale.  The
    configuration keeps per-event cost independent of cluster size on
    purpose — every choice below is a documented scaling lever, not an
    accident:

    * ``speculative_enabled=False``: pure pending-task placement, so
      jobs whose tasks are all running drop out of the walk in O(1)
      and the per-tick progress refresh is skipped entirely;
    * dedicated-only replication (``rf {1,0}``) on a 100-node
      dedicated tier: write placement scans the tier, never the 9,900
      volatile nodes (volatile placement is rng-driven over the full
      servable pool and cannot be subsampled decision-preservingly);
    * ``release_finished=True``: the JobTracker forgets reaped jobs,
      so memory tracks the in-flight window, not the full million;
    * explicit ``n_reduces`` skips the cluster-wide slot census per
      submit, and a 15 s heartbeat bounds idle-tick overhead.

    CI runs this subsampled (see ``.github/workflows/ci.yml``); the
    committed baseline pins the full size.
    """
    n_dedicated = min(100, max(1, n_nodes // 100))
    sched = replace(
        moon_policy(True),
        speculative_enabled=False,
        dedicated_primary=True,
    )
    system = moon_system(
        SystemConfig(
            cluster=ClusterConfig(
                n_volatile=n_nodes - n_dedicated,
                n_dedicated=n_dedicated,
                heartbeat_interval=15.0,
            ),
            trace=TraceConfig(unavailability_rate=0.3),
            scheduler=sched,
            seed=PERF_SCALE.seeds[0],
        )
    )
    spec = replace(
        sleep_spec(12.0, 4.0, n_maps=1, n_reduces=1),
        intermediate_rf=rf(1, 0),
        output_rf=rf(1, 0),
    )
    horizon = hours * 3600.0
    arrivals = poisson_arrivals_vectorised(
        system.sim.rng("service/arrival_gaps"),
        system.sim.rng("service/arrival_picks"),
        jobs_per_hour,
        horizon,
        [WorkloadClass(spec, slo_seconds=None)],
    )
    service = MoonService(
        system,
        ServiceConfig(
            policy="fifo",
            max_in_flight=2048,
            max_queue_depth=None,
            horizon=horizon,
            drain_limit=2 * 3600.0,
            release_finished=True,
        ),
        arrivals,
        pattern="poisson",
    )
    report = service.run()
    system.jobtracker.stop()
    system.namenode.stop()
    return {
        "events": float(system.sim.executed_events),
        "jobs_done": float(report.overall.completed),
        "sim_seconds": system.sim.now,
        "arrivals": float(len(arrivals)),
    }


def _scale10k() -> Dict[str, float]:
    return scale_stream()


@dataclass(frozen=True)
class Scenario:
    """One named macro-scenario of the perf harness."""

    name: str
    description: str
    run: Callable[[], Dict[str, float]]


SCENARIOS: Dict[str, Scenario] = {
    s.name: s
    for s in (
        *(
            Scenario(name, sort.description, partial(run_sort, sort))
            for name, sort in SORTS.items()
        ),
        *(
            Scenario(name, stream.description, partial(run_stream, stream))
            for name, stream in STREAMS.items()
        ),
        Scenario("scale10k",
                 "10k-node cluster, ~1M-job day-long Poisson stream",
                 _scale10k),
    )
}
