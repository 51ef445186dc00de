"""CLI command handlers.

Each handler takes the parsed :mod:`argparse` namespace, prints its
report to stdout, and returns an exit code.  Experiments delegate to
:mod:`repro.experiments`; utility commands assemble systems directly.

Reports go to stdout; diagnostics (usage errors, progress notes, file
confirmations) go through :mod:`logging` to stderr — errors always,
progress only under ``repro --verbose``.
"""

from __future__ import annotations

import json
import logging

import numpy as np

from ..analysis import estimate_makespan, strategy_table
from ..config import (
    DETECTOR_MODES,
    ClusterConfig,
    SchedulerConfig,
    SystemConfig,
    TraceConfig,
)
from ..core import hadoop_system, moon_system
from ..experiments import ablations, current_scale, fig1, fig4, fig6, fig7
from ..plotting import bar_chart, histogram, table
from ..traces import (
    CorrelatedConfig,
    compute_stats,
    generate_correlated_traces,
    generate_trace,
    load_traces_csv,
    load_traces_json,
    save_traces_csv,
    save_traces_json,
)
from ..workloads import (
    grep_spec,
    sleep_like_sort,
    sleep_like_wordcount,
    sort_spec,
    wordcount_spec,
)

log = logging.getLogger("repro")

_APPS = {"sort": "sort", "wordcount": "word count"}


# ======================================================================
# Observability / JSON-report plumbing
# ======================================================================
def _make_obs(args, trace: bool = False):
    """An :class:`~repro.obs.Observability` when any flight-recorder
    flag was passed (or ``trace`` arms the tracer regardless); None
    keeps obs entirely off (the default, which is byte-identical to a
    build without the obs layer)."""
    trace = trace or args.trace_out is not None
    if not trace and args.metrics_out is None:
        return None
    from ..obs import Observability, ObsConfig

    return Observability(
        ObsConfig(
            trace=trace,
            trace_out=args.trace_out,
            metrics_out=args.metrics_out,
            max_trace_events=args.max_trace_events,
        )
    )


def _export_obs(obs) -> None:
    """Write any requested trace/metrics files; log each path."""
    if obs is None:
        return
    for path in obs.export():
        log.info("wrote %s", path)


def _write_reports_json(path, reports) -> None:
    """Write serve/replay reports as versioned JSON (``--json``)."""
    from ..service import REPORT_SCHEMA_VERSION

    payload = {"schema_version": REPORT_SCHEMA_VERSION, "reports": reports}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    log.info("wrote %d report(s) to %s", len(reports), path)


def _apps(choice: str):
    if choice == "both":
        return ["sort", "word count"]
    return [_APPS[choice]]


# ======================================================================
# Figures / tables
# ======================================================================
def cmd_fig1(args) -> int:
    """Figure 1: weekly volunteer-grid unavailability profile."""
    profiles = fig1.run()
    print(fig1.report(profiles))
    return 0


def cmd_fig4(args) -> int:
    """Figures 4+5: scheduling-policy comparison (and duplicates)."""
    for app in _apps(args.app):
        data = fig4.run(app)
        print(fig4.report(app, data))
        print()
    return 0


def cmd_fig6(args) -> int:
    """Figure 6: intermediate-data replication policies."""
    for app in _apps(args.app):
        data = fig6.run(app)
        print(fig6.report(app, data))
        print()
    return 0


def cmd_fig7(args) -> int:
    """Figure 7: overall MOON vs augmented Hadoop."""
    for app in _apps(args.app):
        data = fig7.run(app)
        print(fig7.report(app, data))
        print()
    return 0


def cmd_table1(args) -> int:
    """Table I: the two applications' configurations."""
    s, w = sort_spec(), wordcount_spec()
    print("TABLE I - application configurations")
    print(f"{'application':<14}{'input':>8}{'# maps':>8}  {'# reduces'}")
    print(f"{'sort':<14}{s.input_mb / 1024:>6.0f}GB{s.n_maps:>8}  "
          f"0.9 x AvailSlots")
    print(f"{'word count':<14}{w.input_mb / 1024:>6.0f}GB{w.n_maps:>8}  "
          f"{w.n_reduces}")
    return 0


def cmd_table2(args) -> int:
    """Table II: execution profiles at 0.5 unavailability."""
    for app in _apps(args.app):
        profiles = fig6.table2(app)
        print(fig6.report_table2(app, profiles))
        print()
    return 0


def cmd_ablations(args) -> int:
    """Network / two-phase / LATE ablation sweeps."""
    which = args.which
    if which in ("network", "all"):
        print(ablations.report_network(ablations.run_network_ablation()))
        print()
    if which in ("twophase", "all"):
        print(ablations.report_twophase(ablations.run_twophase_sweep()))
        print()
    if which in ("late", "all"):
        print(ablations.report_late(ablations.run_late_ablation()))
        print()
    return 0


# ======================================================================
# run
# ======================================================================
_WORKLOADS = {
    "sort": sort_spec,
    "wordcount": wordcount_spec,
    "sleep-sort": sleep_like_sort,
    "sleep-wordcount": sleep_like_wordcount,
    "grep": grep_spec,
}


def cmd_run(args) -> int:
    """Run one job on a configured simulated cluster."""
    spec = _WORKLOADS[args.workload]()
    if args.maps is not None:
        spec = spec.with_(n_maps=args.maps)
        spec.validate()

    expiry = (
        args.expiry_minutes * 60.0
        if args.expiry_minutes is not None
        else (1800.0 if args.scheduler == "moon" else 600.0)
    )
    sched = SchedulerConfig(
        kind=args.scheduler,
        tracker_expiry_interval=expiry,
        hybrid_aware=(args.scheduler == "moon" and not args.no_hybrid),
    )
    cfg = SystemConfig(
        cluster=ClusterConfig(
            n_volatile=args.volatile, n_dedicated=args.dedicated
        ),
        trace=TraceConfig(unavailability_rate=args.rate),
        scheduler=sched,
        seed=args.seed,
    )
    obs = _make_obs(args)
    system = (
        moon_system(cfg, obs=obs)
        if args.scheduler == "moon"
        else hadoop_system(cfg, obs=obs)
    )
    result = system.run_job(spec)
    print(result.summary())
    print(result.profile.row())
    _export_obs(obs)
    return 0 if result.succeeded else 1


# ======================================================================
# serve / replay / sweep: flag -> SweepSpec translation
# ======================================================================
#: Serve-flag defaults by mode: the autoscale demonstration needs a
#: regime where tier *capacity* (not the admission bound) limits the
#: SLO — a smaller volatile pool, bigger bursts, a wider in-flight
#: window and the deadline-aware queue.  Flags a user passes always
#: win; these only fill the blanks.
_SERVE_DEFAULTS = {
    #        flag            normal   autoscale
    "policy": ("fifo", "edf"),
    "jobs_per_hour": (12.0, 24.0),
    "burst_size": (6.0, 12.0),
    "catalog": ("mixed", "sleep"),
    "volatile": (30, 12),
    "max_in_flight": (4, 8),
    "queue_depth": (64, 128),
}


def _resolve_serve_defaults(args) -> None:
    """Fill unset (None) serve flags for the active mode, in place."""
    scaled = args.autoscale is not None
    for flag, (normal, autoscale) in _SERVE_DEFAULTS.items():
        if getattr(args, flag) is None:
            setattr(args, flag, autoscale if scaled else normal)


#: SweepSpec fields named differently from their flag.
_RENAMED = {"volatile": "n_volatile", "dedicated": "n_dedicated",
            "rate": "unavailability_rate", "queue_depth": "max_queue_depth"}


def _grid_spec(args, **fields):
    """The validated SweepSpec of a serve/replay/sweep/explain
    invocation: the value of every flag naming a spec field, each
    `--X all` flag as every value of that axis, and ``fields`` (the
    replay stream, sweep's lists) on top."""
    from dataclasses import fields as spec_fields

    from ..service import (
        AUTOSCALE_POLICIES,
        PREEMPT_MODES,
        QUEUE_POLICIES,
        SweepSpec,
    )

    flags = vars(args)
    names = {f.name for f in spec_fields(SweepSpec)}
    spec = {
        _RENAMED.get(flag, flag): value
        for flag, value in flags.items()
        if _RENAMED.get(flag, flag) in names
    }
    for flag, axis, choices in (
        ("autoscale", "autoscales", AUTOSCALE_POLICIES),
        ("policy", "policies", QUEUE_POLICIES),
        ("preempt", "preempts", PREEMPT_MODES),
        ("detector", "detectors", DETECTOR_MODES),
        ("seed", "seeds", ()),
    ):
        if flag in flags:
            value = flags[flag]
            spec[axis] = tuple(choices) if value == "all" else (value,)
    spec.update(fields)
    spec = SweepSpec(**spec)
    spec.validate()
    return spec


def _replay_spec(args):
    """Load the --trace file (synthesized when --scale/--stretch ask),
    calibrate it once — a bad trace fails before any cell runs, and
    the frozen arrival list is shared by every cell — and build the
    grid spec serving it.  Returns None after logging a bad input."""
    from ..errors import ReproError
    from ..workload_traces import (
        CalibrationConfig,
        SynthesisConfig,
        load_workload_trace,
        synthesize,
        trace_arrivals,
    )

    flags = vars(args)
    try:
        trace = load_workload_trace(args.trace)
        synthesis = {
            f: flags[flag]
            for flag, f in (("scale", "load_factor"),
                            ("stretch", "horizon_factor"))
            if flags.get(flag) is not None
        }
        if synthesis:
            trace = synthesize(
                trace,
                np.random.default_rng(args.seed),
                SynthesisConfig(**synthesis),
            )
        calibration = CalibrationConfig(
            **{
                f: flags[f]
                for f in ("max_maps", "max_reduces", "time_scale")
                if f in flags
            }
        )
        spec = _grid_spec(
            args,
            trace=trace,
            arrivals=tuple(trace_arrivals(trace, calibration)),
            pattern=trace.pattern,
        )
    except (ReproError, OSError) as exc:
        log.error("%s: %s", args.command, exc)
        return None
    return spec


def _serve_grid(args, spec) -> int:
    """Serve every cell of ``spec``: each cell's report and audit logs,
    then the one comparison table, then the --json, flight-recorder
    and --capture artifacts (the recorder and capture ride the first
    cell)."""
    from ..service import comparison_table, render_cell, serve_grid

    capture = vars(args).get("capture")
    obs = _make_obs(args)
    reports = []
    captured = None
    for _, service, report in serve_grid(
        spec, obs=obs, capture=capture is not None
    ):
        print(render_cell(report))
        if not reports:
            captured = service.captured_trace
        reports.append(report)
    summary = comparison_table(spec, reports)
    if summary is not None:
        print(summary)
    if args.json_out is not None:
        _write_reports_json(args.json_out, [r.to_dict() for r in reports])
    _export_obs(obs)
    if captured is not None:
        from ..workload_traces import save_workload_json

        try:
            save_workload_json(capture, captured)
        except OSError as exc:
            log.error("replay: cannot write capture: %s", exc)
            return 2
        log.info("captured %d arrivals -> %s", len(captured), capture)
    return 0


def cmd_serve(args) -> int:
    """Serve a continuous job stream and report SLO metrics."""
    from ..errors import ConfigError

    _resolve_serve_defaults(args)
    try:
        spec = _grid_spec(args)
    except ConfigError as exc:
        log.error("serve: %s", exc)
        return 2
    if args.checkpoint is not None or args.checkpoint_at is not None:
        if args.checkpoint is None or args.checkpoint_at is None:
            log.error(
                "--checkpoint PATH and --checkpoint-at T go together"
            )
            return 2
        if spec.varying():
            log.error(
                "--checkpoint snapshots one cell; pass a single "
                "--policy/--autoscale/--preempt/--detector, not 'all'"
            )
            return 2
        return _serve_checkpointed(args, spec)
    return _serve_grid(args, spec)


def _serve_checkpointed(args, spec) -> int:
    """One serve cell with a mid-run snapshot: advance to
    --checkpoint-at, persist the world, then keep serving to the usual
    report.  `repro resume` picks the snapshot up in a fresh process
    and produces the identical report."""
    from ..core import save_snapshot
    from ..service import MoonService, build_cell

    obs = _make_obs(args)
    system, arrivals, service_cfg = build_cell(
        spec, next(spec.cells()), obs=obs
    )
    service = MoonService(system, service_cfg, arrivals, spec.pattern)
    service.advance(args.checkpoint_at)
    save_snapshot(service, args.checkpoint)
    print(
        f"checkpoint written at t={service.sim.now:.1f}s -> "
        f"{args.checkpoint} (resume with `repro resume "
        f"{args.checkpoint}`)"
    )
    report = service.run()
    system.jobtracker.stop()
    system.namenode.stop()
    print(report.render())
    if args.json_out is not None:
        _write_reports_json(args.json_out, [report.to_dict()])
    _export_obs(obs)
    return 0


def cmd_replay(args) -> int:
    """Replay a workload-trace file through the service layer."""
    spec = _replay_spec(args)
    if spec is None:
        return 2
    print(spec.trace.summary().render())
    print()
    return _serve_grid(args, spec)


def cmd_sweep(args) -> int:
    """Fan a policy x scale x seed grid across processes and merge."""
    from ..errors import ConfigError
    from ..service import QUEUE_POLICIES, run_sweep, sweep_summary_rows

    def csv(text, cast):
        return tuple(cast(v.strip()) for v in text.split(",") if v.strip())

    try:
        spec = _grid_spec(
            args,
            policies=(
                tuple(QUEUE_POLICIES)
                if args.policies == "all"
                else csv(args.policies, str)
            ),
            scales=csv(args.scales, float),
            seeds=csv(args.seeds, int),
        )
    except (ConfigError, ValueError) as exc:
        log.error("bad sweep grid: %s", exc)
        return 2
    n_cells = len(list(spec.cells()))
    log.info("sweeping %d cell(s) on %d process(es)", n_cells, args.procs)
    try:
        # Validates --procs before any cell runs or pool starts.
        result = run_sweep(spec, procs=args.procs)
    except ConfigError as exc:
        log.error("bad sweep grid: %s", exc)
        return 2
    print(
        table(
            ["policy", "scale", "seed", "done", "p50 s", "p95 s",
             "miss", "good/h"],
            sweep_summary_rows(result),
            title=(
                f"sweep - {n_cells} cells, "
                f"{spec.jobs_per_hour:g} jobs/h base, "
                f"{spec.hours:g}h horizon"
            ),
        )
    )
    if args.json_out is not None:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(result.to_json())
        log.info("wrote %s", args.json_out)
    return 0


def cmd_resume(args) -> int:
    """Continue a serve checkpoint: to drain (report), or to --until
    (re-checkpointed)."""
    from ..core import load_snapshot, save_snapshot
    from ..errors import SnapshotError

    if args.until is not None and args.checkpoint is None:
        log.error(
            "--until advances the world without finishing it; the "
            "progress must be persisted — add --checkpoint PATH"
        )
        return 2
    try:
        service = load_snapshot(args.snapshot)
    except (SnapshotError, OSError) as exc:
        log.error("cannot load %s: %s", args.snapshot, exc)
        return 2
    if args.until is not None:
        drained = service.advance(args.until)
        save_snapshot(service, args.checkpoint)
        print(
            f"advanced to t={service.sim.now:.1f}s "
            f"({'drained' if drained else 'still serving'}); "
            f"checkpoint written -> {args.checkpoint}"
        )
        return 0
    report = service.run()
    service.system.jobtracker.stop()
    service.system.namenode.stop()
    if args.checkpoint is not None:
        save_snapshot(service, args.checkpoint)
        print(f"final checkpoint written -> {args.checkpoint}")
    print(report.render())
    if args.json_out is not None:
        _write_reports_json(args.json_out, [report.to_dict()])
    return 0


# ======================================================================
# explain / diff
# ======================================================================
def _explain_replay(args):
    """Replay one cell with an in-memory tracer; return (explanation,
    obs) or (None, None) after logging the usage error."""
    from ..obs.explain import explain_tracer
    from ..service import serve_cell

    spec = _replay_spec(args)
    if spec is None:
        return None, None
    if spec.varying():
        log.error(
            "explain: attributes one cell; pass a single "
            "--preempt/--detector mode, not 'all'"
        )
        return None, None
    # The recorder is the whole point here: armed unconditionally,
    # with any --trace-out/--metrics-out files riding along.
    obs = _make_obs(args, trace=True)
    serve_cell(spec, next(spec.cells()), obs=obs)
    return explain_tracer(obs.tracer), obs


def cmd_explain(args) -> int:
    """Causal blame attribution: why was this job slow?"""
    from ..obs.explain import explain_trace_file

    obs = None
    if args.from_trace is not None:
        try:
            explanation = explain_trace_file(args.from_trace)
        except (OSError, ValueError) as exc:
            log.error("explain: %s", exc)
            return 2
    else:
        if args.trace is None:
            log.error(
                "explain: pass --trace <workload file> to replay, or "
                "--from <trace-out JSON> to explain a recorded run"
            )
            return 2
        explanation, obs = _explain_replay(args)
        if explanation is None:
            return 2
    if not explanation.jobs:
        log.error("explain: the trace contains no finished jobs")
        return 2

    print(explanation.render_aggregates())
    print()
    if args.job is not None:
        blame = explanation.job(args.job)
        if blame is None:
            log.error("explain: no finished job with seq %d", args.job)
            return 2
        selected, what = [blame], f"job seq{args.job}"
    elif args.tenant is not None:
        selected = explanation.tenant_jobs(args.tenant)
        if not selected:
            log.error(
                "explain: tenant %r finished no jobs", args.tenant
            )
            return 2
        what = f"tenant {args.tenant} ({len(selected)} job(s))"
    else:
        selected = explanation.worst(args.worst)
        what = f"{len(selected)} slowest job(s)"
    print(f"critical paths - {what}:")
    print()
    print("\n\n".join(explanation.render_job(b) for b in selected))
    if args.json_out is not None:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(explanation.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        log.info("wrote explanation to %s", args.json_out)
    _export_obs(obs)
    return 0


def cmd_diff(args) -> int:
    """First causal divergence between two run artifacts."""
    from ..obs.explain import diff_files

    try:
        kind, divergence, compared = diff_files(args.a, args.b)
    except (OSError, ValueError) as exc:
        log.error("diff: %s", exc)
        return 2
    unit = "trace event(s)" if kind == "trace" else "metric key(s)"
    if divergence is None:
        print(f"no divergence ({compared} {unit} compared)")
        return 0
    print(divergence.render())
    return 1


# ======================================================================
# trace
# ======================================================================
def cmd_trace(args) -> int:
    """Generate or summarise availability trace files."""
    if args.trace_command == "generate":
        return _trace_generate(args)
    return _trace_stats(args)


def _trace_generate(args) -> int:
    rng = np.random.default_rng(args.seed)
    base = TraceConfig(
        unavailability_rate=args.rate, distribution=args.distribution
    )
    if args.correlated:
        traces = generate_correlated_traces(
            CorrelatedConfig(base=base), args.nodes, rng
        )
    else:
        traces = [generate_trace(base, rng) for _ in range(args.nodes)]
    if str(args.output).endswith(".json"):
        save_traces_json(args.output, traces)
    else:
        save_traces_csv(args.output, traces)
    stats = compute_stats(traces)
    log.info("wrote %d traces to %s", len(traces), args.output)
    print(stats)
    return 0


def _trace_stats(args) -> int:
    if str(args.input).endswith(".json"):
        traces = load_traces_json(args.input)
    else:
        traces = load_traces_csv(args.input)
    stats = compute_stats(traces)
    print(stats)
    lengths = np.concatenate(
        [t.outage_lengths() for t in traces if len(t)] or [np.empty(0)]
    )
    if args.histogram and lengths.size:
        print()
        print(histogram(lengths.tolist(), bins=12,
                        title="outage lengths (s)"))
    if getattr(args, "fit", False) and lengths.size >= 3:
        from ..traces import fit_outages, fit_report

        print()
        print(fit_report(fit_outages(lengths)))
    return 0


# ======================================================================
# availability / estimate
# ======================================================================
def cmd_availability(args) -> int:
    """Replication-strategy arithmetic (paper Sections I/III)."""
    print(strategy_table(args.p, args.goal, p_dedicated=args.p_dedicated))
    return 0


def cmd_validate(args) -> int:
    """Cross-check the simulator against the analytical models."""
    from ..experiments import validate

    points = validate.run_validation()
    print(validate.report(points))
    return 0 if validate.within_band(points) else 1


def cmd_estimate(args) -> int:
    """Analytical makespan estimate for a workload."""
    spec = sort_spec() if args.workload == "sort" else wordcount_spec()
    kill = (
        args.expiry_minutes * 60.0
        if args.expiry_minutes is not None
        else float("inf")
    )
    est = estimate_makespan(spec, args.nodes, args.rate, kill_after=kill)
    print(
        bar_chart(
            [args.workload],
            {
                "map": [est.map_time],
                "shuffle": [est.shuffle_time],
                "reduce": [est.reduce_time],
            },
            title=(
                f"analytical makespan, {args.nodes} nodes at "
                f"p={args.rate}: {est.total:,.0f} s total"
            ),
            unit="s",
        )
    )
    return 0


# ======================================================================
# perf
# ======================================================================
def cmd_perf(args) -> int:
    """Time macro-scenarios; write BENCH_PR2.json; gate regressions."""
    from ..perf import run_perf

    return run_perf(
        names=args.scenario or None,
        repeat=args.repeat,
        check=args.check,
        update_baseline=args.update_baseline,
        output=args.output,
        baseline_path=args.baseline,
    )


# ======================================================================
# profile
# ======================================================================
def cmd_profile(args) -> int:
    """Profile the dispatch loop over perf scenarios; print the hot
    table (per-handler count, cumulative wall-clock, share)."""
    from ..obs import Observability, ObsConfig, default_observability
    from ..obs.profile import PROFILE_SCHEMA_VERSION
    from ..perf import SCENARIOS

    names = args.scenario or ["fig6"]
    obs = Observability(
        ObsConfig(
            trace=args.trace_out is not None,
            profile=True,
            trace_out=args.trace_out,
            metrics_out=args.metrics_out,
            max_trace_events=args.max_trace_events,
        )
    )
    # Scenarios construct their systems internally; the process-wide
    # default hands every Simulation they build this recorder.
    with default_observability(obs):
        for name in names:
            log.info("profiling scenario %s", name)
            work = SCENARIOS[name].run()
            print(
                f"[profile] {name}: {SCENARIOS[name].description} "
                f"({int(work.get('events', 0))} events)"
            )
    print()
    print(obs.profiler.table(top=args.top))
    if args.json_out is not None:
        payload = {
            "schema_version": PROFILE_SCHEMA_VERSION,
            "scenarios": names,
            "profile": obs.profiler.to_dict(),
        }
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        log.info("wrote profile to %s", args.json_out)
    _export_obs(obs)
    return 0
