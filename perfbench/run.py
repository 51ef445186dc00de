#!/usr/bin/env python3
"""Benchmark of the MOON simulator: one workload per invocation.

    python3 perfbench/run.py --workload serve_stream --seed 42 \\
        --seconds 20 --trace 0

Run from the root of a checkout; the simulator is imported from its
``src/`` directory.  With ``--trace 0`` the workload is run untraced as
many times as fit in ``--seconds`` (at least once) and the end-to-end
metrics are reported as medians over the runs.  With ``--trace 1`` it
is run once untraced, once with the per-layer timing shims and once
under the flight recorder, and the per-layer metrics are reported.
A sort workload's run covers several realizations (availability
traces) of its cells; see ``moonbench/workloads.py``.

Every run checks the workload's invariants, and every run of one seed
in one invocation must reach the same outcome digest; a failed check
exits with code 1.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def load_contract() -> dict:
    with open(os.path.join(HERE, "contract.json")) as f:
        return json.load(f)


def timed_metrics(workload, seed: int, seconds: float):
    from moonbench.checks import CheckFailed
    from moonbench.measure import (
        import_samples,
        peak_rss_mb,
        run_workload,
        sim_metrics,
    )

    # Import samples on both sides of the passes, so that their median
    # spans the host's speed over the whole run.
    imports = import_samples(3)
    t0 = perf_counter()
    runs = [run_workload(workload, seed)]
    passes = max(1, round(seconds / (perf_counter() - t0)))
    runs += [run_workload(workload, seed) for _ in range(passes - 1)]
    imports += import_samples(2)
    import_s = statistics.median(t for t, _ in imports)
    import_ref_s = statistics.median(r for _, r in imports)
    # Every pass must reach the same outcome (``--trace 1`` always
    # compares three).
    for other in runs[1:]:
        if other.digests != runs[0].digests:
            raise CheckFailed(
                f"{workload.name}: two runs of seed {seed} reached different "
                "outcome digests"
            )
    # Host times in reference seconds (see moonbench/calibrate.py),
    # then as this host measured them.
    metrics = {
        "setup_s": (
            import_ref_s + statistics.median(r.setup_ref_s for r in runs),
            "s",
        ),
        "run_s": (statistics.median(r.run_ref_s for r in runs), "s"),
        "cpu_s": (statistics.median(r.cpu_ref_s for r in runs), "s"),
        "setup_host_s": (
            import_s + statistics.median(r.setup_s for r in runs),
            "s",
        ),
        "run_host_s": (statistics.median(r.run_s for r in runs), "s"),
        "cpu_host_s": (statistics.median(r.cpu_s for r in runs), "s"),
        "import_host_s": (import_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
        "passes": (len(runs), "count"),
        "simulation.events": (runs[0].events, "count"),
    }
    metrics.update(sim_metrics(runs[0]))
    attempted = sum(len(r.cells) for r in runs)
    return metrics, attempted, runs[0].digests[0]


def traced_metrics(workload, seed: int):
    from moonbench.checks import CheckFailed
    from moonbench.layers import LayerTrace
    from moonbench.measure import layer_metrics, run_workload

    plain = run_workload(workload, seed)
    trace = LayerTrace()
    trace.install()
    try:
        traced = run_workload(workload, seed, trace=trace)
    finally:
        trace.uninstall()
    recorded = run_workload(workload, seed, recorder=True)
    for label, other in (("traced", traced), ("flight-recorded", recorded)):
        if other.digests != plain.digests:
            raise CheckFailed(
                f"{workload.name}: the {label} run's outcome digest differs "
                "from the untraced run's"
            )
    metrics = layer_metrics(trace, traced, plain, recorded)
    if metrics["other.self_s"][0] < 0:
        raise CheckFailed(
            f"{workload.name}: per-layer self time exceeds the traced run"
        )
    metrics["trace.crc32"] = (trace.crc, "crc32")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload.name}-seed{seed}.json")
    with open(path, "w") as f:
        json.dump(
            {
                "workload": workload.name,
                "seed": seed,
                "digests": traced.digests,
                "metrics": {k: v for k, (v, _u) in sorted(metrics.items())},
                "spans": trace.to_dict(),
            },
            f,
            indent=1,
        )
    return metrics, 3 * len(traced.cells), traced.digests[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    from moonbench.checks import CheckFailed
    from moonbench.workloads import WORKLOADS

    contract = load_contract()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            metrics, attempted, digest = traced_metrics(workload, args.seed)
            wanted = [m["name"] for m in contract["per_layer"]]
        else:
            metrics, attempted, digest = timed_metrics(
                workload, args.seed, args.seconds
            )
            wanted = [m["name"] for m in contract["end_to_end"]]
    except CheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload {workload.name} seed {args.seed} digest {digest}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:<32} {value:>16.6f} {unit}")
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]}
            for name in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
