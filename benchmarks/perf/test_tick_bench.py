"""Micro-benchmark of one JobTracker heartbeat tick.

The service2k world (the 2k-job EDF stream of ``repro perf``, seed
fixed by the perf scale) is served to mid-stream and snapshotted at an
instant whose next tick places 30 tasks over 16 in-flight jobs.  Each
round restores the snapshot and times one ``JobTracker._tick``, so a
change to the scheduling layer shows in seconds what the 20 s
``serve_stream`` benchmark shows end to end.  The tick must place the
same tasks on the same trackers as the unpruned reference walk.
"""

from __future__ import annotations

import pytest

from repro.core.snapshot import _counter_classes, restore_bytes, snapshot_bytes
from repro.perf.scenarios import STREAM_WORLD
from repro.service import MoonService
from repro.service.sweep import build_cell

#: Mid-stream instant (sim seconds): the next tick launches 30 tasks.
SNAPSHOT_AT = 3700.5


@pytest.fixture(scope="module")
def mid_stream():
    # Restoring a snapshot re-seats the process-global id counters;
    # hand the suite back the ones it had.
    saved = {name: cls._ids for name, cls in _counter_classes().items()}
    system, arrivals, config = build_cell(
        STREAM_WORLD, next(STREAM_WORLD.cells())
    )
    service = MoonService(system, config, arrivals, STREAM_WORLD.pattern)
    service.advance(SNAPSHOT_AT)
    yield snapshot_bytes(service)
    for name, cls in _counter_classes().items():
        cls._ids = saved[name]


def tick_launches(snapshot, unpruned=False):
    """Restore, run one tick, return its ``(task, node, speculative)``
    launches; ``unpruned`` offers every job every free slot."""
    jt = restore_bytes(snapshot).system.jobtracker
    if unpruned:
        policy = jt.policy
        policy.__class__ = type(
            f"Unpruned{type(policy).__name__}",
            (type(policy),),
            {"exhausted": lambda self, job, task_type: False},
        )
    launched = []
    launch = jt.launch

    def record(task, tracker, speculative):
        launched.append((task.task_id, tracker.node_id, speculative))
        return launch(task, tracker, speculative)

    jt.launch = record
    jt._tick()
    return launched


def test_one_tick_matches_the_reference_walk(benchmark, mid_stream):
    def restore():
        return (restore_bytes(mid_stream).system.jobtracker,), {}

    benchmark.pedantic(
        lambda jt: jt._tick(), setup=restore, rounds=20, iterations=1,
    )
    launched = tick_launches(mid_stream)
    assert len(launched) == 30
    assert launched == tick_launches(mid_stream, unpruned=True)
