"""Dispatch order of the single event loop.

`Simulation.run` pops one event at a time in ``(time, priority, seq)``
order and re-checks the heap after every callback.  These tests pin the
order the loop produces on adversarial same-instant schedules — cancels
and pushes from inside callbacks, early stops — as explicit logs, plus
invariants over random storms and a stream digest of a real MapReduce
run.

`test_step_matches_run_dispatch` is the regression test for the old
`Simulation.step()` bypassing the `_running` guard, the trace hook and
the profiler.
"""

import functools
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simulation import (
    PRIORITY_HEARTBEAT,
    PRIORITY_NODE_STATE,
    PRIORITY_PERIODIC,
    PRIORITY_TRANSFER,
    Simulation,
)

PRIORITIES = (
    PRIORITY_NODE_STATE,
    PRIORITY_TRANSFER,
    PRIORITY_HEARTBEAT,
    PRIORITY_PERIODIC,
)


class Recorder:
    """Logs every executed event as (now, tag)."""

    def __init__(self, sim):
        self.sim = sim
        self.log = []

    def hit(self, tag):
        self.log.append((self.sim.now, tag))

    @property
    def tags(self):
        return [t for _, t in self.log]


def _sim():
    sim = Simulation(seed=7)
    return sim, Recorder(sim)


def test_same_instant_burst_order():
    """Same-instant events run by priority, then in push order."""
    sim, rec = _sim()
    for i in range(3):
        sim.call_at(5.0, rec.hit, f"a{i}")
    for i in range(2):
        sim.call_at(5.0, rec.hit, f"hb{i}", priority=PRIORITY_HEARTBEAT)
    sim.call_at(5.0, rec.hit, "node", priority=PRIORITY_NODE_STATE)
    sim.call_at(9.0, rec.hit, "late")
    assert sim.run() == 9.0
    assert rec.tags == ["node", "hb0", "hb1", "a0", "a1", "a2", "late"]


def test_same_instant_cancel_skipped():
    """A cancel from an earlier same-instant event skips the victim."""
    sim, rec = _sim()
    events = {}

    def cancel_later():
        rec.hit("canceller")
        events["victim"].cancel()

    sim.call_at(3.0, cancel_later)
    events["victim"] = sim.call_at(3.0, rec.hit, "victim")
    sim.call_at(3.0, rec.hit, "survivor")
    sim.run()
    assert rec.tags == ["canceller", "survivor"]
    assert sim.executed_events == 2


def test_lower_priority_push_runs_first():
    """A push at the current instant that sorts before the current key
    runs before the remaining events of that key."""
    sim, rec = _sim()

    def pusher():
        rec.hit("pusher")
        sim.call_at(4.0, rec.hit, "urgent", priority=PRIORITY_NODE_STATE)

    sim.call_at(4.0, pusher)
    for i in range(3):
        sim.call_at(4.0, rec.hit, f"rest{i}")
    sim.run()
    assert rec.tags == ["pusher", "urgent", "rest0", "rest1", "rest2"]


def test_same_key_push_runs_last():
    """A push with the current key runs after its remaining events."""
    sim, rec = _sim()

    def pusher():
        rec.hit("pusher")
        sim.call_at(4.0, rec.hit, "appended")

    sim.call_at(4.0, pusher)
    sim.call_at(4.0, rec.hit, "second")
    sim.run()
    assert rec.tags == ["pusher", "second", "appended"]


def test_max_events_mid_instant():
    """``max_events`` stops mid-instant and leaves the rest queued."""
    sim, rec = _sim()
    for i in range(10):
        sim.call_at(2.0, rec.hit, f"e{i}")
    assert sim.run(max_events=4) == 2.0
    assert rec.tags == ["e0", "e1", "e2", "e3"]
    assert sim.executed_events == 4
    assert sim.pending_events() == 6
    sim.run()
    assert rec.tags == [f"e{i}" for i in range(10)]


def test_stop_when_mid_instant():
    sim, rec = _sim()

    def flip():
        rec.hit("flip")
        sim.flag = True

    sim.flag = False
    sim.call_at(2.0, flip)
    for i in range(5):
        sim.call_at(2.0, rec.hit, f"e{i}")
    sim.run(stop_when=lambda: sim.flag)
    assert rec.log == [(2.0, "flip")]
    assert sim.pending_events() == 5


def test_daemon_idle_stop_mid_instant():
    """The last foreground event finishing mid-instant stops a
    horizonless run before the same-instant daemons fire."""
    sim, rec = _sim()
    sim.call_at(2.0, rec.hit, "fg")
    sim.call_at(2.0, rec.hit, "d0", daemon=True)
    sim.call_at(2.0, rec.hit, "d1", daemon=True)
    assert sim.run() == 2.0
    assert rec.tags == ["fg"]
    assert sim.pending_events() == 2
    assert sim.pending_foreground_events() == 0


def test_until_boundary():
    """Events at ``until`` run; later ones stay queued; the clock
    stops at ``until``."""
    sim, rec = _sim()
    sim.call_at(2.0, rec.hit, "in")
    sim.call_at(5.0, rec.hit, "at")
    sim.call_at(5.5, rec.hit, "out")
    assert sim.run(until=5.0) == 5.0
    assert rec.log == [(2.0, "in"), (5.0, "at")]
    assert sim.now == 5.0
    assert sim.pending_events() == 1


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 4),  # time bucket (collisions on purpose)
            st.sampled_from(PRIORITIES),
            st.booleans(),  # daemon
            st.integers(0, 3),  # action: 0 none, 1 push, 2 cancel, 3 both
        ),
        min_size=1,
        max_size=30,
    ),
    st.integers(0, 2),
)
def test_property_random_storms(events, action_priority_ix):
    """Random same-instant storms with callback-driven pushes and
    cancels: the clock never goes backwards, a cancelled event never
    fires, and every executed event is logged exactly once."""
    sim, rec = _sim()
    handles = []
    fired = set()
    cancelled = set()

    def act(tag, action):
        assert tag not in cancelled
        fired.add(tag)
        rec.hit(tag)
        if action in (1, 3):
            sim.call_at(
                sim.now,
                rec.hit,
                f"{tag}+push",
                priority=PRIORITIES[action_priority_ix],
            )
        if action in (2, 3) and handles:
            victim_tag, victim = handles[len(rec.log) % len(handles)]
            if victim_tag not in fired:
                cancelled.add(victim_tag)
            victim.cancel()

    for i, (t, prio, daemon, action) in enumerate(events):
        tag = f"e{i}"
        handles.append(
            (
                tag,
                sim.call_at(
                    float(t), act, tag, action, priority=prio, daemon=daemon
                ),
            )
        )

    sim.run()
    times = [now for now, _ in rec.log]
    assert times == sorted(times)
    assert not fired & cancelled
    assert sim.executed_events == len(rec.log)
    assert sim.pending_foreground_events() == 0


def test_step_matches_run_dispatch():
    """step() goes through the shared dispatch path: trace hook fires,
    executed_events advances, and stepping during run() is an error."""
    sim = Simulation(seed=1)
    seen = []
    sim.trace_hook = lambda now, event: seen.append(now)
    sim.call_at(1.0, lambda: None)
    assert sim.step() is True
    assert seen == [1.0]
    assert sim.executed_events == 1
    assert sim.step() is False

    sim2 = Simulation(seed=1)

    def reenter():
        with pytest.raises(SimulationError):
            sim2.step()

    sim2.call_at(1.0, reenter)
    sim2.run()


def test_step_profiler_accounting():
    """step() brackets callbacks with the profiler exactly like run()."""
    from repro.obs import Observability

    obs = Observability()
    profs = []

    class FakeProfiler:
        def note(self, name, dt):
            profs.append(name)

    obs.profiler = FakeProfiler()
    sim = Simulation(seed=1, obs=obs)

    def work():
        pass

    sim.call_at(1.0, work)
    sim.step()
    assert len(profs) == 1


#: crc32 over (time, priority, callback name) of the run below: a
#: different value means the dispatched event stream changed.
FULL_SYSTEM_DIGEST = 2009737659


def test_full_system_stream_digest():
    """End-to-end: a real MapReduce run (cluster churn, DFS writes,
    shuffle, heartbeats) dispatches the pinned event stream."""
    from repro.config import (
        ClusterConfig,
        SystemConfig,
        TraceConfig,
        moon_scheduler_config,
    )
    from repro.core import moon_system
    from repro.workloads import sleep_spec

    cfg = SystemConfig(
        cluster=ClusterConfig(n_volatile=8, n_dedicated=2),
        trace=TraceConfig(unavailability_rate=0.3),
        scheduler=moon_scheduler_config(),
        seed=13,
    )
    system = moon_system(cfg)
    crc = 0

    def digest(now, event):
        nonlocal crc
        fn = event.fn
        # A partial's repr carries a memory address: name its function.
        if isinstance(fn, functools.partial):
            fn = fn.func
        crc = zlib.crc32(
            f"{now!r}|{event.priority}|{fn.__qualname__}".encode(), crc
        )

    system.sim.trace_hook = digest
    result = system.run_job(
        sleep_spec(5.0, 3.0, n_maps=12, n_reduces=4),
        time_limit=2 * 3600.0,
    )
    system.jobtracker.stop()
    system.namenode.stop()
    assert result.succeeded
    assert system.sim.executed_events == 148
    assert crc == FULL_SYSTEM_DIGEST
