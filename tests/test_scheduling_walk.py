"""The heartbeat walk's exhaustion prune changes no decision.

`JobTracker._tick` drops a job from the rest of a tick's walk for a
task type once `SchedulerPolicy.exhausted` says every later offer of
that type would be refused.  The reference walk is the same walk with a
policy whose `exhausted` always answers False, so every job is offered
every free slot: on random small worlds of all three policies (hybrid
placement on and off, random outages, volatile-only inputs whose reads
can fail on the spot, mixed priorities, a deprioritised and a paused
job) both walks must dispatch the same event stream.  The direct check
drives the reference walk and holds `exhausted` to its contract on
every later offer of the same tick.
"""

from __future__ import annotations

import functools
import zlib

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.config import SchedulerConfig, ShuffleConfig
from repro.dfs import ReplicationFactor
from repro.mapreduce import JobTracker
from repro.scheduling import make_scheduler
from repro.simulation import Simulation

from helpers import build
from test_mapreduce_basic import tiny_job

KINDS = ("moon", "hadoop", "late")


def reference(policy):
    """``policy`` with the prune disabled: the unpruned walk."""
    cls = type(policy)
    ref_cls = type(f"Unpruned{cls.__name__}", (cls,), {
        "exhausted": lambda self, job, task_type: False,
    })
    return ref_cls(policy.cfg)


def scheduler_cfg(kind, hybrid):
    if kind == "moon":
        return SchedulerConfig(
            kind="moon", suspension_interval=30.0,
            tracker_expiry_interval=600.0, hybrid_aware=hybrid,
        )
    return SchedulerConfig(
        kind=kind, tracker_expiry_interval=300.0, hybrid_aware=False,
    )


world_st = st.fixed_dictionaries({
    "hybrid": st.booleans(),
    "n_volatile": st.integers(2, 5),
    "n_dedicated": st.integers(0, 2),
    "outages": st.lists(
        st.tuples(
            st.integers(0, 6),
            st.floats(1.0, 300.0),
            st.floats(20.0, 900.0),
        ),
        max_size=5,
    ),
    "jobs": st.lists(
        st.tuples(
            st.integers(1, 6),  # maps
            st.integers(0, 3),  # reduces
            st.integers(0, 2),  # priority
            st.booleans(),  # volatile-only input
            st.sampled_from([5.0, 90.0]),  # map compute seconds
        ),
        min_size=1,
        max_size=4,
    ),
    "deprioritise_at": st.one_of(st.none(), st.floats(0.0, 200.0)),
    "pause": st.one_of(
        st.none(),
        st.tuples(st.floats(0.0, 200.0), st.floats(10.0, 400.0)),
    ),
    "seed": st.integers(0, 2**16),
})


def build_world(world, kind, unpruned, before_submit=None):
    sim = Simulation(seed=world["seed"])
    n_ded = world["n_dedicated"]
    traces = {}
    for node, start, length in world["outages"]:
        nid = n_ded + node % world["n_volatile"]
        traces.setdefault(nid, []).append((start, start + length))
    for nid, spans in traces.items():
        spans.sort()
        merged = [spans[0]]
        for s, e in spans[1:]:
            if s <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], e))
            else:
                merged.append((s, e))
        traces[nid] = merged
    cluster, _, nn = build(
        sim, n_dedicated=n_ded, n_volatile=world["n_volatile"],
        traces=traces,
    )
    cfg = scheduler_cfg(kind, world["hybrid"])
    policy = make_scheduler(cfg)
    if unpruned:
        policy = reference(policy)
    jt = JobTracker(sim, cluster, nn, cfg, ShuffleConfig(), policy)
    if before_submit is not None:
        before_submit(jt)
    jobs = []
    for maps, reduces, priority, volatile_input, cpu in world["jobs"]:
        kw = {"map_cpu_seconds": cpu}
        if volatile_input:
            rf = ReplicationFactor(0, 1)
            kw.update(input_rf=rf, intermediate_rf=rf)
        jobs.append(jt.submit(tiny_job(maps, reduces, **kw), priority))
    if world["deprioritise_at"] is not None:
        sim.call_at(world["deprioritise_at"], jt.deprioritise_job, jobs[0])
    if world["pause"] is not None:
        at, hold = world["pause"]
        sim.call_at(at, jt.pause_job, jobs[-1])
        sim.call_at(at + hold, jt.resume_job, jobs[-1])
    return sim, jt, jobs


def digest(world, kind, unpruned):
    """crc32 over (time, priority, callback qualname) per event."""
    sim, jt, jobs = build_world(world, kind, unpruned)
    crc = 0

    def hook(now, event):
        nonlocal crc
        fn = event.fn
        while isinstance(fn, functools.partial):
            fn = fn.func  # a partial's repr carries object addresses
        name = fn.__qualname__
        crc = zlib.crc32(f"{now!r}|{event.priority}|{name}".encode(), crc)

    sim.trace_hook = hook
    sim.run(until=3000.0, stop_when=lambda: all(j.finished for j in jobs))
    counters = jt._metrics.counters_with_prefix("scheduler/")
    return (crc, sim.executed_events, [j.state for j in jobs]), counters


#: Under Hadoop a tracker that hosts the straggler's only copy refuses
#: its backup, and a later tracker of the same tick takes it: a rule
#: that ignored the straggler list would prune the job at the refusal.
STRAGGLER_ON_FIRST_TRACKER = {
    "hybrid": False, "n_volatile": 2, "n_dedicated": 0,
    "outages": [(0, 1.0, 35.0)],
    "jobs": [(1, 0, 0, False, 5.0), (2, 0, 0, False, 90.0)],
    "deprioritise_at": None, "pause": None, "seed": 0,
}


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@pytest.mark.parametrize("kind", KINDS)
@given(world=world_st)
@example(world=STRAGGLER_ON_FIRST_TRACKER)
def test_pruned_walk_dispatches_the_reference_stream(kind, world):
    pruned, pc = digest(world, kind, unpruned=False)
    ref, rc = digest(world, kind, unpruned=True)
    assert pruned == ref
    assert pc["assignments"] == rc["assignments"]
    assert pc["ticks"] == rc["ticks"]
    assert rc.get("exhausted_prunes", 0) == 0
    assert pc["offers"] <= rc["offers"]


class ExhaustionAudit:
    """Wraps the reference walk's policy: after every refused offer it
    asks the real rule, marks the (job, type) dry when it holds, and
    asserts every later offer of a dry pair in the tick is refused
    too.  A launch clears the marks the rule no longer holds, as the
    walk's unpark does."""

    def __init__(self, jt):
        policy = jt.policy
        # The reference subclass disables the rule; its parent has it.
        self.rule = super(type(policy), policy).exhausted
        self.dry = set()
        self.checked = 0
        select, begin, launch = (
            policy.select_task, policy.begin_tick, jt.launch,
        )

        def select_task(job, tracker, task_type):
            picked = select(job, tracker, task_type)
            if (job, task_type) in self.dry:
                self.checked += 1
                assert picked is None, (job, tracker.node_id, task_type)
            elif picked is None and self.rule(job, task_type):
                self.dry.add((job, task_type))
            return picked

        def begin_tick():
            self.dry.clear()
            begin()

        def launch_and_recheck(task, tracker, speculative):
            attempt = launch(task, tracker, speculative)
            self.dry = {
                (j, tt) for j, tt in self.dry if self.rule(j, tt)
            }
            return attempt

        policy.select_task = select_task
        policy.begin_tick = begin_tick
        jt.launch = launch_and_recheck


@settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@pytest.mark.parametrize("kind", KINDS)
@given(world=world_st)
def test_exhausted_job_refuses_every_later_tracker_of_the_tick(kind, world):
    sim, jt, jobs = build_world(world, kind, unpruned=True)
    ExhaustionAudit(jt)
    sim.run(until=3000.0, stop_when=lambda: all(j.finished for j in jobs))


def test_the_audit_is_not_vacuous():
    """A busy MOON world with speculation closes jobs mid-tick, and the
    audit then sees refused re-offers on later trackers."""
    world = {
        "hybrid": True, "n_volatile": 5,
        "n_dedicated": 2, "outages": [(0, 20.0, 500.0), (1, 40.0, 300.0)],
        "jobs": [
            (6, 2, 0, False, 5.0), (4, 1, 1, False, 5.0), (3, 0, 0, True, 5.0),
        ],
        "deprioritise_at": None, "pause": None, "seed": 5,
    }
    sim, jt, jobs = build_world(world, "moon", unpruned=True)
    audit = ExhaustionAudit(jt)
    sim.run(until=3000.0, stop_when=lambda: all(j.finished for j in jobs))
    assert audit.checked > 10


def test_a_real_launch_reopens_a_parked_job(monkeypatch):
    """In this Hadoop world (found by a targeted search) a launch
    changes a job parked earlier in the same tick so that the rule no
    longer holds for it; the walk takes it back, and the stream still
    equals the reference."""
    world = {
        "hybrid": False, "n_volatile": 2,
        "n_dedicated": 2, "seed": 4,
        "outages": [
            (2, 5.0, 35.0), (0, 50.0, 77.61707535675555),
            (2, 320.0, 35.0), (3, 8.0, 455.61707535675555),
        ],
        "jobs": [(6, 1, 1, True, 5.0), (1, 0, 0, False, 5.0)],
        "deprioritise_at": None, "pause": None,
    }
    reopened = []
    unpark = JobTracker._unpark

    def counting_unpark(self, order, walk, parked):
        before = sum(map(len, parked.values()))
        unpark(self, order, walk, parked)
        reopened.append(before - sum(map(len, parked.values())))

    monkeypatch.setattr(JobTracker, "_unpark", counting_unpark)
    pruned = digest(world, "hadoop", unpruned=False)[0]
    assert pruned == digest(world, "hadoop", unpruned=True)[0]
    assert sum(reopened) > 0


def test_a_launch_that_reopens_a_parked_job_unparks_it():
    """A job pruned as exhausted rejoins the walk when a launch later in
    the same tick re-opens it, and takes the next free slot, as in the
    unpruned walk.  (In a real run a reduce's first fetch can re-execute
    a lost map; here a scripted policy closes the first job at every
    tick start and re-opens it when the second job launches.)"""
    world = {
        "hybrid": False, "n_volatile": 3,
        "n_dedicated": 1, "outages": [],
        "jobs": [(4, 0, 1, False, 5.0), (6, 0, 0, False, 5.0)],
        "deprioritise_at": None, "pause": None, "seed": 1,
    }

    def run(unpruned):
        log = []
        state = {"closed": False}

        def script(jt):
            policy = jt.policy
            select, rule, launch = (
                policy.select_task, policy.exhausted, jt.launch,
            )

            def begin_tick():
                state["closed"] = True
                type(policy).begin_tick(policy)

            def select_task(job, tracker, task_type):
                if job.priority == 1 and state["closed"]:
                    return None
                return select(job, tracker, task_type)

            def exhausted(job, task_type):
                if job.priority == 1 and state["closed"]:
                    return True
                return rule(job, task_type)

            def record(task, tracker, speculative):
                log.append((task.job.priority, task.index, tracker.node_id))
                attempt = launch(task, tracker, speculative)
                if task.job.priority == 0:
                    state["closed"] = False
                return attempt

            policy.begin_tick = begin_tick
            policy.select_task = select_task
            if not unpruned:
                policy.exhausted = exhausted
            jt.launch = record

        sim, jt, _ = build_world(world, "hadoop", unpruned, script)
        sim.run(until=200.0)
        return log, jt._metrics.counter("scheduler/exhausted_prunes").value

    pruned, prunes = run(unpruned=False)
    ref, _ = run(unpruned=True)
    assert prunes > 0
    assert pruned == ref
    # The first job's maps ran right behind the second job's first
    # launch, in the tick that re-opened it.
    assert [p for p, _, _ in pruned[:3]] == [0, 1, 1]
