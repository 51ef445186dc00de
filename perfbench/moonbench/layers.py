"""Outside-in per-layer tracing for one traced run.

:class:`LayerTrace` wraps the public entry points of each ``repro``
layer with timing shims, installed on the classes before a system is
built and removed afterwards.  A span stack turns the nested wall
times into self times: a span's self time is its duration minus the
time covered by timed calls nested inside it.  Each dispatched event is
a root span, timed by the engine's profiler hook (``obs.profiler.note``)
and billed to the package that defines the event's callback; whatever
its nested timed calls do not cover is that package's self time.

The trace also watches the event stream through the public
``Simulation.trace_hook``: it counts events, samples the queue length,
and keeps a rolling crc32 over ``(time, priority, callback
__qualname__)`` of every dispatched event.

Spans are kept in memory as per ``(layer, entry point)`` counts and
self times and written out when the run ends.
"""

from __future__ import annotations

import functools
import zlib
from collections import defaultdict
from time import perf_counter, process_time
from typing import Dict, List, Optional, Tuple

from repro.cluster import Cluster
from repro.dfs import DfsClient, NameNode
from repro.mapreduce import JobTracker
from repro.net import FairShareNetwork, FifoNetwork
from repro.scheduling import (
    HadoopScheduler,
    LateScheduler,
    MoonScheduler,
    SchedulerPolicy,
)
from repro.service import JobQueue
from repro.simulation import Event, PeriodicTask, Simulation

#: ``(layer, class, method names)`` of every timed entry point.  A
#: method is wrapped on each listed class that defines it itself, so
#: overriding policies and network models are each timed once.
ENTRY_POINTS: Tuple[Tuple[str, type, Tuple[str, ...]], ...] = (
    ("simulation", Simulation, ("call_at", "call_after")),
    ("simulation", Event, ("cancel",)),
    ("scheduling", HadoopScheduler, ("select_task",)),
    ("scheduling", LateScheduler, ("select_task",)),
    ("scheduling", MoonScheduler, ("select_task",)),
    ("scheduling", SchedulerPolicy, ("begin_tick",)),
    (
        "mapreduce",
        JobTracker,
        ("submit", "launch", "attempt_succeeded", "attempt_failed",
         "kill_attempt"),
    ),
    ("dfs", DfsClient, ("read_block", "write_file")),
    ("dfs", NameNode, ("create_file", "register_replica")),
    ("net", FifoNetwork, ("transfer", "disk_io")),
    ("net", FairShareNetwork, ("transfer", "disk_io")),
    ("service", JobQueue, ("offer", "select")),
)

#: Layers reported by name; a root span from any other package (or
#: from outside ``repro``) is billed to ``other``.
LAYERS = (
    "simulation", "scheduling", "mapreduce", "dfs", "net", "cluster",
    "service", "obs",
)


class LayerTrace:
    """Span stack, per-entry counts and per-layer self times."""

    def __init__(self) -> None:
        #: ``(layer, entry) -> [calls, self seconds]``.
        self.entries: Dict[Tuple[str, str], List[float]] = defaultdict(
            lambda: [0, 0.0]
        )
        #: Root-span self seconds billed per layer.
        self.roots: Dict[str, float] = defaultdict(float)
        self.events = 0
        self.queue_peak = 0
        self.crc = 0
        self.outages = 0
        #: Wall and CPU clock at the first dispatched event.
        self.first_event: Optional[Tuple[float, float]] = None
        #: Child time covered at each open span depth; index 0 is the
        #: current root (event) span.
        self._child = [0.0]
        self._root_layer = "other"
        self._layer_of: Dict[object, str] = {}
        self._sim: Optional[Simulation] = None
        self._saved: List[Tuple[type, str, object]] = []
        self._run_start: Dict[Tuple[str, str], float] = {}

    # -- shims ----------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point; call :meth:`uninstall` afterwards."""
        for layer, cls, names in ENTRY_POINTS:
            for name in names:
                if name in cls.__dict__:
                    fn = cls.__dict__[name]
                    self._saved.append((cls, name, fn))
                    setattr(cls, name, self._shim(layer, name, fn))

    def uninstall(self) -> None:
        for cls, name, fn in reversed(self._saved):
            setattr(cls, name, fn)
        self._saved.clear()

    def _shim(self, layer: str, name: str, fn):
        child = self._child
        entry = self.entries[(layer, name)]

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            child.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - t0
                inner = child.pop()
                child[-1] += took
                entry[0] += 1
                entry[1] += took - inner

        return timed

    # -- the engine hooks -----------------------------------------------
    def begin_cell(self) -> None:
        """Mark the start of a system build: timed calls made from here
        to the first dispatched event are set-up, not run."""
        self._run_start = {k: e[1] for k, e in self.entries.items()}

    def attach(self, sim: Simulation, cluster: Cluster) -> None:
        """Hook one freshly built system before it runs."""
        self._sim = sim
        sim.trace_hook = self._on_event
        sim.obs.profiler = self
        cluster.on_suspend(self._on_suspend)
        self.first_event = None

    def _on_event(self, time: float, event: Event) -> None:
        if self.first_event is None:
            self.first_event = (perf_counter(), process_time())
            # Drop the self time of timed calls made while the system
            # was being set up: it is not part of the run.
            for key, entry in self.entries.items():
                entry[1] = self._run_start.get(key, 0.0)
        fn = event.fn
        self.events += 1
        self.crc = zlib.crc32(
            f"{time!r}|{event.priority}|{_qualname(fn)}".encode(), self.crc
        )
        pending = self._sim.pending_events()
        if pending > self.queue_peak:
            self.queue_peak = pending
        self._root_layer = self._layer(fn)
        self._child[0] = 0.0

    def note(self, key: str, seconds: float) -> None:
        """``obs.profiler`` hook: one event's callback returned."""
        self.roots[self._root_layer] += seconds - self._child[0]
        self._child[0] = 0.0

    def _on_suspend(self, node) -> None:
        self.outages += 1

    def _layer(self, fn) -> str:
        owner = getattr(fn, "__self__", None)
        if isinstance(owner, PeriodicTask):
            # The engine's re-arming wrapper: bill the periodic work.
            fn = getattr(owner, "_fn", fn)
        func = getattr(fn, "__func__", fn)
        func = getattr(func, "func", func)  # functools.partial
        # Closures share their code object: key on it, so per-event
        # lambdas do not grow the cache.
        key = getattr(func, "__code__", func)
        layer = self._layer_of.get(key)
        if layer is None:
            parts = getattr(func, "__module__", "").split(".")
            layer = (
                parts[1]
                if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS
                else "other"
            )
            self._layer_of[key] = layer
        return layer

    # -- results --------------------------------------------------------
    def count(self, layer: str, *names: str) -> int:
        return int(sum(self.entries[(layer, n)][0] for n in names))

    def entry_self(self, layer: str, *names: str) -> float:
        return sum(self.entries[(layer, n)][1] for n in names)

    def self_seconds(self) -> Dict[str, float]:
        """Self seconds per layer: timed entry points plus root spans."""
        out = {layer: self.roots.get(layer, 0.0) for layer in LAYERS}
        for (layer, _name), (_calls, secs) in self.entries.items():
            out[layer] += secs
        return out

    def to_dict(self) -> dict:
        return {
            "events": self.events,
            "queue_peak": self.queue_peak,
            "crc32": self.crc,
            "outages": self.outages,
            "root_self_s": dict(sorted(self.roots.items())),
            "entries": {
                f"{layer}.{name}": {"calls": int(c), "self_s": s}
                for (layer, name), (c, s) in sorted(self.entries.items())
            },
        }


def _qualname(fn) -> str:
    fn = getattr(fn, "func", fn)  # functools.partial
    return getattr(fn, "__qualname__", None) or type(fn).__qualname__
