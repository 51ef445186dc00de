"""Host-speed calibration.

The shared 2-core host the benchmark was defined on changes speed by a
fifth or more from one second to the next.  A fixed pure-Python kernel
measures that speed: it runs right before and after each timed
realization and, while the realization runs, every ``SAMPLE_EVERY_S``
seconds from a ``SIGALRM`` handler.  Its own time is taken out of the spans it
interrupts, and each span is also reported in reference seconds: its
seconds times ``CAL_REF_S`` over the kernel's mean time, raised to
``CAL_EXPONENT``.  The kernel
shares no code with the simulator and runs with the garbage collector
held off, so the collections its allocations would trigger, which also
walk the simulator's heap, fall to the program after it returns: the
kernel's time follows the host's speed, not the program's heap.  The
handler touches no simulator state, so the simulated outcome is
unchanged.
"""

from __future__ import annotations

import gc
import heapq
import signal
from time import perf_counter, process_time
from typing import Dict, List, Optional, Tuple

#: Operations of the calibration kernel, and its typical seconds on the
#: host where the benchmark was defined (a 2-core x86-64 container,
#: CPython 3.11).
CAL_OPS = 30_000
CAL_REF_S = 0.044
#: The simulator's time moves by less than the kernel's as the host's
#: speed swings (when a pass of paper_sort took 23% less time, the
#: kernel took 27% less), so the kernel's factor is damped to this
#: power.  Fitted on sixty one-seed runs of the three workloads: the
#: quartile spread of run_s over ten seeds was at most 0.118 with the
#: plain factor and at most 0.075 with this one.
CAL_EXPONENT = 0.8
#: Wall seconds between calibrations while a realization runs.
SAMPLE_EVERY_S = 0.5


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def calibrate() -> float:
    """Seconds this host takes now for a fixed pure-Python kernel shaped
    like an event loop: heap pushes and pops, dict updates, small
    objects."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        heap: list = []
        table: Dict[int, int] = {}
        for i in range(CAL_OPS):
            heapq.heappush(heap, ((i * 7919) % 1000, i, _Item(i % 4096, i)))
            if len(heap) > 512:
                item = heapq.heappop(heap)[2]
                table[item.key] = table.get(item.key, 0) + item.value
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Calibrates on entry, on exit and, when ``during``, every
    ``SAMPLE_EVERY_S`` seconds of wall time in between."""

    def __init__(self, during: bool = True) -> None:
        self.interval = SAMPLE_EVERY_S if during else None
        #: ``(start, wall seconds, cpu seconds)`` of each kernel run.
        self.samples: List[Tuple[float, float, float]] = []
        self._previous = None

    def __enter__(self) -> "Sampler":
        self._take()
        if self.interval is not None:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        if self.interval is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self._take()

    def _on_alarm(self, signum, frame) -> None:
        self._take()

    def _take(self) -> None:
        t0, c0 = perf_counter(), process_time()
        took = calibrate()
        self.samples.append((t0, took, process_time() - c0))

    def spent(self, start: float, end: float) -> Tuple[float, float]:
        """Wall and CPU seconds the kernel took inside ``[start, end)``."""
        inside = [(w, c) for t, w, c in self.samples if start <= t < end]
        return sum(w for w, _ in inside), sum(c for _, c in inside)

    @property
    def to_ref(self) -> float:
        """Factor from this host's seconds to reference seconds."""
        mean = sum(w for _, w, _ in self.samples) / len(self.samples)
        return reference_factor(mean)


def reference_factor(kernel_s: float) -> float:
    """Factor from this host's seconds to reference seconds, given the
    kernel's time on it."""
    return (CAL_REF_S / kernel_s) ** CAL_EXPONENT
