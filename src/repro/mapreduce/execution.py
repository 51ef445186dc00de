"""Attempt execution engine.

Runs map/reduce attempts phase by phase on the simulated clock with the
paper's VM-pause semantics (Section III): while an attempt's node is
unavailable no compute progress is made and its in-flight I/O aborts;
on resume the current I/O step restarts and compute continues from
where it froze.

Three layers of "suspended" exist deliberately:

* **physical** — the node is down *now*; runners pause instantly
  (they're on the node), but the JobTracker cannot see this;
* **judged** — after SuspensionInterval without heartbeats the MOON
  JobTracker flags the attempts INACTIVE (Section V-A), feeding the
  frozen-task list.  Hadoop has no such judgement: it only ever sees
  stalled progress, then kills at TrackerExpiryInterval;
* **job-held** — the service layer paused the whole *job* (SLO-aware
  preemption): :meth:`AttemptRunner.hold` banks compute progress with
  the same mechanics as a physical pause, but the flag belongs to the
  job, so a node coming back up must not wake the attempt —
  only :meth:`AttemptRunner.release` (the job resuming) may.

Map phases:    read input -> compute -> write intermediate
Reduce phases: shuffle -> sort -> compute -> write output
"""

from __future__ import annotations

import heapq
from functools import partial
from typing import Optional

from ..dfs import FileKind
from ..errors import BlockUnavailable
from .task import AttemptState, TaskAttempt

#: Progress weight of each map phase (Hadoop-like: compute dominates).
MAP_WEIGHTS = (0.15, 0.70, 0.15)
#: Reduce thirds: shuffle / sort / reduce+write (paper II-C wording).
REDUCE_WEIGHTS = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)

# Progress banked by the phases before phase ``k``: ``sum(W[:k])``,
# precomputed with the same left fold (and the same int ``0`` for
# phase 0) so the refresh reads the very values it used to add up.
_MAP_DONE = tuple(sum(MAP_WEIGHTS[:k]) for k in range(len(MAP_WEIGHTS) + 1))
_REDUCE_DONE = tuple(
    sum(REDUCE_WEIGHTS[:k]) for k in range(len(REDUCE_WEIGHTS) + 1)
)
_REDUCE_HALF_LAST = REDUCE_WEIGHTS[2] * 0.5


class _ComputeStep:
    """A pausable compute timer."""

    def __init__(self, runner: "AttemptRunner", seconds: float, on_done) -> None:
        self.runner = runner
        self.remaining = seconds
        self.on_done = on_done
        self.started_at: Optional[float] = None
        self.event = None
        self.total = max(seconds, 1e-9)

    def start(self) -> None:
        sim = self.runner.rt.sim
        self.started_at = sim.now
        self.event = sim.call_after(self.remaining, self._fire)

    def _fire(self) -> None:
        self.event = None
        self.remaining = 0.0
        self.on_done()

    def pause(self) -> None:
        if self.event is not None:
            sim = self.runner.rt.sim
            self.remaining -= sim.now - self.started_at
            self.event.cancel()
            self.event = None

    def resume(self) -> None:
        if self.remaining > 0.0 and self.event is None:
            self.start()

    def cancel(self) -> None:
        if self.event is not None:
            self.event.cancel()
            self.event = None


class AttemptRunner:
    """Base machinery shared by map and reduce runners."""

    def __init__(self, rt, attempt: TaskAttempt) -> None:
        self.rt = rt
        self.attempt = attempt
        self.node = rt.cluster.node(attempt.node_id)
        self.phase = 0
        self.paused = not self.node.available
        #: Job-level preemption hold (service layer).  Orthogonal to
        #: ``paused``: a held attempt stays paused across physical
        #: node resumes until the job itself is resumed.
        self.job_held = False
        self.done = False
        self._io_op = None
        self._compute: Optional[_ComputeStep] = None
        attempt.runner = self

    # ------------------------------------------------------------------
    # Lifecycle driven by the TaskTracker / JobTracker
    # ------------------------------------------------------------------
    def start(self) -> None:
        if not self.paused:
            self._enter_phase()

    def pause(self) -> None:
        """Physical node suspension."""
        if self.done or self.paused:
            return
        self.paused = True
        if self._compute is not None:
            self._compute.pause()
        self._cancel_io()

    def resume(self) -> None:
        """Physical node resumption: restart the interrupted step.

        A job-held attempt stays paused — its pause belongs to the
        job, not the node, and only :meth:`release` may wake it."""
        if self.done or not self.paused or self.job_held:
            return
        self.paused = False
        if self._compute is not None:
            self._compute.resume()
        else:
            self._enter_phase()

    def hold(self) -> None:
        """Job-level preemption pause (service layer).

        Same mechanics as a physical :meth:`pause` — compute progress
        is banked, in-flight I/O aborts and restarts on wake — but the
        hold outlives physical node churn: the attempt wakes only when
        the *job* is resumed."""
        if self.done or self.job_held:
            return
        self.job_held = True
        if not self.paused:
            self.pause()

    def release(self) -> None:
        """Lift the job-level hold; wake the attempt if its node is up.

        On a physically-unavailable node the attempt stays paused and
        the normal VM-resume path wakes it when the node returns."""
        if self.done or not self.job_held:
            return
        self.job_held = False
        if self.node.available:
            self.resume()

    def kill(self) -> None:
        self.done = True
        self._cancel_io()
        if self._compute is not None:
            self._compute.cancel()
            self._compute = None

    # ------------------------------------------------------------------
    def _cancel_io(self) -> None:
        if self._io_op is not None:
            self._io_op.cancel()
            self._io_op = None

    def _finish_success(self, output_file=None) -> None:
        self.done = True
        self.attempt.progress = 1.0
        self.rt.jobtracker.attempt_succeeded(self.attempt, output_file)

    def _finish_failure(self, reason: str) -> None:
        self.done = True
        self.rt.jobtracker.attempt_failed(self.attempt, reason)

    def _io_failed_or_pause(self, retry, reason: str) -> None:
        """Common I/O failure handling: if our node is down this is a
        suspension (wait for resume); otherwise report the failure."""
        self._io_op = None
        if self.done:
            return
        if not self.node.available:
            # Physical suspension beat the callback: wait for resume.
            self.paused = True
            return
        retry(reason)

    # Picklable I/O continuations (snapshot/resume): callbacks handed
    # to the DFS/network must never be local closures.
    def _read_io_failed(self, e) -> None:
        self._io_failed_or_pause(self._read_failed, str(e))

    def _write_io_failed(self, e) -> None:
        self._io_failed_or_pause(self._write_failed, str(e))

    def _read_failed(self, reason: str) -> None:  # pragma: no cover
        raise NotImplementedError

    def _write_failed(self, reason: str) -> None:  # pragma: no cover
        raise NotImplementedError

    def mark(self, name: str) -> None:
        self.attempt.phase_marks[name] = self.rt.sim.now

    # Subclasses implement -------------------------------------------------
    def _enter_phase(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def update_progress(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class MapRunner(AttemptRunner):
    """read input block -> compute -> write intermediate file."""

    def _enter_phase(self) -> None:
        if self.done or self.paused:
            return
        if self.phase == 0:
            self._read_input()
        elif self.phase == 1:
            self._start_compute()
        else:
            self._write_output()

    # -- phase 0: input ---------------------------------------------------
    def _read_input(self) -> None:
        task = self.attempt.task
        block = task.input_block
        if block is None or block.size_mb <= 0:
            self._advance_after_read()
            return
        self._io_op = self.rt.dfs.read_block(
            block,
            self.attempt.node_id,
            on_complete=self._on_read_ok,
            on_fail=self._read_io_failed,
        )

    def _on_read_ok(self) -> None:
        self._io_op = None
        self._advance_after_read()

    def _advance_after_read(self) -> None:
        self.mark("read_done")
        self.phase = 1
        self.attempt.progress = MAP_WEIGHTS[0]
        self._enter_phase()

    def _read_failed(self, reason: str) -> None:
        # Input genuinely unavailable (footnote 1 path).
        self._finish_failure(f"input unavailable: {reason}")

    # -- phase 1: compute ---------------------------------------------------
    def _start_compute(self) -> None:
        seconds = self.attempt.task.job.spec.map_cpu_seconds / self.node.spec.cpu_scale
        self._compute = _ComputeStep(self, seconds, self._on_compute_done)
        self._compute.start()

    def _on_compute_done(self) -> None:
        self._compute = None
        self.mark("compute_done")
        self.phase = 2
        self.attempt.progress = MAP_WEIGHTS[0] + MAP_WEIGHTS[1]
        self._enter_phase()

    # -- phase 2: write intermediate ---------------------------------------
    def _write_output(self) -> None:
        task = self.attempt.task
        spec = task.job.spec
        path = task.job.intermediate_path(task.index, self.attempt.attempt_id)
        if self.rt.namenode.exists(path):  # restart after suspension
            self.rt.namenode.delete_file(path)
        kind = (
            FileKind.RELIABLE if spec.intermediate_reliable
            else FileKind.OPPORTUNISTIC
        )
        self._io_op = self.rt.dfs.write_file(
            path,
            spec.map_output_mb,
            kind,
            spec.intermediate_rf,
            client_node=self.attempt.node_id,
            on_complete=partial(self._on_write_ok, path),
            on_fail=self._write_io_failed,
            block_size_mb=max(spec.map_output_mb, 1.0),
        )

    def _on_write_ok(self, path: str) -> None:
        self._io_op = None
        self.mark("write_done")
        self._finish_success(self.rt.namenode.file(path))

    def _write_failed(self, reason: str) -> None:
        self._finish_failure(f"intermediate write failed: {reason}")

    # ------------------------------------------------------------------
    def update_progress(self) -> None:
        p = _MAP_DONE[self.phase]
        step = self._compute
        if self.phase == 1 and step is not None:
            # The compute step's done share, clamped to [0, 1]: a step
            # is started as soon as it is made, and a paused one has
            # no event and its remaining time banked.
            left = step.remaining
            if step.event is not None:
                left -= self.rt.sim.now - step.started_at
            f = (step.total - left) / step.total
            if f > 0.0:
                p += MAP_WEIGHTS[1] * (f if f < 1.0 else 1.0)
        self.attempt.progress = p if p < 1.0 else 1.0


class ReduceRunner(AttemptRunner):
    """shuffle -> sort -> compute -> write output."""

    #: Fetch retries back off exponentially up to this ceiling, so a
    #: stalled shuffle does not flood the event queue for hours.
    MAX_RETRY_INTERVAL = 120.0

    def __init__(self, rt, attempt: TaskAttempt) -> None:
        super().__init__(rt, attempt)
        self.fetched: set = set()  # map indices fetched
        self._inflight: dict = {}  # map index -> ReadOp
        self._retry_events: dict = {}  # map index -> Event
        self._retry_counts: dict = {}  # map index -> consecutive failures
        self.shuffled_mb = 0.0
        # Fetch candidates as a lazy min-heap of map indices, so each
        # pump touches only ready maps instead of rescanning the whole
        # map list (O(maps) per completion -> O(maps^2) per reduce).
        self._ready_heap: list = []
        self._ready_stale = True

    # ------------------------------------------------------------------
    def _enter_phase(self) -> None:
        if self.done or self.paused:
            return
        if self.phase == 0:
            self._shuffle_pump()
        elif self.phase == 1:
            self._start_sort()
        elif self.phase == 2:
            self._start_reduce_compute()
        else:
            self._write_output()

    def pause(self) -> None:
        if self.done or self.paused:
            return
        super().pause()
        for op in self._inflight.values():
            op.cancel()
        self._inflight.clear()
        for ev in self._retry_events.values():
            ev.cancel()
        self._retry_events.clear()

    def resume(self) -> None:
        if self.done or not self.paused or self.job_held:
            return
        self.paused = False
        if self._compute is not None:
            self._compute.resume()
        elif self.phase == 0:
            self._ready_stale = True  # cancelled fetches must re-enter
            self._shuffle_pump()
        else:
            self._enter_phase()

    def kill(self) -> None:
        super().kill()
        for op in self._inflight.values():
            op.cancel()
        self._inflight.clear()
        for ev in self._retry_events.values():
            ev.cancel()
        self._retry_events.clear()

    # -- phase 0: shuffle ---------------------------------------------------
    def notify_map_completed(self, map_index: int) -> None:
        """JobTracker push: a (re-)executed map's output is ready."""
        ev = self._retry_events.pop(map_index, None)
        if ev is not None:
            ev.cancel()
        if not self._ready_stale:
            heapq.heappush(self._ready_heap, map_index)
        if not self.done and not self.paused and self.phase == 0:
            self._shuffle_pump()

    def _rebuild_ready(self) -> None:
        """Full rescan of the map list (start of phase 0 and resume)."""
        self._ready_stale = False
        self._ready_heap = [
            m.index
            for m in self.attempt.task.job.maps
            if m.index not in self.fetched
            and m.index not in self._inflight
            and m.index not in self._retry_events
            and m.complete
            and m.output_file is not None
        ]
        heapq.heapify(self._ready_heap)

    def _shuffle_pump(self) -> None:
        if self.done or self.paused or self.phase != 0:
            return
        if self._ready_stale:
            self._rebuild_ready()
        job = self.attempt.task.job
        maps = job.maps
        parallel = self.rt.shuffle_cfg.parallel_copies
        heap = self._ready_heap
        while heap and len(self._inflight) < parallel:
            i = heapq.heappop(heap)
            # Entries can go stale (fetched meanwhile, duplicate push,
            # map re-executed): drop them — a later completion
            # notification re-enqueues whatever becomes ready again.
            if (
                i in self.fetched
                or i in self._inflight
                or i in self._retry_events
            ):
                continue
            m = maps[i]
            if not m.complete or m.output_file is None:
                continue
            self._start_fetch(m)
        self._check_shuffle_done()

    def _start_fetch(self, map_task) -> None:
        job = self.attempt.task.job
        size = job.spec.partition_mb(job.n_reduces)
        block = map_task.output_file.blocks[0]
        index = map_task.index
        self._inflight[index] = self.rt.dfs.read_block(
            block,
            self.attempt.node_id,
            on_complete=partial(self._fetch_ok, index, size),
            on_fail=partial(self._fetch_failed, index, map_task),
            size_mb=size,
        )

    def _fetch_ok(self, index: int, size: float) -> None:
        self._inflight.pop(index, None)
        if self.done:
            return
        self.fetched.add(index)
        self._retry_counts.pop(index, None)
        self.shuffled_mb += size
        self._shuffle_pump()

    def _fetch_failed(self, index: int, map_task, err) -> None:
        self._inflight.pop(index, None)
        if self.done:
            return
        if not self.node.available:
            self.paused = True
            return
        if isinstance(err, BlockUnavailable):
            self.rt.jobtracker.report_fetch_failure(
                self.attempt.task, map_task
            )
        # Retry with exponential backoff; a re-executed map's
        # completion notification re-triggers us immediately.
        n = self._retry_counts.get(index, 0)
        self._retry_counts[index] = n + 1
        delay = min(
            self.rt.shuffle_cfg.fetch_retry_interval * (2.0**n),
            self.MAX_RETRY_INTERVAL,
        )
        self._retry_events[index] = self.rt.sim.call_after(
            delay, self._retry_fetch, index
        )

    def _retry_fetch(self, index: int) -> None:
        self._retry_events.pop(index, None)
        if not self._ready_stale:
            heapq.heappush(self._ready_heap, index)
        if not self.done and not self.paused and self.phase == 0:
            self._shuffle_pump()

    def _check_shuffle_done(self) -> None:
        job = self.attempt.task.job
        if len(self.fetched) == len(job.maps):
            self.mark("shuffle_done")
            self.phase = 1
            self._enter_phase()

    # -- phase 1: sort -------------------------------------------------------
    def _start_sort(self) -> None:
        spec = self.attempt.task.job.spec
        seconds = (
            self.shuffled_mb * spec.sort_seconds_per_mb / self.node.spec.cpu_scale
        )
        self._compute = _ComputeStep(self, seconds, self._on_sort_done)
        self._compute.start()

    def _on_sort_done(self) -> None:
        self._compute = None
        self.mark("sort_done")
        self.phase = 2
        self._enter_phase()

    # -- phase 2: reduce compute ---------------------------------------------
    def _start_reduce_compute(self) -> None:
        spec = self.attempt.task.job.spec
        seconds = spec.reduce_cpu_seconds / self.node.spec.cpu_scale
        self._compute = _ComputeStep(self, seconds, self._on_reduce_done)
        self._compute.start()

    def _on_reduce_done(self) -> None:
        self._compute = None
        self.mark("reduce_done")
        self.phase = 3
        self._enter_phase()

    # -- phase 3: write output -------------------------------------------------
    def _write_output(self) -> None:
        task = self.attempt.task
        job = task.job
        size = job.spec.resolve_reduce_output_mb(job.n_reduces)
        path = job.output_path(task.index, self.attempt.attempt_id)
        if size <= 0:
            self._finish_success(None)
            return
        if self.rt.namenode.exists(path):
            self.rt.namenode.delete_file(path)
        self._io_op = self.rt.dfs.write_file(
            path,
            size,
            FileKind.OPPORTUNISTIC,  # converted to reliable at commit
            job.spec.output_rf,
            client_node=self.attempt.node_id,
            on_complete=partial(self._on_write_ok, path),
            on_fail=self._write_io_failed,
        )

    def _on_write_ok(self, path: str) -> None:
        self._io_op = None
        self.mark("write_done")
        self._finish_success(self.rt.namenode.file(path))

    def _write_failed(self, reason: str) -> None:
        self._finish_failure(f"output write failed: {reason}")

    # ------------------------------------------------------------------
    def update_progress(self) -> None:
        phase = self.phase
        if phase == 0:
            n = max(1, len(self.attempt.task.job.maps))
            p = REDUCE_WEIGHTS[0] * len(self.fetched) / n
        else:
            # Sort fills the second third; reduce compute and the write
            # share the last one half and half.
            p = _REDUCE_DONE[1 if phase == 1 else 2]
            step = self._compute
            if step is not None:
                left = step.remaining  # see MapRunner.update_progress
                if step.event is not None:
                    left -= self.rt.sim.now - step.started_at
                f = (step.total - left) / step.total
                if f > 0.0:
                    w = REDUCE_WEIGHTS[1] if phase == 1 else _REDUCE_HALF_LAST
                    p += w * (f if f < 1.0 else 1.0)
            elif phase == 3:
                p += _REDUCE_HALF_LAST
        self.attempt.progress = p if p < 1.0 else 1.0


def make_runner(rt, attempt: TaskAttempt) -> AttemptRunner:
    """Instantiate the map or reduce runner for an attempt."""
    if attempt.task.is_map:
        return MapRunner(rt, attempt)
    return ReduceRunner(rt, attempt)
