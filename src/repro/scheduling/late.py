"""LATE — Longest Approximate Time to End (Zaharia et al., OSDI'08).

The related-work baseline the paper contrasts with (Section VII): LATE
speculates on the task expected to finish last, assuming constant
per-node progress rates.  That assumption breaks on opportunistic
resources (a suspended node's rate is *zero* for a while, then jumps
back), which is exactly what the XTRA-C ablation bench demonstrates.

Simplified faithful implementation:

* estimate ``time_left = (1 - progress) / progress_rate`` per running
  task (rate measured since the attempt started);
* speculate on the largest ``time_left`` whose progress rate is below
  the SlowTaskThreshold (25th percentile of rates);
* respect a SpeculativeCap (fraction of available slots).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..mapreduce.job import Job
from ..mapreduce.task import Task, TaskType
from ..mapreduce.tasktracker import TaskTracker
from .base import SchedulerPolicy

#: LATE's published defaults.
SLOW_TASK_PERCENTILE = 25.0


class LateScheduler(SchedulerPolicy):
    """LATE: speculate on the longest estimated time-to-end."""
    def select_task(
        self, job: Job, tracker: TaskTracker, task_type: TaskType
    ) -> Optional[Tuple[Task, bool]]:
        pending = self.pick_pending(job, tracker, task_type)
        if pending is not None:
            return (pending, False)
        if self.has_pending(job, task_type):
            return None
        if not self.allow_speculation(job) or not self.under_job_cap(job):
            return None
        candidates = self._ranked_by_time_left(job, task_type, tracker)
        if not candidates:
            return None
        return (candidates[0], True)

    def exhausted(self, job: Job, task_type: TaskType) -> bool:
        """No pending task, and speculation shut: off for the job, its
        cap reached, or no running task left that could take a copy on
        any tracker (the tracker-independent half of the filter in
        :meth:`_ranked_by_time_left`; a non-empty filtered list always
        ranks at least its slowest task)."""
        if job.pending_count(task_type):
            return False
        if not self.allow_speculation(job) or not self.under_job_cap(job):
            return True
        return not any(
            not t.complete and t.live_attempts() and self.under_per_task_cap(t)
            for t in job.running_tasks(task_type)
        )

    # ------------------------------------------------------------------
    def _rate(self, task: Task) -> float:
        live = task.live_attempts()
        if not live:
            return 0.0
        rates = []
        for a in live:
            runtime = max(1e-6, self.now - a.started_at)
            rates.append(a.progress / runtime)
        return max(rates)

    def _ranked_by_time_left(
        self, job: Job, task_type: TaskType, tracker: TaskTracker
    ) -> List[Task]:
        """Memoised per tick.  Two layers:

        * per-task progress rates are launch-invariant within a tick (a
          copy launched this tick contributes rate 0.0, which can never
          raise the per-task ``max``), so they are computed once per
          (job, type) and reused across every slot request;
        * the percentile threshold and the ranking depend on the
          *filtered* candidate subset — which shifts as same-tick
          launches consume per-task caps and co-location slots — so the
          ranked list is cached keyed by that subset.  Identical
          subsets recur for most slot requests in a tick; recomputing
          only on subset change is byte-identical to the per-slot
          recompute (same inputs, same arithmetic).

        ``_ranked_by_time_left_reference`` below is the original
        unmemoised computation; the pinning test drives both over the
        same cluster and asserts identical decisions.
        """
        running = [
            t
            for t in job.running_tasks(task_type)
            if not t.complete
            and t.live_attempts()
            and self.under_per_task_cap(t)
            and self.can_host(t, tracker)
        ]
        if not running:
            return []
        rates_key = ("late_rates", job.job_id, task_type)
        all_rates = self._memo.get(rates_key)
        if all_rates is None:
            all_rates = self._memo[rates_key] = {}
        rank_key = (
            "late_rank",
            job.job_id,
            task_type,
            tuple(t.index for t in running),
        )
        ranked = self._memo.get(rank_key)
        if ranked is not None:
            return ranked
        rates = {}
        for t in running:
            r = all_rates.get(t.index)
            if r is None:
                r = all_rates[t.index] = self._rate(t)
            rates[t.task_id] = r
        threshold = float(
            np.percentile(list(rates.values()), SLOW_TASK_PERCENTILE)
        )
        slow = [t for t in running if rates[t.task_id] <= threshold]

        def time_left(t: Task) -> float:
            r = rates[t.task_id]
            if r <= 0:
                return float("inf")
            return (1.0 - t.best_progress()) / r

        ranked = sorted(slow, key=lambda t: (-time_left(t), t.index))
        self._memo[rank_key] = ranked
        return ranked

    def _ranked_by_time_left_reference(
        self, job: Job, task_type: TaskType, tracker: TaskTracker
    ) -> List[Task]:
        """The original per-slot recompute (no memoisation): the
        equivalence oracle for ``tests/test_late_memo.py``."""
        running = [
            t
            for t in job.running_tasks(task_type)
            if not t.complete
            and t.live_attempts()
            and self.under_per_task_cap(t)
            and self.can_host(t, tracker)
        ]
        if not running:
            return []
        rates = {t.task_id: self._rate(t) for t in running}
        threshold = float(
            np.percentile(list(rates.values()), SLOW_TASK_PERCENTILE)
        )
        slow = [t for t in running if rates[t.task_id] <= threshold]

        def time_left(t: Task) -> float:
            r = rates[t.task_id]
            if r <= 0:
                return float("inf")
            return (1.0 - t.best_progress()) / r

        return sorted(slow, key=lambda t: (-time_left(t), t.index))
