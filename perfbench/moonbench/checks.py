"""Outcome digest and outside-in invariants of one workload run."""

from __future__ import annotations

import hashlib
from typing import List

from repro.mapreduce import AttemptState, JobState

from .workloads import STATES, CellResult


class CheckFailed(Exception):
    """A run broke an invariant or disagreed with another run."""


def outcome_digest(cells: List[CellResult]) -> str:
    """sha256 over executed events, final sim time and every job's
    arrival, admit time, finish time and state, cell by cell."""
    h = hashlib.sha256()
    for cell in cells:
        h.update(f"cell|{cell.events}|{cell.sim_end!r}\n".encode())
        for row in cell.rows:
            h.update(
                f"{row.arrival!r}|{row.admitted!r}|{row.finished!r}|"
                f"{row.state}\n".encode()
            )
    return h.hexdigest()


def check_cell(name: str, cell: CellResult) -> int:
    """Return the cell's SUCCEEDED attempts; raise :class:`CheckFailed`
    unless every invariant holds:

    * arrived = completed + failed + rejected + dropped + unserved, with
      arrived the jobs the benchmark submitted and the other counts as
      the program returned them; the job rows read from the JobTracker
      (or the service's records) give the same counts, one row a job;
    * every succeeded job has exactly one SUCCEEDED attempt per task
      that is complete, every reduce among them, and no live attempt;
    * every admit and response time is >= 0.
    """
    rep = cell.reported
    if not cell.submitted == rep["arrived"] == sum(rep[s] for s in STATES):
        raise CheckFailed(
            f"{name}: {cell.submitted} submitted, the run reports {rep}"
        )
    seen = {s: 0 for s in STATES}
    for row in cell.rows:
        seen[row.state] += 1
    if len(cell.rows) != cell.submitted or any(
        seen[s] != rep[s] for s in STATES
    ):
        raise CheckFailed(
            f"{name}: {len(cell.rows)} job rows {seen} disagree with {rep}"
        )
    succeeded = [j for j in cell.jobs if j.state is JobState.SUCCEEDED]
    if len(succeeded) != rep["succeeded"]:
        raise CheckFailed(
            f"{name}: JobTracker holds {len(succeeded)} succeeded jobs, "
            f"the run reports {rep['succeeded']}"
        )
    for job in succeeded:
        for task in job.tasks:
            _check_task(name, job, task)
    for row in cell.rows:
        if row.admitted is not None and row.admitted < row.arrival:
            raise CheckFailed(f"{name}: admitted before arrival: {row}")
        if row.finished is not None and row.finished < row.arrival:
            raise CheckFailed(f"{name}: negative response time: {row}")
    return sum(
        1
        for job in cell.jobs
        for task in job.tasks
        for a in task.attempts
        if a.state is AttemptState.SUCCEEDED
    )


def _check_task(name: str, job, task) -> None:
    """One task of a succeeded job.  A job succeeds once its reduces are
    done, so a map may end incomplete: its output was lost after every
    reduce had read it, the map was queued again, and the job's finish
    killed the new copy.  Its lost SUCCEEDED attempt then reads KILLED
    (``JobTracker.reexecute_map``), so such a map has none."""
    wins = sum(1 for a in task.attempts if a.state is AttemptState.SUCCEEDED)
    may_be_lost = task.is_map and job.n_reduces > 0 and task.attempts
    if wins != (1 if task.complete else 0) or not (
        task.complete or may_be_lost
    ):
        raise CheckFailed(
            f"{name}: {job.job_id} task {task.task_id} "
            f"({'complete' if task.complete else 'incomplete'}) has {wins} "
            "SUCCEEDED attempts"
        )
    if task.live_attempts():
        raise CheckFailed(
            f"{name}: {job.job_id} task {task.task_id} still runs after "
            "the job succeeded"
        )
