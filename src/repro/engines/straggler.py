"""Straggler estimation: the one home of "which running attempt lags?".

Every straggler defence asks the same two questions: is this running
attempt a straggler, and which one do we act on?  Map speculation
(:class:`~repro.engines.speculation.SpeculationManager`), reduce
speculation (:meth:`~repro.engines.base.ApplicationMaster._maybe_speculate_reduce`)
and SkewTune (:class:`~repro.engines.skewtune.SkewTuneAM`) all answer them
through one :class:`StragglerEstimator` per AM:

* the fresh-copy estimate — the mean runtime of the completed, non-killed
  attempts of a kind, i.e. what re-running a task from scratch costs;
* the candidate filter — originals not acted on yet, old enough to judge
  and not nearly done;
* the choice — the candidate with the longest estimated time left (LATE).

The :class:`~repro.engines.base.TraceRecorder` feeds the estimator each
record it appends to the job trace, so no policy rescans the trace.  Each
policy keeps its own thresholds; LATE's percentile picker and the Hadoop
default lag rule stay in the speculation manager.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Collection, Iterable

if TYPE_CHECKING:  # pragma: no cover
    from repro.engines.speculation import SpeculationConfig
    from repro.mapreduce.attempt import TaskAttempt
    from repro.sim.trace import TaskRecord


class StragglerEstimator:
    """Per-AM straggler statistics and the shared candidate filter."""

    def __init__(self) -> None:
        self._runtimes: dict[str, list[float]] = {"map": [], "reduce": []}
        self._fresh: dict[str, float] = {}

    def add(self, record: "TaskRecord") -> None:
        """Account one record appended to the job trace."""
        if record.killed:
            return
        runtime = record.runtime
        if runtime > 0:
            self._runtimes[record.kind].append(runtime)
            self._fresh.pop(record.kind, None)

    def fresh_copy_s(self, kind: str) -> float:
        """Expected runtime of a re-execution of a ``kind`` task.

        Infinity before any attempt of that kind completed: there is
        nothing to estimate from, and first-wave backups are premature.
        The mean is ``sum()`` over the runtimes in trace order, recomputed
        only after an append, so it equals a rescan of the trace bit for
        bit (a running ``+=`` would not where ``sum()`` compensates, as on
        Python >= 3.12).
        """
        fresh = self._fresh.get(kind)
        if fresh is None:
            done = self._runtimes[kind]
            fresh = sum(done) / len(done) if done else math.inf
            self._fresh[kind] = fresh
        return fresh

    @staticmethod
    def candidates(
        attempts: Iterable["TaskAttempt"],
        skip: Collection[str],
        min_age_s: float,
        max_progress: float | None = None,
    ) -> list["TaskAttempt"]:
        """Running originals worth judging: not a backup copy, task id not
        in ``skip``, at least ``min_age_s`` old and, when ``max_progress``
        is given, below that progress."""
        return [
            a
            for a in attempts
            if not a.record.speculative
            and a.task_id not in skip
            and a.elapsed() >= min_age_s
            and (max_progress is None or a.progress() < max_progress)
        ]

    def backup_candidates(
        self,
        kind: str,
        attempts: Iterable["TaskAttempt"],
        skip: Collection[str],
        config: "SpeculationConfig",
    ) -> list["TaskAttempt"]:
        """Candidates a backup copy would beat: estimated time left above
        the fresh-copy estimate (Hadoop's speculation precondition)."""
        fresh = self.fresh_copy_s(kind)
        return [
            a
            for a in self.candidates(attempts, skip, config.min_age_s, config.max_progress)
            if a.est_time_left() > fresh
        ]

    @staticmethod
    def longest_left(attempts: Iterable["TaskAttempt"]) -> "TaskAttempt | None":
        """The attempt with the longest estimated time left (ties: task id)."""
        return max(attempts, key=lambda a: (a.est_time_left(), a.task_id), default=None)
