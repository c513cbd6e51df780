"""Output check, simulated-outcome metrics and the result-table schema check.

The output check decides ``failed``: a simulated job fails when it did not
finish, when its map attempts did not consume exactly its input, when a
reducer did not commit exactly once, or when its JCT is not finite.  A
violation is never excused.

Every ``sim_*`` metric and every model count is in simulated units and is a
pure function of the seed and the code, so it must read the same on every
pass of a run; :func:`compare_passes` enforces that.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter

import numpy as np

#: Relative tolerance of the byte-conservation check.
INPUT_RTOL = 1e-6


def job_failures(jr) -> list[str]:
    """Why one finished job fails the output check (empty when correct)."""
    trace = jr.trace
    out = []
    if not (math.isfinite(trace.jct) and trace.jct > 0):
        out.append(f"JCT {trace.jct!r} is not finite and positive")
    processed = trace.data_processed_mb()
    if abs(processed - jr.job.input_mb) > INPUT_RTOL * jr.job.input_mb:
        out.append(f"maps processed {processed!r} MB of {jr.job.input_mb!r} MB")
    commits = Counter(r.task_id for r in trace.reduces())
    if len(commits) != jr.num_reducers or any(c != 1 for c in commits.values()):
        out.append(
            f"{len(commits)} of {jr.num_reducers} reducers committed, "
            f"at most {max(commits.values(), default=0)} times each"
        )
    return out


def check_pass(inputs, result) -> tuple[int, list[str]]:
    """``(failed jobs, messages)`` for one pass over ``inputs``.

    A job that never finished counts as failed, as does any pass-level
    failure the pass recorded (a job run under the wrong engine).
    """
    messages = list(result.failures)
    failed = len(inputs.jobs) - len(result.jobs) + len(result.failures)
    if len(result.jobs) != len(inputs.jobs):
        messages.append(f"{len(inputs.jobs) - len(result.jobs)} jobs never finished")
    for i, jr in enumerate(result.jobs):
        problems = job_failures(jr)
        failed += bool(problems)
        messages += [f"job {i} ({jr.job.benchmark}/{jr.job.engine}): {p}" for p in problems]
    return min(failed, len(inputs.jobs)), messages


def _geomean(values: list[float]) -> float:
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


def sim_metrics(result) -> dict[str, float]:
    """Simulated-outcome metrics of one pass (simulated seconds)."""
    jcts = [jr.trace.jct for jr in result.jobs]
    per_engine: dict[tuple[str, str], list[float]] = {}
    for jr in result.jobs:
        per_engine.setdefault((jr.job.benchmark, jr.job.engine), []).append(jr.trace.jct)
    ratios = []
    for bench in sorted({b for b, _ in per_engine}):
        flex = per_engine.get((bench, "flexmap"))
        base = per_engine.get((bench, "hadoop-64"))
        if flex and base:
            ratios.append(statistics.fmean(flex) / statistics.fmean(base))
    return {
        "sim_makespan_s": result.sim_makespan_s,
        "sim_jct_p50_s": float(np.percentile(jcts, 50)),
        "sim_jct_p90_s": float(np.percentile(jcts, 90)),
        "sim_norm_jct_flexmap": _geomean(ratios),
    }


def model_counts(result) -> dict[str, float]:
    """Simulated per-layer counts that explain the ``sim_*`` metrics."""
    local = remote = busy = 0.0
    attempts = killed = 0
    waits = []
    for jr in result.jobs:
        trace = jr.trace
        for r in trace.records:
            attempts += 1
            killed += r.killed
            busy += r.end - r.start
            if r.kind == "map":
                local += r.local_mb
                remote += r.remote_mb
        waits.append(trace.map_phase_start - trace.submit_time)
    return {
        "hdfs.local_read_frac": local / (local + remote),
        "mapreduce.attempts": attempts,
        "mapreduce.killed_frac": killed / attempts,
        "multijob.queue_wait_p50_s": float(np.percentile(waits, 50)),
        "multijob.busy_slot_frac": busy / result.slot_seconds,
    }


def compare_passes(reference: dict, other: dict, label: str) -> list[str]:
    """Messages for every simulated value that differs between two passes."""
    return [
        f"{label}: {name} is {other.get(name)!r}, first pass gave {value!r}"
        for name, value in reference.items()
        if other.get(name) != value
    ]


def verify_result_table(rows, key_column, other_columns, expected_keys) -> None:
    """Raise ValueError unless ``rows`` is a complete table.

    Each row is a dict.  Every key in ``expected_keys`` must appear exactly
    once under ``key_column``, and every row must carry a non-empty value in
    each of ``other_columns``.
    """
    keys = [row.get(key_column) for row in rows]
    missing = [k for k in expected_keys if k not in keys]
    if missing:
        raise ValueError(f"missing rows: {missing}")
    dupes = sorted({k for k in keys if keys.count(k) > 1})
    if dupes:
        raise ValueError(f"duplicate rows: {dupes}")
    for row in rows:
        for column in other_columns:
            value = row.get(column)
            if value is None or value == "":
                raise ValueError(f"row {row.get(key_column)!r} lacks {column!r}")
