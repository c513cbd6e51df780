"""The benchmark's own tests.  Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

They check that ``BENCHMARK.json`` matches ``spec.py``, that the result
table check rejects incomplete tables, and that one short run of every
workload, untraced and traced, reports every named metric with its unit,
clock and sample count and a correct result.  The end-to-end runs take a
few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spec  # noqa: E402

OBS_ON = {"burst-traced"}


def _bench_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_matches_spec():
    bench = _bench_json()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(spec.WORKLOADS)
    assert bench["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.END_TO_END
    ]
    assert bench["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in spec.PER_LAYER
    ]
    setup = [m for m in spec.END_TO_END if m.name == "setup_s"]
    assert setup and setup[0].bound == max(m.bound for m in spec.END_TO_END)


def test_layer_table_covers_per_layer_metrics():
    in_table = [name for _, names, _, _ in spec.LAYERS for name in names]
    assert len(in_table) == len(set(in_table))
    per_layer = {m.name for m in spec.PER_LAYER}
    assert set(in_table) <= per_layer
    untabled = per_layer - set(in_table) - {m.name for m in spec.OUTCOMES}
    assert untabled == {"raw_wall_s", "trace_overhead_frac", "src_loc"}


def test_sampler_probes_during_a_unit_and_restores_the_handler():
    import signal
    import time

    import reference

    previous = signal.getsignal(signal.SIGALRM)
    sampler = reference.Sampler()
    start = time.perf_counter()
    result, unit = sampler.time(lambda: sum(i * i for i in range(2_000_000)))
    elapsed = time.perf_counter() - start
    assert result == sum(i * i for i in range(2_000_000))
    assert signal.getsignal(signal.SIGALRM) is previous
    assert unit.probes >= 4  # one before, one after, several during
    assert 0 < unit.wall < 0.95 * elapsed  # probe time is not the unit's
    assert unit.norm_wall > 0 and unit.norm_cpu >= 0
    _, plain = reference.Sampler(probing=False).time(lambda: None)
    assert plain.probes == 0 and plain.norm_wall != plain.norm_wall  # NaN


def _rows():
    return [
        {"metric": "a", "value": 1.0, "unit": "s", "clock": "host", "n": 3},
        {"metric": "b", "value": 0, "unit": "count", "clock": "sim", "n": 1},
    ]


def test_result_table_check_accepts_complete_table():
    checks.verify_result_table(_rows(), key_column="metric",
                               other_columns=["value", "unit", "clock", "n"],
                               expected_keys=["a", "b"])


@pytest.mark.parametrize("broken", [
    lambda rows: rows[:1],                              # a metric missing
    lambda rows: rows + rows[:1],                       # a metric twice
    lambda rows: [dict(rows[0], unit=""), rows[1]],     # no unit
    lambda rows: [dict(rows[0], clock=None), rows[1]],  # no clock
    lambda rows: [{k: v for k, v in rows[0].items() if k != "n"}, rows[1]],  # no n
])
def test_result_table_check_rejects_incomplete_table(broken):
    with pytest.raises(ValueError):
        checks.verify_result_table(broken(_rows()), key_column="metric",
                                   other_columns=["value", "unit", "clock", "n"],
                                   expected_keys=["a", "b"])


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stdout
    expected = spec.PER_LAYER if trace else spec.END_TO_END
    assert list(result["metrics"]) == [m.name for m in expected]
    for m in expected:
        assert result["metrics"][m.name]["unit"] == m.unit
    printed = spec.PER_LAYER if trace else spec.END_TO_END + spec.OUTCOMES
    table = {line.split()[0] for line in lines[1:-1] if not line.startswith("FAILED")}
    assert {m.name for m in printed} <= table
    if trace:
        emits = result["metrics"]["obs.emits"]["value"]
        assert (emits > 0) == (workload in OBS_ON)


def test_run_without_program_fails_cleanly(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("burst-traced", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
