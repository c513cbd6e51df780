"""Golden-trace regression: single-job runs are byte-identical to pre-PR.

The reference traces under ``tests/data/`` were captured before the
multi-job RM generalization.  A single registered AM must take exactly the
historical code path — same offer order, same sizing, same event stream —
so re-running the same configuration must reproduce the golden JSONL files
byte for byte.  Any diff here means a refactor changed single-job
behaviour, which the multi-job work explicitly promises not to do.
"""

from pathlib import Path

from repro.engines import run_job
from repro.experiments.clusters import heterogeneous6_cluster
from repro.obs import JsonlTraceEmitter, Observability
from repro.workloads.puma import puma

GOLDEN_DIR = Path(__file__).parent / "data"

GOLDENS = {
    "flexmap": "golden_single_flexmap.jsonl",
    "hadoop-64": "golden_single_hadoop64.jsonl",
}


def _run_traced(engine: str, out_path: Path) -> float:
    with Observability(trace=JsonlTraceEmitter(out_path)) as obs:
        result = run_job(
            heterogeneous6_cluster,
            puma("WC"),
            engine,
            seed=3,
            input_mb=512.0,
            obs=obs,
        )
    return result.jct


def test_single_job_traces_match_goldens(tmp_path):
    for engine, golden_name in GOLDENS.items():
        golden = GOLDEN_DIR / golden_name
        fresh = tmp_path / golden_name
        _run_traced(engine, fresh)
        assert fresh.read_bytes() == golden.read_bytes(), (
            f"{engine} single-job trace diverged from {golden_name}; "
            "single-job behaviour must stay byte-identical"
        )


def test_single_job_trace_is_stable_across_runs(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    jct_a = _run_traced("flexmap", a)
    jct_b = _run_traced("flexmap", b)
    assert jct_a == jct_b
    assert a.read_bytes() == b.read_bytes()
