"""Ablations (beyond the paper, DESIGN.md §6): FlexMap with one mechanism
disabled at a time, plus sizing-parameter sensitivity."""

from conftest import bench_scale, save_result

from repro.engines import EngineSpec, run_job
from repro.engines.flexmap import FlexMapAM
from repro.core.sizing import SizingConfig
from repro.experiments.clusters import physical_cluster
from repro.experiments.figures import ablation_study
from repro.experiments.report import render_table
from repro.workloads.puma import puma


def test_flexmap_mechanism_ablation(benchmark):
    input_mb = 8192.0 * bench_scale()

    def run():
        return ablation_study(input_mb=input_mb, seeds=[1, 2], benchmark="WC")

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    base = data["flexmap"]
    rows = [[k, v, v / base] for k, v in data.items()]
    save_result(
        "ablation_mechanisms",
        render_table("Ablation -- FlexMap variants, wordcount on the physical cluster",
                     ["variant", "jct_s", "vs_full"], rows, col_width=16),
    )
    # Disabling vertical scaling pins tasks near one BU: overhead explodes.
    assert data["no-vertical"] > base * 0.9


def test_bu_size_sensitivity(benchmark):
    """BU size sweep: smaller BUs balance finer but pay more per-task
    overhead during the ramp; 8 MB (the paper's choice) is a good middle."""
    input_mb = 8192.0 * bench_scale()

    def run():
        out = {}
        for bu in (4.0, 8.0, 16.0, 32.0):
            spec = EngineSpec(
                f"flexmap-bu{int(bu)}", bu, FlexMapAM,
                {"sizing": SizingConfig(bu_mb=bu)},
            )
            r = run_job(physical_cluster, puma("WC"), spec, seed=1, input_mb=input_mb)
            out[bu] = r.jct
        return out

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[f"{int(k)}MB", v] for k, v in data.items()]
    save_result(
        "ablation_bu_size",
        render_table("Sensitivity -- block-unit size (wordcount, physical cluster)",
                     ["bu_size", "jct_s"], rows),
    )
    assert all(v > 0 for v in data.values())
