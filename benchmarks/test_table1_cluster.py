"""Table I — hardware configuration of the heterogeneous physical cluster.

Regenerates the machine-catalogue table and benchmarks how fast the
simulator stands up and drives the Table I cluster.
"""

from conftest import save_result

from repro.cluster.machines import MACHINE_CATALOG, total_machines
from repro.engines import run_job
from repro.experiments.clusters import physical_cluster
from repro.experiments.report import render_table
from repro.workloads.puma import puma


def test_table1_machine_catalog(benchmark):
    def build():
        return physical_cluster()

    cluster = benchmark(build)
    rows = [
        [m.model, m.cpu, m.memory_gb, m.disk_tb, m.count, m.speed, m.slots]
        for m in MACHINE_CATALOG
    ]
    text = render_table(
        "Table I -- heterogeneous physical cluster (speed/slots are model params)",
        ["model", "cpu", "mem_gb", "disk_tb", "count", "speed", "slots"],
        rows,
        col_width=26,
    )
    save_result("table1_cluster", text)
    assert total_machines() == 12
    assert len(cluster) == 11  # one machine is the RM/NameNode
    assert cluster.fastest_speed() / cluster.slowest_speed() > 2.0


def test_table1_cluster_drives_a_job(benchmark):
    def run():
        return run_job(physical_cluster, puma("HR"), "hadoop-64", seed=1, input_mb=1024.0)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.trace.data_processed_mb() > 0
