"""Sensitivity studies beyond the paper's figures (DESIGN.md §6):
replication factor (data redundancy feeds LTB's local provisioning) and
network bandwidth (cheap remote reads are why Fig. 8's remote-BU cost was
invisible on 10 Gbps Ethernet).
"""

import numpy as np
from conftest import bench_scale, save_result

from repro.cluster.network import GIGABIT, NetworkModel
from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.engines import run_job
from repro.experiments.report import render_table
from repro.workloads.puma import puma


def test_replication_factor_sweep(benchmark):
    """Replication 1 forces remote BU provisioning; 3 (default) gives LTB
    abundant local choices.  FlexMap degrades gracefully."""
    from repro.experiments.clusters import physical_cluster

    input_mb = 6144.0 * bench_scale()

    def run():
        out = {}
        for repl in (1, 2, 3):
            jcts, fracs = [], []
            for seed in (1, 2, 3):
                r = run_job(physical_cluster, puma("WC"), "flexmap", seed=seed,
                            input_mb=input_mb, replication=repl)
                maps = r.trace.maps()
                jcts.append(r.jct)
                fracs.append(sum(m.remote_mb for m in maps) / sum(m.size_mb for m in maps))
            out[repl] = (float(np.mean(jcts)), float(np.mean(fracs)))
        return out

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[k, v[0], v[1]] for k, v in data.items()]
    save_result(
        "sensitivity_replication",
        render_table("Sensitivity -- HDFS replication factor (FlexMap, wordcount)",
                     ["replication", "jct_s", "remote_frac"], rows, col_width=14),
    )
    # More replicas -> more local provisioning.
    assert data[3][1] < data[1][1]


def _hetero_cluster(network: NetworkModel) -> Cluster:
    speeds = [2.0, 1.8, 1.4, 1.0, 1.0, 1.0]
    nodes = [Node(f"x{i:02d}", base_speed=s, slots=4, exec_sigma=0.0)
             for i, s in enumerate(speeds)]
    return Cluster(nodes, network=network, name="net-sweep")


def test_network_bandwidth_sensitivity(benchmark):
    """On 1 Gbps, remote reads and shuffle get expensive: JCTs rise for
    both engines, and FlexMap's locality-preserving LTB keeps it ahead."""
    input_mb = 6144.0 * bench_scale()

    def run():
        out = {}
        for label, net in [("10Gbps", NetworkModel()), ("1Gbps", GIGABIT)]:
            for engine in ("hadoop-64", "flexmap"):
                r = run_job(lambda: _hetero_cluster(net), puma("TV"), engine,
                            seed=1, input_mb=input_mb)
                out[(label, engine)] = r.jct
        return out

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[net, eng, jct] for (net, eng), jct in data.items()]
    save_result(
        "sensitivity_network",
        render_table("Sensitivity -- network bandwidth (term-vector, 6-node hetero)",
                     ["network", "engine", "jct_s"], rows, col_width=14),
    )
    # Slower fabric never helps.
    assert data[("1Gbps", "hadoop-64")] >= data[("10Gbps", "hadoop-64")] * 0.98
    assert data[("1Gbps", "flexmap")] >= data[("10Gbps", "flexmap")] * 0.98


def test_failure_recovery_cost(benchmark):
    """Fault-tolerance bench: one node crash mid-map-phase; the engine
    re-executes lost work and the job still completes correctly."""
    from repro.cluster.failures import FailureSchedule
    from repro.experiments.clusters import heterogeneous6_cluster

    input_mb = 4096.0 * bench_scale()

    def run():
        out = {}
        for engine in ("hadoop-64", "flexmap"):
            clean = run_job(heterogeneous6_cluster, puma("WC"), engine,
                            seed=3, input_mb=input_mb)
            failed = run_job(heterogeneous6_cluster, puma("WC"), engine,
                             seed=3, input_mb=input_mb,
                             failures=FailureSchedule.single(60.0, "x01"))
            out[engine] = (clean.jct, failed.jct, failed.trace.data_processed_mb())
        return out

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[e, v[0], v[1], v[1] / v[0]] for e, v in data.items()]
    save_result(
        "failure_recovery",
        render_table("Fault tolerance -- one node crash at t=60s (wordcount)",
                     ["engine", "clean_jct", "failed_jct", "slowdown"], rows,
                     col_width=14),
    )
    for engine, (clean, failed, processed) in data.items():
        assert processed == np.float64(input_mb) or abs(processed - input_mb) < 1e-3
        assert failed >= clean * 0.98
