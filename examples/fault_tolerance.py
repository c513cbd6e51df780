"""Fault tolerance: crash a worker node mid-job and watch the engine
re-provision the lost work, visualized as an ASCII Gantt chart.

    python examples/fault_tolerance.py [engine=flexmap] [crash_t=60]
"""

import sys

from repro.cluster.failures import FailureSchedule
from repro.engines import run_job
from repro.experiments.clusters import heterogeneous6_cluster
from repro.viz.ascii import gantt
from repro.workloads.puma import puma


def main() -> None:
    engine = sys.argv[1] if len(sys.argv) > 1 else "flexmap"
    crash_t = float(sys.argv[2]) if len(sys.argv) > 2 else 60.0
    input_mb = 3072.0

    clean = run_job(heterogeneous6_cluster, puma("WC"), engine, seed=3,
                    input_mb=input_mb)
    failed = run_job(heterogeneous6_cluster, puma("WC"), engine, seed=3,
                     input_mb=input_mb,
                     failures=FailureSchedule.single(crash_t, "x01"))

    print(f"{engine}: clean JCT {clean.jct:.1f}s; with node x01 crashing at "
          f"t={crash_t:g}s: {failed.jct:.1f}s "
          f"(+{(failed.jct / clean.jct - 1) * 100:.0f}%)")
    print(f"input fully processed: {failed.trace.data_processed_mb():.0f} MB "
          f"of {input_mb:.0f} MB\n")
    print("task timeline (m/M = small/large map, r = reduce, x = killed):")
    print(gantt(failed.trace))
    print("\nNode x01's row stops at the crash; its in-flight work reappears")
    print("on the surviving nodes (re-provisioned from HDFS replicas).")


if __name__ == "__main__":
    main()
