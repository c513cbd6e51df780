"""Iterative (Spark-style) workloads — the paper's §IV-G extensibility claim.

Spark tasks form their processing data mostly from local input blocks
(the paper measured <5% shuffled in ML apps), so an iterative job is
modelled as N successive map-dominated phases over the same cached input on
one live cluster (interference keeps evolving across iterations).  The
paper argues stragglers are *exacerbated* across iterations for stock
engines, while FlexMap's elastic sizing applies directly — and, because the
SpeedMonitor/DynamicSizer state can be carried over, later iterations skip
the sizing ramp entirely (warm start).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.cluster.topology import Cluster
from repro.core.sizing import DynamicSizer, SizingConfig
from repro.core.speed_monitor import SpeedMonitor
from repro.engines.base import AMConfig
from repro.engines.flexmap import FlexMapAM
from repro.engines.registry import EngineSpec, resolve_engine
from repro.hdfs.namenode import NameNode
from repro.mapreduce.job import JobSpec
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.sim.trace import JobTrace
from repro.workloads.spec import WorkloadSpec
from repro.yarn.resource_manager import ResourceManager


@dataclass
class IterativeResult:
    """Per-iteration outcomes of one iterative run."""

    engine: str
    iteration_jcts: list[float] = field(default_factory=list)
    traces: list[JobTrace] = field(default_factory=list)

    @property
    def total_s(self) -> float:
        return float(sum(self.iteration_jcts))

    def ramp_ratio(self) -> float:
        """First-iteration time over mean of the remaining iterations —
        the warm-start payoff is this ratio exceeding 1 for FlexMap."""
        if len(self.iteration_jcts) < 2:
            return 1.0
        rest = float(np.mean(self.iteration_jcts[1:]))
        return self.iteration_jcts[0] / rest if rest > 0 else 1.0


def run_iterative_job(
    cluster_factory: Callable[[], Cluster],
    workload: WorkloadSpec | JobSpec,
    engine: str | EngineSpec,
    iterations: int = 5,
    seed: int = 0,
    input_mb: float | None = None,
    warm_start: bool = True,
    replication: int = 3,
) -> IterativeResult:
    """Run ``iterations`` map-dominated phases over the same cached input.

    The cluster (and its interference process) lives across iterations.
    For FlexMap engines with ``warm_start``, the SpeedMonitor and
    DynamicSizer persist between iterations.
    """
    if iterations < 1:
        raise ValueError(f"need at least one iteration: {iterations}")
    spec = resolve_engine(engine)
    sim = Simulator()
    streams = RandomStreams(seed)
    cluster = cluster_factory()
    cluster.install(sim, streams)

    if isinstance(workload, WorkloadSpec):
        base_job = workload.job(input_mb=input_mb)
    else:
        base_job = workload if input_mb is None else workload.scaled(input_mb)
    # Iterations are map-dominated: per-iteration shuffle is tiny (§IV-G).
    job = JobSpec(
        name=f"{base_job.name}-iter",
        input_mb=base_job.input_mb,
        map_cost_s_per_mb=base_job.map_cost_s_per_mb,
        shuffle_ratio=min(base_job.shuffle_ratio, 0.05),
        reduce_cost_s_per_mb=base_job.reduce_cost_s_per_mb,
        num_reducers=min(base_job.num_reducers, 4),
        input_file=base_job.input_file,
    )

    namenode = NameNode(
        [n.node_id for n in cluster.nodes],
        replication=replication,
        rng=streams.stream("placement"),
    )
    num_blocks = int(np.ceil(job.input_mb / spec.block_size_mb))
    factors = (
        workload.cost_factors(num_blocks, streams.stream("skew"))
        if isinstance(workload, WorkloadSpec)
        else None
    )
    namenode.create_file(job.input_file, job.input_mb, spec.block_size_mb, factors)

    config = AMConfig(block_size_mb=spec.block_size_mb)
    result = IterativeResult(engine=spec.name)
    carried_monitor: SpeedMonitor | None = None
    carried_sizer: DynamicSizer | None = None
    for _ in range(iterations):
        rm = ResourceManager(sim, cluster, rng=streams.stream("rm-offers"))
        kwargs = dict(spec.kwargs)
        if warm_start and spec.factory is FlexMapAM and carried_monitor is not None:
            kwargs["monitor"] = carried_monitor
            kwargs["sizer"] = carried_sizer
        am = spec.factory(sim, cluster, rm, namenode, job, streams, config, **kwargs)
        trace = am.run_to_completion()
        result.iteration_jcts.append(trace.jct)
        result.traces.append(trace)
        if isinstance(am, FlexMapAM):
            carried_monitor = am.monitor
            carried_sizer = am.sizer
    return result
