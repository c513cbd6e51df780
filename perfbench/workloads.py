"""The benchmark's three workloads: seeded inputs and one timed pass each.

Every workload is a function of its seed alone.  ``make_inputs(name, seed)``
builds the job list the program receives (submit times, benchmark, engine,
input MB, queue); ``run_pass(inputs, obs)`` drives the program once over
that list through its public API and returns a :class:`PassResult` holding
the per-job outcomes the output check and the simulated metrics need.

All three run in this one process with no worker pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from reference import Sampler, UnitTime

from repro.engines import run_job
from repro.experiments.clusters import multitenant_cluster, physical_cluster
from repro.multijob import ClusterService, JobRequest, TraceArrivals
from repro.obs import Observability
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.workloads.puma import puma

@dataclass(frozen=True)
class Job:
    """One job of a workload's input list."""

    submit_time: float
    benchmark: str
    engine: str
    input_mb: float
    queue: str = "default"
    stream: int = 0  # a service workload runs each stream as its own service


@dataclass(frozen=True)
class Inputs:
    """A workload's generated inputs plus how to drive them."""

    workload: str
    seed: int  # also the program's ``seed=``
    jobs: tuple[Job, ...]
    mode: str  # "service" (one ClusterService) | "batch" (one run_job per job)
    cluster: str
    policy: str = "fair"
    queues: tuple[tuple[str, float], ...] = ()
    obs: bool = False


@dataclass
class JobResult:
    """One finished simulated job, as the output check sees it."""

    job: Job
    trace: object  # repro.sim.trace.JobTrace
    num_reducers: int


@dataclass
class PassResult:
    """Everything one pass over a workload's inputs produced."""

    jobs: list[JobResult]
    events: int
    sim_makespan_s: float
    slot_seconds: float  # cluster slots x the simulated time they were held
    failures: list[str] = field(default_factory=list)
    units: list[UnitTime] = field(default_factory=list)  # one per unit of work


_CLUSTERS = {
    "physical": physical_cluster,
    "multitenant40": lambda: multitenant_cluster(0.4),
}


def cluster_factory(name: str):
    """Fresh-cluster builder for one of the benchmark's clusters."""
    return _CLUSTERS[name]


def _rng(workload: str, seed: int, stream: int) -> np.random.Generator:
    """Input generator for one stream of one workload; independent of
    every other one."""
    tag = int.from_bytes(workload.encode("utf-8")[:8], "big")
    return np.random.default_rng(np.random.SeedSequence([seed, tag, stream]))


def _poisson_stream(rng: np.random.Generator, n: int, rate: float,
                    stream: int) -> tuple[Job, ...]:
    """``n`` open-loop arrivals at ``rate`` jobs/s over the FlexMap/Hadoop mix.

    The gaps are the ``n`` exponential quantiles in a seeded order
    (stratified sampling) and every benchmark x engine pair appears equally
    often, so each seed offers the same load and moves only the order.
    """
    quantiles = (np.arange(n) + 0.5) / n
    times = np.cumsum(rng.permutation(-np.log1p(-quantiles) / rate))
    mix = [(b, e) for b in ("WC", "GR", "HR", "HM") for e in ("flexmap", "hadoop-64")]
    jobs = []
    for t, k in zip(times, rng.permutation(n)):
        bench, engine = mix[k % len(mix)]
        jobs.append(Job(float(t), bench, engine, puma(bench).small_gb * 1024.0 * 0.125,
                        stream=stream))
    return tuple(jobs)


def _serve_poisson(seed: int) -> Inputs:
    # Two independent open-loop Poisson streams of 192 jobs at 0.06 jobs/s
    # on the physical cluster, each its own service, past capacity: about
    # 27 AMs live at once on one RM and one shared SpeedMonitor, so host
    # time spreads over the event loop, offer rounds, the fair policy, the
    # service loop, speculation, SpeedMonitor and FlexMap sizing.  Past
    # capacity the backlog grows steadily; still, one stream's host time
    # moved 7-8% (interquartile range over median, 10 seeds) from seed to
    # seed, so a pass pools two.  Near capacity, or on the virtual
    # cluster's moving hotspots, one stream's host work moves ~20%.
    streams = [_poisson_stream(_rng("serve-poisson", seed, k), 192, 0.06, k)
               for k in range(2)]
    return Inputs("serve-poisson", seed, streams[0] + streams[1], "service", "physical")


def _fig8_slow40(seed: int) -> Inputs:
    # The Fig. 8 slice at 40% slowed nodes: one job at a time, so the
    # straggler logic (speculation rescans, reduce backups, SkewTune victim
    # choice) dominates and the multi-job layers sit idle.
    jobs = []
    for bench in ("WC", "KM", "TS"):
        input_mb = puma(bench).large_gb * 1024.0 * 0.0625
        for engine in ("hadoop-64", "hadoop-nospec-64", "skewtune-64", "flexmap"):
            jobs.append(Job(0.0, bench, engine, input_mb))
    return Inputs("fig8-slow40", seed, tuple(jobs), "batch", "multitenant40")


def _burst_traced(seed: int) -> Inputs:
    # 120 jobs at t=0: every AM ticks on one 5 s grid, so heartbeat
    # coalescing has the most to merge; capacity queues instead of fair
    # share; obs on with the JSONL trace written to a file, so obs-layer
    # costs show here and nowhere else.  Engines, benchmarks and queues
    # ("prod" at weight 3, "batch" at weight 1) go round robin and the seed
    # drives the simulator.  A seeded queue assignment moved the events of
    # one pass 4% (interquartile range over median, 8 seeds) against 1.6%
    # round robin, and the host time with them.
    engines = ("hadoop-64", "hadoop-128", "hadoop-nospec-64", "skewtune-64", "flexmap")
    benches = ("WC", "II", "TV", "GR", "KM", "HR", "HM", "TS")
    jobs = []
    for i in range(120):
        bench = benches[(i // len(engines)) % len(benches)]
        engine = engines[i % len(engines)]
        input_mb = puma(bench).small_gb * 1024.0 * 0.125
        jobs.append(Job(0.0, bench, engine, input_mb, ("prod", "batch")[i % 2]))
    return Inputs(
        "burst-traced", seed, tuple(jobs), "service", "physical", "capacity",
        queues=(("prod", 3.0), ("batch", 1.0)), obs=True,
    )


_MAKERS = {
    "serve-poisson": _serve_poisson,
    "fig8-slow40": _fig8_slow40,
    "burst-traced": _burst_traced,
}


def make_inputs(workload: str, seed: int) -> Inputs:
    """The workload's job list for ``seed`` (same seed, same list)."""
    return _MAKERS[workload](seed)


def build_service(inputs: Inputs, obs=None) -> ClusterService:
    """Construct (not run) the ClusterService of one stream of a service
    workload (``inputs.jobs`` all of that stream)."""
    requests = [
        JobRequest(
            submit_time=j.submit_time,
            workload=puma(j.benchmark),
            engine=j.engine,
            input_mb=j.input_mb,
            queue=j.queue,
        )
        for j in inputs.jobs
    ]
    return ClusterService(
        cluster_factory(inputs.cluster),
        TraceArrivals(requests),
        policy=inputs.policy,
        seed=inputs.seed,
        queues=dict(inputs.queues) or None,
        obs=obs,
    )


def build_first(inputs: Inputs) -> object:
    """Build what the first simulation needs before its first event: the
    ClusterService of a service workload's first stream, or the simulator
    and installed cluster of a batch workload.  Used to time set-up."""
    if inputs.mode == "service":
        return build_service(_streams(inputs)[0])
    sim = Simulator()
    cluster = cluster_factory(inputs.cluster)()
    cluster.install(sim, RandomStreams(inputs.seed))
    return sim, cluster


def run_pass(inputs: Inputs, trace_path=None, probing: bool = True) -> PassResult:
    """Drive the program once over ``inputs``.

    Workloads with obs on write their JSONL trace to ``trace_path`` as
    ``repro serve --trace-out`` does.  Each unit of work (the service run,
    or one job of a batch) is timed on its own by a :class:`Sampler`, host
    wall and CPU seconds, including closing its trace file; ``probing``
    says whether it also normalises them to the machine's speed.
    """
    sampler = Sampler(probing)
    total = PassResult([], 0, 0.0, 0.0)
    if inputs.mode == "service":
        # Streams are independent runs, pooled like the jobs of a batch.
        for stream in _streams(inputs):
            part = _run_service(stream, trace_path, sampler)
            total.jobs += part.jobs
            total.events += part.events
            total.sim_makespan_s += part.sim_makespan_s
            total.slot_seconds += part.slot_seconds
            total.failures += part.failures
            total.units += part.units
        return total
    for job in inputs.jobs:
        result, unit = sampler.time(lambda job=job: run_job(
            cluster_factory(inputs.cluster), puma(job.benchmark), job.engine,
            seed=inputs.seed, input_mb=job.input_mb,
        ))
        total.units.append(unit)
        # A batch runs its jobs back to back, each on a whole cluster.
        total.jobs.append(JobResult(job, result.trace, result.job.num_reducers))
        total.events += result.am.sim.events_processed
        total.sim_makespan_s += result.jct
        total.slot_seconds += result.am.cluster.total_slots * result.jct
    return total


def _streams(inputs: Inputs) -> list[Inputs]:
    """A service workload split into its streams, in stream order."""
    keys = sorted({j.stream for j in inputs.jobs})
    return [replace(inputs, jobs=tuple(j for j in inputs.jobs if j.stream == k))
            for k in keys]


def _serve(inputs: Inputs, trace_path):
    obs = Observability.for_files(trace_path=trace_path) if inputs.obs else None
    service = build_service(inputs, obs=obs)
    result = service.run(compute_slowdown=False)
    if obs is not None:
        obs.close()
    return service, result


def _run_service(inputs: Inputs, trace_path, sampler: Sampler) -> PassResult:
    (service, result), unit = sampler.time(lambda: _serve(inputs, trace_path))
    # TraceArrivals orders requests by submit time (stable), and outcomes
    # come back in completion order: match each outcome to its request
    # through the job id, which numbers submissions in arrival order.
    by_submit = sorted(inputs.jobs, key=lambda j: j.submit_time)
    jobs = []
    failures = []
    for outcome in result.outcomes:
        job = by_submit[int(outcome.job_id.lstrip("j"))]
        if (outcome.benchmark, outcome.engine) != (job.benchmark, job.engine):
            failures.append(f"{outcome.job_id}: ran {outcome.benchmark}/{outcome.engine}")
        jobs.append(JobResult(job, outcome.trace, puma(job.benchmark).num_reducers))
    finishes = [o.finish_time for o in result.outcomes]
    submits = [o.submit_time for o in result.outcomes]
    makespan = max(finishes) - min(submits) if finishes else math.nan
    slots = service.cluster.total_slots
    return PassResult(
        jobs, result.events_processed, makespan, slots * makespan, failures, [unit]
    )
