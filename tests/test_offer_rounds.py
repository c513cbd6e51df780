"""Offer rounds: the RM stops offering a round's slots to an AM that
declined in its tail, and ranks candidates only when a round starts
offering and after each grant.

In its tail (no map work pending, no reducer waiting) an AM declines an
offer without looking at the offered node, so after one decline it would
decline the rest of the offer round.  These tests pin that closing the
round to it changes no result (the JSONL trace is byte-identical with the
closure defeated) and that it saves the work it is there to save.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cli import CLUSTERS
from repro.cluster.failures import FailureSchedule, NodeFailure
from repro.engines import ApplicationMaster, engine_names, run_job
from repro.engines.straggler import StragglerEstimator
from repro.multijob.arrivals import JobRequest, PoissonArrivals, TraceArrivals
from repro.multijob.policies import CapacityPolicy
from repro.multijob.service import ClusterService
from repro.obs import Observability, read_trace
from repro.sim.random import RandomStreams
from repro.workloads.puma import puma
from repro.yarn.resource_manager import ResourceManager
from tests.conftest import make_cluster

MULTITENANT40 = CLUSTERS["multitenant40"]
WC_2GB = 2048.0
QUEUES = {"prod": 3.0, "batch": 1.0}
# Mid map phase, FlexMap's last wave, and SkewTune's last wave.
FAILURES = FailureSchedule([
    NodeFailure(20.0, "mt05"),
    NodeFailure(65.0, "mt17"),
    NodeFailure(120.0, "mt29"),
])


@pytest.fixture
def closure_defeated(monkeypatch):
    """Keep every AM out of its tail as the RM sees it, so no AM ever
    leaves a round's candidates and each offer is decided by a full scan."""
    monkeypatch.setattr(ApplicationMaster, "in_tail", lambda am: False)


def _run_traced(path, engine, failures=None) -> bytes:
    obs = Observability.for_files(trace_path=path)
    run_job(MULTITENANT40, puma("WC"), engine, seed=7, input_mb=WC_2GB,
            failures=failures, obs=obs)
    obs.close()
    return path.read_bytes()


def _serve_traced(path, policy) -> bytes:
    poisson = PoissonArrivals(
        rate=0.05,
        n_jobs=10,
        rng=RandomStreams(3).stream("arrivals"),
        benchmarks=("WC", "GR", "HR"),
        engines=tuple(engine_names()),
        input_scale=0.125,
    )
    # Alternate two capacity queues, so capacity ranks by whole-queue usage.
    arrivals = TraceArrivals([
        dataclasses.replace(request, queue=("prod", "batch")[i % 2])
        for i, request in enumerate(poisson.initial())
    ])
    obs = Observability.for_files(trace_path=path)
    ClusterService(CLUSTERS["physical"], arrivals, policy=policy, queues=QUEUES,
                   seed=3, obs=obs).run(compute_slowdown=False)
    obs.close()
    return path.read_bytes()


@pytest.mark.parametrize("engine", engine_names())
def test_round_closure_leaves_single_job_trace_byte_identical(engine, tmp_path, request):
    closed = _run_traced(tmp_path / "closed.jsonl", engine)
    request.getfixturevalue("closure_defeated")
    rescan = _run_traced(tmp_path / "rescan.jsonl", engine)
    assert closed == rescan


@pytest.mark.parametrize("engine", ["flexmap", "skewtune-64"])
def test_round_closure_leaves_trace_byte_identical_under_node_failures(engine, tmp_path, request):
    closed = _run_traced(tmp_path / "closed.jsonl", engine, FAILURES)
    request.getfixturevalue("closure_defeated")
    rescan = _run_traced(tmp_path / "rescan.jsonl", engine, FAILURES)
    assert closed == rescan
    # Not vacuous: some crash took down running attempts.
    crashes = [e for e in read_trace(tmp_path / "closed.jsonl") if e["ev"] == "node_failure"]
    assert len(crashes) == 3
    assert any(e["running_maps"] or e["running_reduces"] for e in crashes)


@pytest.mark.parametrize("policy", ["fifo", "fair", "capacity"])
def test_round_closure_leaves_mixed_engine_service_trace_byte_identical(policy, tmp_path, request):
    closed = _serve_traced(tmp_path / "closed.jsonl", policy)
    request.getfixturevalue("closure_defeated")
    rescan = _serve_traced(tmp_path / "rescan.jsonl", policy)
    assert closed == rescan


@pytest.mark.parametrize("engine", ["hadoop-64", "skewtune-64", "flexmap"])
def test_straggler_scans_at_most_once_per_round_and_grant(engine, monkeypatch):
    counts = {"candidates": 0, "rounds": 0, "grants": 0}
    candidates = StragglerEstimator.candidates
    offer_round = ResourceManager._offer_round
    on_container = ApplicationMaster.on_container

    def counted_candidates(*args, **kwargs):
        counts["candidates"] += 1
        return candidates(*args, **kwargs)

    def counted_round(rm):
        counts["rounds"] += 1
        return offer_round(rm)

    def counted_offer(am, container):
        accepted = on_container(am, container)
        counts["grants"] += accepted
        return accepted

    monkeypatch.setattr(StragglerEstimator, "candidates", staticmethod(counted_candidates))
    monkeypatch.setattr(ResourceManager, "_offer_round", counted_round)
    monkeypatch.setattr(ApplicationMaster, "on_container", counted_offer)
    # TeraSort's reduce tail is scanned by reduce speculation as well.  One
    # scan per declined offer exceeds this bound 8-20x.
    run_job(MULTITENANT40, puma("TS"), engine, seed=7, input_mb=2048.0)
    assert counts["candidates"] > 0  # the tail really was scanned
    assert counts["candidates"] <= counts["rounds"] + counts["grants"]


@pytest.mark.parametrize("engine", ["hadoop-64", "skewtune-64", "flexmap"])
def test_tail_offers_at_most_once_per_round_and_grant(engine, monkeypatch):
    counts = {"tail_offers": 0, "rounds": 0, "grants": 0}
    offer_round = ResourceManager._offer_round
    on_container = ApplicationMaster.on_container

    def counted_round(rm):
        counts["rounds"] += 1
        return offer_round(rm)

    def counted_offer(am, container):
        counts["tail_offers"] += am.in_tail()
        accepted = on_container(am, container)
        counts["grants"] += accepted
        return accepted

    monkeypatch.setattr(ResourceManager, "_offer_round", counted_round)
    monkeypatch.setattr(ApplicationMaster, "on_container", counted_offer)
    # Offering every free slot of a round to a declining tail AM exceeds
    # this bound about 15x.
    run_job(MULTITENANT40, puma("TS"), engine, seed=7, input_mb=2048.0)
    assert counts["tail_offers"] > 0
    assert counts["tail_offers"] <= counts["rounds"] + counts["grants"]


def test_capacity_policy_ranks_at_most_once_per_round_and_grant(monkeypatch):
    counts = {"orders": 0, "rounds": 0}
    order = CapacityPolicy.order
    offer_round = ResourceManager._offer_round

    def counted_order(policy):
        counts["orders"] += 1
        return order(policy)

    def counted_round(rm):
        counts["rounds"] += 1
        return offer_round(rm)

    monkeypatch.setattr(CapacityPolicy, "order", counted_order)
    monkeypatch.setattr(ResourceManager, "_offer_round", counted_round)
    # Four jobs at t=0 over three engines and two queues on 16 nodes: the
    # jobs' tails leave many free slots that every AM declines.
    arrivals = TraceArrivals([
        JobRequest(0.0, puma(bench), engine, input_mb=512.0, queue=("prod", "batch")[i % 2])
        for i, (bench, engine) in enumerate([("WC", "flexmap"), ("TS", "hadoop-64"),
                                             ("GR", "skewtune-64"), ("WC", "flexmap")])
    ])
    speeds = tuple((1.0, 2.0, 0.6)[i % 3] for i in range(16))
    service = ClusterService(lambda: make_cluster(speeds=speeds, slots=2),
                             arrivals, policy="capacity", queues=QUEUES, seed=2)
    service.run(compute_slowdown=False)
    # Re-ranking per free slot offered exceeds this bound about 2x.
    assert counts["orders"] > 0
    assert counts["orders"] <= counts["rounds"] + service.rm.containers_granted
