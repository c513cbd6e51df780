"""Offer rounds: an AM in its tail decides an offer once per offer round.

In its tail (no map work pending, no reducer waiting) an AM declines an
offer without looking at the offered node, so after one decline it
declines the rest of the offer round without rescanning its stragglers.
These tests pin that the shortcut changes no result (the JSONL trace is
byte-identical with the memo defeated) and that it saves the work it is
there to save.
"""

from __future__ import annotations

import pytest

from repro.cli import CLUSTERS
from repro.cluster.failures import FailureSchedule, NodeFailure
from repro.engines import ApplicationMaster, engine_names, run_job
from repro.engines.straggler import StragglerEstimator
from repro.multijob.arrivals import PoissonArrivals
from repro.multijob.service import ClusterService
from repro.obs import Observability, read_trace
from repro.sim.random import RandomStreams
from repro.workloads.puma import puma
from repro.yarn.resource_manager import ResourceManager

MULTITENANT40 = CLUSTERS["multitenant40"]
WC_2GB = 2048.0
# Mid map phase, FlexMap's last wave, and SkewTune's last wave.
FAILURES = FailureSchedule([
    NodeFailure(20.0, "mt05"),
    NodeFailure(65.0, "mt17"),
    NodeFailure(120.0, "mt29"),
])


@pytest.fixture
def memo_defeated(monkeypatch):
    """Forget the last tail decline before every offer, so each offer is
    decided by a full scan, as before the memo existed."""
    on_container = ApplicationMaster.on_container

    def rescanning(am, container):
        am._tail_decline = None
        return on_container(am, container)

    monkeypatch.setattr(ApplicationMaster, "on_container", rescanning)


def _run_traced(path, engine, failures=None) -> bytes:
    obs = Observability.for_files(trace_path=path)
    run_job(MULTITENANT40, puma("WC"), engine, seed=7, input_mb=WC_2GB,
            failures=failures, obs=obs)
    obs.close()
    return path.read_bytes()


def _serve_traced(path) -> bytes:
    arrivals = PoissonArrivals(
        rate=0.05,
        n_jobs=10,
        rng=RandomStreams(3).stream("arrivals"),
        benchmarks=("WC", "GR", "HR"),
        engines=tuple(engine_names()),
        input_scale=0.125,
    )
    obs = Observability.for_files(trace_path=path)
    ClusterService(CLUSTERS["physical"], arrivals, policy="fair", seed=3,
                   obs=obs).run(compute_slowdown=False)
    obs.close()
    return path.read_bytes()


@pytest.mark.parametrize("engine", engine_names())
def test_memo_leaves_single_job_trace_byte_identical(engine, tmp_path, request):
    memo = _run_traced(tmp_path / "memo.jsonl", engine)
    request.getfixturevalue("memo_defeated")
    rescan = _run_traced(tmp_path / "rescan.jsonl", engine)
    assert memo == rescan


@pytest.mark.parametrize("engine", ["flexmap", "skewtune-64"])
def test_memo_leaves_trace_byte_identical_under_node_failures(engine, tmp_path, request):
    memo = _run_traced(tmp_path / "memo.jsonl", engine, FAILURES)
    request.getfixturevalue("memo_defeated")
    rescan = _run_traced(tmp_path / "rescan.jsonl", engine, FAILURES)
    assert memo == rescan
    # Not vacuous: some crash took down running attempts.
    crashes = [e for e in read_trace(tmp_path / "memo.jsonl") if e["ev"] == "node_failure"]
    assert len(crashes) == 3
    assert any(e["running_maps"] or e["running_reduces"] for e in crashes)


def test_memo_leaves_mixed_engine_service_trace_byte_identical(tmp_path, request):
    memo = _serve_traced(tmp_path / "memo.jsonl")
    request.getfixturevalue("memo_defeated")
    rescan = _serve_traced(tmp_path / "rescan.jsonl")
    assert memo == rescan


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
    # scan per declined offer, as before the memo, exceeds this bound 8-20x.
    run_job(MULTITENANT40, puma("TS"), engine, seed=7, input_mb=2048.0)
    assert counts["candidates"] > 0  # the tail really was scanned
    assert counts["candidates"] <= counts["rounds"] + counts["grants"]
