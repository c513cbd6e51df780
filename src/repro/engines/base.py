"""ApplicationMaster: the job driver every engine shares.

The AM owns the lifecycle common to all engines — accepting container
offers, launching map and reduce attempts, tracking the map ->
shuffle/reduce phase transition and the LATE-style reduce backup race.  The
one collaborator it keeps is :class:`TraceRecorder`, which owns the
:class:`~repro.sim.trace.JobTrace`, the structured observability emissions
and the per-AM :class:`~repro.engines.straggler.StragglerEstimator`.

Engines subclass :class:`ApplicationMaster` and override the small
strategy hooks: ``prepare_maps``, ``select_map``, ``maps_pending``,
``on_map_complete``, ``select_reduce_node_ok``, ``on_tick`` and
``requeue_map``.

The lifecycle methods (``_launch_map``, ``_map_finished``,
``finalize_stopped_map``, ``_finish_job``, ``on_node_failure``,
``prepare_maps``, ``requeue_map``) are AM instance methods, and every
internal call site — the attempts' ``on_complete`` callbacks included —
routes through ``self``, so the ``repro.check`` checkers and mutation
self-tests can wrap them on the instance.

Reducers are launched after the map phase completes (slowstart = 1.0, the
conservative Hadoop setting; the paper's analysis treats the phases as
sequential).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cluster.topology import Cluster
from repro.engines.straggler import StragglerEstimator
from repro.hdfs.namenode import NameNode
from repro.mapreduce.attempt import TaskAttempt
from repro.mapreduce.job import JobSpec
from repro.mapreduce.shuffle import IntermediateStore
from repro.mapreduce.split import InputSplit
from repro.obs import Observability
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.sim.trace import JobTrace
from repro.yarn.container import Container
from repro.yarn.heartbeat import HeartbeatService
from repro.yarn.overhead import OverheadModel
from repro.yarn.resource_manager import ResourceManager

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.trace import TaskRecord


@dataclass(frozen=True)
class AMConfig:
    """Settings shared by every engine."""

    block_size_mb: float = 64.0  # split size for fixed-size engines
    overhead: OverheadModel = field(default_factory=OverheadModel)
    heartbeat_period_s: float = 5.0
    obs: Observability | None = None  # structured tracing/metrics (off = None)


@dataclass
class MapAssignment:
    """A map task ready to launch on a granted container."""

    task_id: str
    split: InputSplit
    wave: int = 0
    speculative: bool = False
    extra_transfer_s: float = 0.0  # e.g. SkewTune repartition I/O
    alg1_bus: int = 0  # FlexMap: Algorithm 1's size before the tail cap


class TraceRecorder:
    """Owns the job trace and every structured observability emission.

    Collaborator of :class:`ApplicationMaster`: the AM reports lifecycle
    milestones here, and the recorder writes the
    :class:`~repro.sim.trace.JobTrace` plus (when observability is
    attached) the typed JSONL trace events and metric counters.  Keeping
    all emission in one object guarantees a run without ``obs`` pays
    nothing and that refactors cannot reorder the event stream.
    """

    def __init__(self, am: "ApplicationMaster") -> None:
        self.am = am
        self.trace = JobTrace(job_id=am.job.name)
        self.stragglers = StragglerEstimator()

    @property
    def obs(self) -> Observability | None:
        """The AM's observability bundle (None when disabled)."""
        return self.am.obs

    # -- record bookkeeping --------------------------------------------
    def add(self, record: "TaskRecord") -> None:
        """Append a finished/killed attempt record to the job trace and
        feed it to the straggler estimator."""
        self.trace.add(record)
        self.stragglers.add(record)

    # -- job lifecycle --------------------------------------------------
    def job_submitted(self) -> None:
        """Stamp the submit time and emit ``job_start``."""
        am = self.am
        self.trace.submit_time = am.sim.now
        if self.obs is not None:
            self.obs.trace.emit(
                "job_start", am.sim.now, job=am.job.name, engine=am.engine_name
            )

    def job_finished(self) -> None:
        """Stamp the finish time and emit ``job_end``."""
        am = self.am
        self.trace.finish_time = am.sim.now
        if self.obs is not None:
            am.sim.record_obs()
            self.obs.trace.emit(
                "job_end", am.sim.now,
                jct=round(self.trace.jct, 3),
                maps=len(self.trace.maps()),
                reduces=len(self.trace.reduces()),
            )

    def heartbeat(self, round_no: int) -> None:
        """Per-round heartbeat counter + trace event."""
        am = self.am
        if self.obs is not None:
            self.obs.metrics.counter("am.heartbeat_rounds").inc()
            am.sim.record_obs()
            self.obs.trace.emit(
                "heartbeat", am.sim.now, round=round_no,
                running_maps=len(am.running_maps),
                running_reduces=len(am.running_reduces),
            )

    def container_offered(self) -> None:
        """Count an RM container offer reaching this AM."""
        if self.obs is not None:
            self.obs.metrics.counter("am.container_offers").inc()

    # -- map phase --------------------------------------------------------
    def map_launched(self, assignment: MapAssignment, node) -> None:
        """Record a map launch (metrics, trace event, phase-start stamp)."""
        am = self.am
        split = assignment.split
        if self.obs is not None:
            metrics = self.obs.metrics
            metrics.counter("am.containers_bound").inc()
            metrics.counter("am.maps_launched").inc()
            if assignment.speculative:
                metrics.counter("am.speculative_maps").inc()
                self.obs.trace.emit(
                    "speculate", am.sim.now,
                    task=assignment.task_id, node=node.node_id,
                )
            self.obs.trace.emit(
                "map_launch", am.sim.now,
                task=assignment.task_id, node=node.node_id,
                size_mb=round(split.size_mb, 3), n_bus=split.num_bus,
                wave=assignment.wave, speculative=assignment.speculative,
            )
        if math.isnan(self.trace.map_phase_start):
            self.trace.map_phase_start = am.sim.now

    def map_completed(self, attempt: TaskAttempt) -> None:
        """Record a successful map completion."""
        am = self.am
        if self.obs is not None:
            self.obs.metrics.counter("am.maps_completed").inc()
            self.obs.trace.emit(
                "map_complete", am.sim.now,
                task=attempt.task_id, node=attempt.node.node_id,
                runtime=round(attempt.record.runtime, 3),
                size_mb=round(attempt.record.size_mb, 3),
                productivity=round(attempt.record.productivity, 4),
            )

    def close_map_phase(self) -> None:
        """Stamp the map-phase end from the recorded map attempts."""
        self.trace.map_phase_end = max(
            (r.end for r in self.trace.records if r.kind == "map"),
            default=self.am.sim.now,
        )

    # -- reduce phase ------------------------------------------------------
    def reduce_launched(self, task_id: str, node, share: float, speculative: bool) -> None:
        """Record a reducer launch."""
        if self.obs is not None:
            self.obs.metrics.counter("am.reduces_launched").inc()
            self.obs.trace.emit(
                "reduce_launch", self.am.sim.now,
                task=task_id, node=node.node_id,
                size_mb=round(share, 3), speculative=speculative,
            )

    def reduce_completed(self, attempt: TaskAttempt) -> None:
        """Record a reducer completion."""
        if self.obs is not None:
            self.obs.metrics.counter("am.reduces_completed").inc()
            self.obs.trace.emit(
                "reduce_complete", self.am.sim.now,
                task=attempt.task_id, node=attempt.node.node_id,
                runtime=round(attempt.record.runtime, 3),
            )

    # -- fault tolerance ---------------------------------------------------
    def node_failed(self, node) -> None:
        """Record a node crash and the attempts it took down."""
        am = self.am
        if self.obs is not None:
            self.obs.trace.emit(
                "node_failure", am.sim.now,
                node=node.node_id,
                running_maps=sum(
                    1 for a in am.running_maps if a.node is node
                ),
                running_reduces=sum(
                    1 for a in am.running_reduces if a.node is node
                ),
            )


class ApplicationMaster:
    """Engine-agnostic job driver: map and reduce phases plus their trace."""

    engine_name = "base"

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        rm: ResourceManager,
        namenode: NameNode,
        job: JobSpec,
        streams: RandomStreams,
        config: AMConfig | None = None,
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.rm = rm
        self.namenode = namenode
        self.job = job
        self.streams = streams
        self.config = config or AMConfig()
        self.obs = self.config.obs
        self.store = IntermediateStore()
        self.heartbeat = HeartbeatService(sim, self.config.heartbeat_period_s)
        self.recorder = TraceRecorder(self)
        self.trace: JobTrace = self.recorder.trace
        # Map phase: live attempts -> their assignments and containers.
        self.running_maps: dict[TaskAttempt, MapAssignment] = {}
        self.map_containers: dict[TaskAttempt, Container] = {}
        self._map_seq = 0
        # Reduce phase: slowstart flag, unlaunched reducers, live attempts
        # -> containers, and the ids backed up or committed so far.
        self.reduce_started = False
        self.pending_reducers = 0
        self.running_reduces: dict[TaskAttempt, Container] = {}
        self._reduce_seq = 0
        self._speculated_reduces: set[str] = set()
        self._done_reduces: set[str] = set()
        self.job_done = False
        # Overhead/noise draws are interleaved across map and reduce
        # launches, so both phases share the AM-level generators.
        self._overhead_rng = streams.stream("overhead")
        self._noise_rng = streams.stream("exec-noise")

    @property
    def completed_reducers(self) -> int:
        """Count of distinct reducers that have committed output."""
        return len(self._done_reduces)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def submit(self) -> None:
        """Submit the job: prepare map work and start taking containers."""
        self.recorder.job_submitted()
        self.prepare_maps()
        self.heartbeat.subscribe(self._on_heartbeat)
        self.heartbeat.start()
        self.rm.register(self)
        self.rm.start()

    def run_to_completion(self, max_events: int | None = None) -> JobTrace:
        """Convenience: submit and drive the simulator until the job ends."""
        self.submit()
        guard = max_events if max_events is not None else 50_000_000
        while not self.job_done and self.sim.step():
            guard -= 1
            if guard <= 0:
                raise RuntimeError(f"job {self.job.name} exceeded event budget")
        if not self.job_done:
            raise RuntimeError(f"job {self.job.name} stalled: simulator idle")
        return self.trace

    # ------------------------------------------------------------------
    # subclass API (strategy hooks)
    # ------------------------------------------------------------------
    def prepare_maps(self) -> None:
        """Set up pending map work.  Subclasses must implement."""
        raise NotImplementedError

    def select_map(self, container: Container) -> MapAssignment | None:
        """Pick a map task for the offered container, or None to decline."""
        raise NotImplementedError

    def maps_pending(self) -> bool:
        """True while unlaunched map work remains."""
        raise NotImplementedError

    def on_map_complete(self, attempt: TaskAttempt, assignment: MapAssignment) -> None:
        """Hook: called after a map attempt finishes successfully."""

    def select_reduce_node_ok(self, container: Container) -> bool:
        """Placement filter for reducers; base accepts any node (stock)."""
        return True

    def on_tick(self, round_no: int) -> None:
        """Hook: called every heartbeat round (speculation checks etc.)."""

    # ------------------------------------------------------------------
    # container offers
    # ------------------------------------------------------------------
    def in_tail(self) -> bool:
        """True while no map work is pending and no reducer is waiting.

        In its tail an AM judges an offer from its own attempts and the
        clock alone, never from the offered node, and a decline changes
        nothing.  So an AM that declines in its tail would decline every
        later offer of the same offer round, and the RM stops offering it
        the round's remaining slots.  An engine whose tail decisions depend
        on the offered node must override this to return False.
        """
        return self.pending_reducers == 0 and not self.maps_pending()

    def on_container(self, container: Container) -> bool:
        """RM offer: return True iff a task was launched on the container.

        Map work goes first; after the slowstart boundary a pending reducer
        takes the container, else it may back up a reduce straggler.
        """
        if self.job_done:
            return False
        self.recorder.container_offered()
        if not self.maps_done():
            assignment = self.select_map(container)
            if assignment is None:
                return False
            self._launch_map(container, assignment)
            return True
        if not self.reduce_started:
            return False
        if self.pending_reducers > 0:
            if not self.select_reduce_node_ok(container):
                return False
            self._launch_reduce(container)
            return True
        if self.running_reduces:
            return self._maybe_speculate_reduce(container)
        return False

    # ------------------------------------------------------------------
    # map phase
    # ------------------------------------------------------------------
    def next_map_id(self) -> str:
        """Fresh sequential map task id."""
        self._map_seq += 1
        return f"m{self._map_seq:05d}"

    def _launch_map(self, container: Container, assignment: MapAssignment) -> None:
        """Occupy the container and start the map attempt's three phases."""
        self.rm.occupy(container)
        node = container.node
        split = assignment.split
        overhead = self.config.overhead.sample(node.effective_speed, self._overhead_rng)
        transfer = (
            self.cluster.network.remote_read_time(split.remote_mb)
            + assignment.extra_transfer_s
        )
        noise = node.sample_work_noise(self._noise_rng)
        attempt = TaskAttempt(
            self.sim,
            node,
            task_id=assignment.task_id,
            kind="map",
            size_mb=split.size_mb,
            work_s=split.work_mb * self.job.map_cost_s_per_mb * noise,
            overhead_s=overhead,
            transfer_s=transfer,
            on_complete=lambda a: self._map_finished(a, container),
            wave=assignment.wave,
            speculative=assignment.speculative,
            num_bus=split.num_bus,
            local_mb=split.local_mb,
            remote_mb=split.remote_mb,
        )
        self.running_maps[attempt] = assignment
        self.map_containers[attempt] = container
        self.recorder.map_launched(assignment, node)

    def _map_finished(self, attempt: TaskAttempt, container: Container) -> None:
        """Successful completion: commit output, release, check phase end."""
        assignment = self.running_maps.pop(attempt)
        self.map_containers.pop(attempt, None)
        self.recorder.add(attempt.record)
        self.store.add(
            attempt.node.node_id,
            attempt.record.processed_mb * self.job.shuffle_ratio,
        )
        self.recorder.map_completed(attempt)
        self.on_map_complete(attempt, assignment)
        self.rm.release(container)
        self._check_map_phase_end()

    def finalize_stopped_map(self, attempt: TaskAttempt, container: Container) -> None:
        """Bookkeeping for an attempt stopped early with committed output."""
        self.running_maps.pop(attempt, None)
        self.map_containers.pop(attempt, None)
        self.recorder.add(attempt.record)
        self.store.add(
            attempt.node.node_id,
            attempt.record.processed_mb * self.job.shuffle_ratio,
        )
        self.rm.release(container)

    def finalize_killed_map(
        self, attempt: TaskAttempt, container: Container | None
    ) -> None:
        """Bookkeeping for an attempt killed with output discarded.

        ``container`` may be None for attempts whose container record was
        already dropped (defensive: a crash arriving mid-teardown must not
        turn into an AttributeError).
        """
        self.running_maps.pop(attempt, None)
        self.map_containers.pop(attempt, None)
        self.recorder.add(attempt.record)
        if container is not None:
            self.rm.release(container)

    def maps_done(self) -> bool:
        """True once no map work is pending and nothing is running."""
        return not self.maps_pending() and not self.running_maps

    def _check_map_phase_end(self) -> None:
        """Close the map phase and pass the slowstart boundary: request
        containers for the reducers (or finish a map-only job)."""
        if not self.maps_done() or self.reduce_started:
            if self.maps_pending():
                self.rm.request_offers()
            return
        self.recorder.close_map_phase()
        if self.job.map_only:
            self._finish_job()
            return
        self.reduce_started = True
        self.pending_reducers = self.job.num_reducers
        self.rm.request_offers()

    # ------------------------------------------------------------------
    # reduce phase
    # ------------------------------------------------------------------
    def _launch_reduce(
        self, container: Container, task_id: str | None = None, speculative: bool = False
    ) -> None:
        """Occupy the container and start a reduce attempt."""
        self.rm.occupy(container)
        if not speculative:
            self.pending_reducers -= 1
            self._reduce_seq += 1
            task_id = f"r{self._reduce_seq:04d}"
        node = container.node
        share = self.store.reducer_share_mb(self.job.num_reducers)
        cross = self.store.cross_node_mb(node.node_id, share)
        overhead = self.config.overhead.sample(node.effective_speed, self._overhead_rng)
        noise = node.sample_work_noise(self._noise_rng)
        attempt = TaskAttempt(
            self.sim,
            node,
            task_id=task_id,
            kind="reduce",
            size_mb=share,
            work_s=share * self.job.reduce_cost_s_per_mb * noise,
            overhead_s=overhead,
            transfer_s=self.cluster.network.shuffle_time(cross),
            on_complete=lambda a: self._reduce_finished(a, container),
            speculative=speculative,
            local_mb=share - cross,
            remote_mb=cross,
        )
        self.running_reduces[attempt] = container
        self.recorder.reduce_launched(task_id, node, share, speculative)

    def _reduce_finished(self, attempt: TaskAttempt, container: Container) -> None:
        """Reducer completion; the first copy home wins a speculation race."""
        self.running_reduces.pop(attempt, None)
        self.recorder.add(attempt.record)
        self.recorder.reduce_completed(attempt)
        self._done_reduces.add(attempt.task_id)
        # First copy home wins: kill the loser of a speculation race.
        for copy, copy_container in list(self.running_reduces.items()):
            if copy.task_id == attempt.task_id:
                copy.kill()
                self.running_reduces.pop(copy, None)
                self.recorder.add(copy.record)
                self.rm.release(copy_container)
        self.rm.release(container)
        if self.pending_reducers == 0 and not self.running_reduces:
            self._finish_job()

    def _reduce_speculation_enabled(self) -> bool:
        """Reduce backups run whenever the engine's speculator is enabled —
        YARN speculates reduces exactly as it does maps."""
        manager = getattr(self, "speculation", None)
        return manager is not None and manager.config.enabled

    def _maybe_speculate_reduce(self, container: Container) -> bool:
        """Back up the worst reduce straggler on an idle container (LATE),
        judged by the engine's speculation thresholds."""
        if not self._reduce_speculation_enabled():
            return False
        stragglers = self.recorder.stragglers
        victim = stragglers.longest_left(stragglers.backup_candidates(
            "reduce", self.running_reduces, self._speculated_reduces,
            self.speculation.config,
        ))
        if victim is None:
            return False
        self._speculated_reduces.add(victim.task_id)
        self._launch_reduce(container, task_id=victim.task_id, speculative=True)
        return True

    # ------------------------------------------------------------------
    # fault tolerance
    # ------------------------------------------------------------------
    def requeue_map(self, assignment: MapAssignment) -> None:
        """Return a lost attempt's input to the unprocessed pool.

        Engines override with their own bookkeeping (locality index,
        BU binder).  The base implementation refuses rather than silently
        lose data.
        """
        raise NotImplementedError(f"{type(self).__name__} cannot requeue maps")

    def _has_live_copy(self, task_id: str, other_than: TaskAttempt) -> bool:
        return any(
            a.task_id == task_id and a is not other_than for a in self.running_maps
        )

    def on_node_failure(self, node) -> None:
        """Crash handling: kill the node's attempts and re-enqueue the work.

        Map input lost with the node is re-enqueued (unless another copy of
        the task is still running elsewhere — speculation's silver lining);
        reducers return to pending.  Intermediate map output is modelled as
        already fetched/replicated, so completed maps are not re-executed —
        a simplification noted in DESIGN.md.

        Safe against the two untestable-in-production edges: a crash of an
        already-dead node finds no running attempts (kill/requeue are
        skipped per-attempt, so nothing is re-enqueued twice), and a crash
        arriving after job completion only marks the node dead — the AM has
        released every container and must not resurrect bookkeeping.
        """
        node.fail()
        if self.job_done:
            return
        self.recorder.node_failed(node)
        for attempt, assignment in list(self.running_maps.items()):
            if attempt.node is not node:
                continue
            if attempt.killed or attempt.finished:
                continue  # already terminated; never requeue twice
            container = self.map_containers.get(attempt)
            attempt.kill()
            if not self._has_live_copy(attempt.task_id, other_than=attempt):
                self.requeue_map(assignment)
            self.finalize_killed_map(attempt, container)
        for attempt, container in list(self.running_reduces.items()):
            if attempt.node is not node:
                continue
            attempt.kill()
            self.running_reduces.pop(attempt, None)
            self.recorder.add(attempt.record)
            self._speculated_reduces.discard(attempt.task_id)
            still_running = any(
                a.task_id == attempt.task_id for a in self.running_reduces
            )
            if attempt.task_id not in self._done_reduces and not still_running:
                self.pending_reducers += 1
            self.rm.release(container)
        self.rm.request_offers()

    # ------------------------------------------------------------------
    def _finish_job(self) -> None:
        if self.job_done:
            return
        self.job_done = True
        self.heartbeat.stop()
        self.rm.unregister(self)
        self.recorder.job_finished()

    def _on_heartbeat(self, round_no: int) -> None:
        self.recorder.heartbeat(round_no)
        self.on_tick(round_no)
        # Engines with placement filters (FlexMap's reduce bias) may decline
        # every free container in a round; retry on the next heartbeat so
        # pending reducers cannot stall.  Running reduces also need periodic
        # offers so idle containers can launch backups.
        if self.reduce_started and (self.pending_reducers > 0 or self.running_reduces):
            self.rm.request_offers()
