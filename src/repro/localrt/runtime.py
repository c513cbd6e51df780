"""Virtual-clock executor for the local runtime.

Workers with heterogeneous speeds pull splits from a splitter and *really
execute* the job's map/reduce functions over the records; only time is
virtual (``overhead + records / (rate * speed)`` per task), which keeps
heterogeneity controllable and runs deterministic.  The executor is a
miniature of the paper's map phase: a pull-based last-wave, per-task JVM
overhead, and a shuffle/reduce stage grouped by key.
"""

from __future__ import annotations

import heapq
import zlib
from collections import defaultdict
from dataclasses import dataclass, field

from repro.localrt.functions import JobFunctions, run_combiner


@dataclass(frozen=True)
class WorkerSpec:
    """One single-slot worker (container) with a relative speed."""

    worker_id: str
    speed: float = 1.0

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise ValueError(f"non-positive speed: {self.speed}")


@dataclass
class LocalTaskRecord:
    """One executed map or reduce task on the virtual clock."""

    task_id: str
    kind: str
    worker: str
    num_bus: int
    num_records: int
    start: float
    end: float
    overhead: float

    @property
    def runtime(self) -> float:
        return self.end - self.start

    @property
    def productivity(self) -> float:
        if self.runtime <= 0:
            return 0.0
        return (self.runtime - self.overhead) / self.runtime


@dataclass
class LocalResult:
    """Job output plus the execution trace."""

    output: dict
    tasks: list[LocalTaskRecord] = field(default_factory=list)
    map_phase_s: float = 0.0
    jct_s: float = 0.0

    def maps(self) -> list[LocalTaskRecord]:
        """Map-task records only."""
        return [t for t in self.tasks if t.kind == "map"]

    def records_per_worker(self) -> dict[str, int]:
        """Input records each worker consumed in the map phase."""
        out: dict[str, int] = defaultdict(int)
        for t in self.maps():
            out[t.worker] += t.num_records
        return dict(out)

    def efficiency(self, num_workers: int) -> float:
        """Paper eq. (2) on the local runtime's map phase."""
        serial = sum(t.runtime for t in self.maps())
        if self.map_phase_s <= 0 or num_workers < 1:
            raise ValueError("invalid phase or worker count")
        return serial / (self.map_phase_s * num_workers)


class LocalRuntime:
    """Run a :class:`JobFunctions` over block units of records."""

    def __init__(
        self,
        workers: list[WorkerSpec],
        overhead_s: float = 2.0,
        records_per_s: float = 1000.0,
        num_reducers: int = 4,
    ) -> None:
        if not workers:
            raise ValueError("need at least one worker")
        if overhead_s < 0 or records_per_s <= 0:
            raise ValueError("bad overhead/rate")
        if num_reducers < 1:
            raise ValueError("need at least one reducer")
        ids = [w.worker_id for w in workers]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate worker ids")
        self.workers = list(workers)
        self.overhead_s = overhead_s
        self.records_per_s = records_per_s
        self.num_reducers = num_reducers

    # ------------------------------------------------------------------
    def run(self, job: JobFunctions, bus: list[list[str]], splitter) -> LocalResult:
        """Execute the job; ``splitter`` decides per-worker split sizes."""
        if not bus:
            raise ValueError("no input block units")
        splitter.reset(num_bus=len(bus), workers=self.workers)
        # (next-free-time, tie-break, worker)
        heap: list[tuple[float, int, WorkerSpec]] = [
            (0.0, i, w) for i, w in enumerate(self.workers)
        ]
        heapq.heapify(heap)
        tasks: list[LocalTaskRecord] = []
        intermediate: list[tuple[str, object]] = []
        seq = 0
        map_phase_end = 0.0
        while heap:
            free_at, tie, worker = heapq.heappop(heap)
            picked = splitter.next_split(worker)
            if not picked:
                continue  # worker retires; others may still have work
            records = [r for bu in picked for r in bus[bu]]
            pairs: list[tuple[str, object]] = []
            for record in records:
                pairs.extend(job.map_fn(record))
            if job.use_combiner:
                pairs = run_combiner(pairs)
            intermediate.extend(pairs)
            compute = len(records) / (self.records_per_s * worker.speed)
            end = free_at + self.overhead_s + compute
            seq += 1
            record = LocalTaskRecord(
                task_id=f"m{seq:04d}",
                kind="map",
                worker=worker.worker_id,
                num_bus=len(picked),
                num_records=len(records),
                start=free_at,
                end=end,
                overhead=self.overhead_s,
            )
            tasks.append(record)
            splitter.task_done(worker, record)
            map_phase_end = max(map_phase_end, end)
            heapq.heappush(heap, (end, tie, worker))

        # ------------------------------------------------------------------
        # shuffle + reduce: partition keys, one reduce task per partition,
        # assigned to the fastest workers first (one wave).  Keys partition
        # by CRC-32, not hash(): str hashes are salted per process.
        grouped: dict[str, list] = defaultdict(list)
        for k, v in intermediate:
            grouped[k].append(v)
        partitions: list[list[str]] = [[] for _ in range(self.num_reducers)]
        for key in sorted(grouped):
            partitions[zlib.crc32(key.encode()) % self.num_reducers].append(key)
        output: dict = {}
        jct = map_phase_end
        by_speed = sorted(self.workers, key=lambda w: -w.speed)
        for i, keys in enumerate(partitions):
            if not keys:
                continue
            worker = by_speed[i % len(by_speed)]
            npairs = sum(len(grouped[k]) for k in keys)
            compute = npairs / (self.records_per_s * worker.speed)
            start = map_phase_end
            end = start + self.overhead_s + compute
            for k in keys:
                rk, rv = job.reduce_fn(k, grouped[k])
                output[rk] = rv
            seq += 1
            tasks.append(
                LocalTaskRecord(
                    task_id=f"r{seq:04d}",
                    kind="reduce",
                    worker=worker.worker_id,
                    num_bus=0,
                    num_records=npairs,
                    start=start,
                    end=end,
                    overhead=self.overhead_s,
                )
            )
            jct = max(jct, end)
        return LocalResult(output=output, tasks=tasks, map_phase_s=map_phase_end, jct_s=jct)
