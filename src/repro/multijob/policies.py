"""Cluster-level scheduling policies for the multi-AM ResourceManager.

The RM offers each free slot to its registered (that is, live)
applications in the order a policy ranks them; the first AM to accept gets
the container.  A policy keeps that ranking up to date as the RM reports
changes, so an offer round never filters or sorts: ``add``/``remove`` on
register/unregister, ``moved(record, old_used)`` after a grant or release
changed a record's ``used_slots`` (a release after ``remove`` is not
reported), and ``order()`` returns the current ranking, which the RM
copies before offering.  Policies never mutate the RM's
:class:`~repro.yarn.resource_manager.AppRecord` bookkeeping; every tie is
broken by registration index, so a fixed seed yields one grant order.  One
policy instance ranks one RM's applications.

``fifo``
    Strict registration (submission) order.  Early jobs monopolize the
    cluster until they stop accepting.

``fair``
    Weighted fair sharing over *currently held* slots, keyed by
    ``(used_slots / weight, index)``: each released slot flows to the most
    underserved job and no AM can starve the rest.

``capacity``
    YARN-style capacity queues, keyed by ``(usage[queue] /
    capacity(queue), index)``: queues are ranked by the usage of their live
    applications over queue capacity, FIFO within a queue, and the
    applications of queues with exactly equal ratios interleave by index.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.yarn.resource_manager import AppRecord


class ClusterSchedulerPolicy:
    """Keeps live applications ranked for the next container offer."""

    name = "base"

    def add(self, record: "AppRecord") -> None:
        """Rank a newly registered application (indices arrive ascending)."""
        raise NotImplementedError

    def remove(self, record: "AppRecord") -> None:
        """Drop an unregistered application from the ranking."""
        raise NotImplementedError

    def moved(self, record: "AppRecord", old_used: int) -> None:
        """Re-rank ``record`` after its ``used_slots`` changed from ``old_used``."""
        raise NotImplementedError

    def order(self) -> "list[AppRecord]":
        """The live applications most-deserving-first.  Do not mutate."""
        raise NotImplementedError

    def describe(self) -> str:
        """One-line human-readable configuration summary."""
        return self.name


class FifoPolicy(ClusterSchedulerPolicy):
    """First registered, first offered."""

    name = "fifo"

    def __init__(self) -> None:
        self._ranking: list[AppRecord] = []

    def add(self, record: "AppRecord") -> None:
        self._ranking.append(record)

    def remove(self, record: "AppRecord") -> None:
        self._ranking.remove(record)

    def moved(self, record: "AppRecord", old_used: int) -> None:
        pass

    def order(self) -> "list[AppRecord]":
        return self._ranking


class FairPolicy(ClusterSchedulerPolicy):
    """Weighted fair share of currently held slots.

    Records are kept sorted side by side with their keys; the index makes
    every key unique, so ``bisect`` finds a record's entry exactly.
    """

    name = "fair"

    def __init__(self) -> None:
        self._keys: list[tuple[float, int]] = []
        self._ranking: list[AppRecord] = []

    def add(self, record: "AppRecord") -> None:
        key = (record.used_slots / record.weight, record.index)
        at = bisect_left(self._keys, key)
        self._keys.insert(at, key)
        self._ranking.insert(at, record)

    def remove(self, record: "AppRecord") -> None:
        self._drop((record.used_slots / record.weight, record.index))

    def moved(self, record: "AppRecord", old_used: int) -> None:
        self._drop((old_used / record.weight, record.index))
        self.add(record)

    def _drop(self, key: tuple[float, int]) -> None:
        at = bisect_left(self._keys, key)
        del self._keys[at]
        del self._ranking[at]

    def order(self) -> "list[AppRecord]":
        return self._ranking


class CapacityPolicy(ClusterSchedulerPolicy):
    """Capacity queues: rank queues by usage over configured capacity.

    ``queues`` maps queue name to a positive capacity weight; queues not
    configured get ``default_capacity``.  Each queue's usage and records
    (in index order) are kept; ``order`` after a change rebuilds the
    ranking from them.
    """

    name = "capacity"

    def __init__(
        self, queues: dict[str, float] | None = None, default_capacity: float = 1.0
    ) -> None:
        if default_capacity <= 0:
            raise ValueError(f"non-positive default capacity: {default_capacity}")
        self.queues = dict(queues or {})
        for queue, capacity in self.queues.items():
            if capacity <= 0:
                raise ValueError(f"non-positive capacity for queue {queue!r}")
        self.default_capacity = default_capacity
        self._usage: dict[str, int] = {}
        self._members: dict[str, list[AppRecord]] = {}
        self._ranking: list[AppRecord] | None = None

    def capacity_of(self, queue: str) -> float:
        """Configured capacity weight for ``queue`` (default if unset)."""
        return self.queues.get(queue, self.default_capacity)

    def add(self, record: "AppRecord") -> None:
        queue = record.queue
        self._members.setdefault(queue, []).append(record)
        self._usage[queue] = self._usage.get(queue, 0) + record.used_slots
        self._ranking = None

    def remove(self, record: "AppRecord") -> None:
        queue = record.queue
        members = self._members[queue]
        members.remove(record)
        self._usage[queue] -= record.used_slots
        if not members:
            del self._members[queue], self._usage[queue]
        self._ranking = None

    def moved(self, record: "AppRecord", old_used: int) -> None:
        self._usage[record.queue] += record.used_slots - old_used
        self._ranking = None

    def order(self) -> "list[AppRecord]":
        if self._ranking is None:
            self._ranking = self._rank()
        return self._ranking

    def _rank(self) -> "list[AppRecord]":
        # Queues with exactly equal ratios share a group, merged by index.
        groups: dict[float, list[AppRecord]] = {}
        for queue, members in self._members.items():
            ratio = self._usage[queue] / self.capacity_of(queue)
            group = groups.get(ratio)
            if group is None:
                groups[ratio] = members
            else:
                groups[ratio] = sorted(group + members, key=attrgetter("index"))
        ranking: list[AppRecord] = []
        for ratio in sorted(groups):
            ranking += groups[ratio]
        return ranking

    def describe(self) -> str:
        if not self.queues:
            return "capacity (all queues at default capacity)"
        shares = ", ".join(f"{q}={c:g}" for q, c in sorted(self.queues.items()))
        return f"capacity ({shares})"


#: Registry used by the CLI and the service driver.
CLUSTER_POLICIES: dict[str, type[ClusterSchedulerPolicy]] = {
    FifoPolicy.name: FifoPolicy,
    FairPolicy.name: FairPolicy,
    CapacityPolicy.name: CapacityPolicy,
}


def make_policy(
    name: str, queues: dict[str, float] | None = None
) -> ClusterSchedulerPolicy:
    """Instantiate a policy by registry name.

    ``queues`` configures :class:`CapacityPolicy` shares and is ignored by
    the other policies.
    """
    try:
        cls = CLUSTER_POLICIES[name]
    except KeyError:
        raise KeyError(
            f"unknown cluster policy {name!r}; choose from {sorted(CLUSTER_POLICIES)}"
        ) from None
    if cls is CapacityPolicy:
        return CapacityPolicy(queues)
    return cls()
