"""ResourceManager: grants containers on nodes with free slots.

The RM is deliberately thin — *task*-level scheduling policy lives in the
Application Masters (:mod:`repro.engines`).
The RM walks nodes with free slots and *offers* a container to an AM; the
AM either accepts (launching a task attempt, which occupies the slot until
the AM releases it) or declines (the slot is offered to the next AM, or
stays free until the next offer round).

The RM can host many concurrently registered AMs.  An AM unregisters in
the step that finishes its job, so the registered AMs are exactly the live
ones.  *Which* AM is offered each free slot first is decided by a pluggable
**cluster scheduler** (:mod:`repro.multijob.policies`): FIFO by
registration order, fair sharing by weighted slot usage, or capacity
queues.  The scheduler keeps its ranking up to date: ``register``,
``unregister``, ``occupy`` and ``release`` report each change to it, and an
offer round reads the ranking without filtering or sorting.  Without a
scheduler (single-job runs) AMs are offered slots in registration order.

Offer rounds are triggered at start, whenever an AM signals new pending
work, and whenever a slot is released.  An AM that declines while in its
tail (``ApplicationMaster.in_tail()``) is offered nothing more in that
round; see ``_offer_round``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.cluster.topology import Cluster
from repro.sim.engine import Simulator
from repro.yarn.container import Container

if TYPE_CHECKING:  # pragma: no cover
    from repro.engines.base import ApplicationMaster
    from repro.multijob.policies import ClusterSchedulerPolicy


class AppRecord:
    """Per-application bookkeeping held by the RM."""

    __slots__ = ("am", "index", "queue", "weight", "used_slots", "granted")

    def __init__(self, am, index: int, queue: str, weight: float) -> None:
        self.am = am
        self.index = index  # registration order — the FIFO key
        self.queue = queue
        self.weight = weight
        self.used_slots = 0  # slots currently held (per-job accounting)
        self.granted = 0  # containers ever granted


class ResourceManager:
    """Container allocator over a cluster, shared by one or many AMs."""

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        rng=None,
        scheduler: "ClusterSchedulerPolicy | None" = None,
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self._apps: dict[int, AppRecord] = {}  # keyed by id(am), insertion-ordered
        self._next_app_index = 0
        self._offer_scheduled = False
        self.containers_granted = 0
        # Offer order is shuffled per round: real node heartbeats arrive in
        # arbitrary order, so no machine class is systematically served
        # first.  Pass a seeded generator for reproducible runs.
        self._rng = rng
        self.scheduler = scheduler

    # ------------------------------------------------------------------
    # application lifecycle
    # ------------------------------------------------------------------
    def register(
        self, am: "ApplicationMaster", queue: str = "default", weight: float = 1.0
    ) -> None:
        """Attach an ApplicationMaster receiving offers.

        ``queue``/``weight`` feed the cluster scheduler (capacity queues,
        fair-share weights); both are ignored by the default FIFO order.
        """
        if weight <= 0:
            raise ValueError(f"non-positive weight: {weight}")
        if id(am) in self._apps:
            return
        record = AppRecord(am, self._next_app_index, queue, weight)
        self._apps[id(am)] = record
        self._next_app_index += 1
        if self.scheduler is not None:
            self.scheduler.add(record)

    def unregister(self, am: "ApplicationMaster") -> None:
        """Detach a finished AM; its held slots (if any) stay accounted to
        the containers until released, outside any app's usage.
        Idempotent."""
        record = self._apps.pop(id(am), None)
        if record is not None and self.scheduler is not None:
            self.scheduler.remove(record)

    @property
    def apps(self) -> list[AppRecord]:
        """Registered applications in registration order."""
        return list(self._apps.values())

    def app_record(self, am: "ApplicationMaster") -> AppRecord | None:
        """Bookkeeping record for ``am``, or None if not registered."""
        return self._apps.get(id(am))

    def used_slots(self, am: "ApplicationMaster") -> int:
        """Slots currently held by ``am`` (0 if unknown)."""
        record = self._apps.get(id(am))
        return record.used_slots if record is not None else 0

    @property
    def num_registered(self) -> int:
        """Registered applications; a finished AM has unregistered."""
        return len(self._apps)

    @property
    def num_active_apps(self) -> int:
        """Live (registered) applications, at least 1.

        Sizing logic divides cluster capacity by this to estimate the slice
        one job can actually occupy; in single-job mode it is 1, so the
        single-job behaviour is unchanged.
        """
        return max(1, len(self._apps))

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin offering containers (t=0 of the job)."""
        self.request_offers()

    def request_offers(self) -> None:
        """Schedule an offer round; coalesces concurrent requests."""
        if self._offer_scheduled:
            return
        self._offer_scheduled = True
        self.sim.schedule(0.0, self._offer_round)

    def _offer_round(self) -> None:
        self._offer_scheduled = False
        if self._next_app_index == 0:  # no AM ever registered
            return
        # Shuffle before the liveness check: a round triggered by the last
        # release of a finished job must consume exactly one shuffle from
        # the offer stream, as it always has, so drivers that persist the
        # stream across jobs (iterative runs) replay identically.
        nodes = list(self.cluster.nodes)
        if self._rng is not None:
            self._rng.shuffle(nodes)
        if not self._apps:
            return
        # Keep offering on a node while some AM accepts and slots remain.
        # The round snapshots the ranking when it first offers a free slot
        # and again after each grant, the only step inside a round that
        # changes slot accounting; a release inside a grant reorders nothing
        # mid-walk.  An AM that declines while in its tail would decline the
        # rest of the round, so it leaves the candidates; the round ends
        # once none is left.
        scheduler = self.scheduler
        closed: set[AppRecord] = set()
        order: list[AppRecord] | None = None
        for node in nodes:
            if not node.alive:
                continue
            while node.free_slots > 0:
                if order is None:
                    ranking = self._apps.values() if scheduler is None else scheduler.order()
                    order = [r for r in ranking if r not in closed]
                if self._offer_slot(node, order, closed):
                    order = None
                    continue
                order = [r for r in order if r not in closed]
                if not order:
                    return
                break

    def _offer_slot(self, node, order: list[AppRecord], closed: set[AppRecord]) -> bool:
        """Offer one free slot on ``node`` down ``order``; True on a grant.

        AMs that decline while in their tail join ``closed``.
        """
        for record in order:
            am = record.am
            if am.on_container(Container(node, am=am)):
                record.granted += 1
                self.containers_granted += 1
                return True
            if am.in_tail():
                closed.add(record)
        return False

    # ------------------------------------------------------------------
    # correctness hooks (zero-cost unless installed)
    # ------------------------------------------------------------------
    def install_audit(
        self,
        on_register: "Callable[[ApplicationMaster], None] | None" = None,
        on_occupy: Callable[[Container], None] | None = None,
        on_release: Callable[[Container], None] | None = None,
    ) -> Callable[[], None]:
        """Observe application registration and slot transitions.

        Installed by wrapping the instance methods, so an RM without an
        audit pays nothing (the :mod:`repro.obs` disabled-cost contract).
        ``on_register`` fires for every *new* AM attachment, ``on_occupy``
        before each slot acquisition, and ``on_release`` before each real
        release (idempotent re-releases are not reported).  Returns an
        uninstall callable.  Used by :class:`repro.check.InvariantChecker`.
        """
        inner_register = self.register
        inner_occupy = self.occupy
        inner_release = self.release

        def register(am, queue: str = "default", weight: float = 1.0) -> None:
            fresh = id(am) not in self._apps
            inner_register(am, queue=queue, weight=weight)
            if fresh and on_register is not None:
                on_register(am)

        def occupy(container: Container) -> None:
            if on_occupy is not None:
                on_occupy(container)
            inner_occupy(container)

        def release(container: Container) -> None:
            if on_release is not None and not container.released:
                on_release(container)
            inner_release(container)

        if on_register is not None:
            self.register = register  # type: ignore[method-assign]
        if on_occupy is not None:
            self.occupy = occupy  # type: ignore[method-assign]
        if on_release is not None:
            self.release = release  # type: ignore[method-assign]

        def uninstall() -> None:
            self.register = inner_register  # type: ignore[method-assign]
            self.occupy = inner_occupy  # type: ignore[method-assign]
            self.release = inner_release  # type: ignore[method-assign]

        return uninstall

    # ------------------------------------------------------------------
    def occupy(self, container: Container) -> None:
        """Mark the container's slot busy (AM accepted the offer)."""
        container.node.acquire_slot()
        record = self._apps.get(id(container.am)) if container.am is not None else None
        if record is not None:
            record.used_slots += 1
            if self.scheduler is not None:
                self.scheduler.moved(record, record.used_slots - 1)

    def release(self, container: Container) -> None:
        """Return the slot and trigger a new offer round."""
        if container.released:
            return
        container.released = True
        container.node.release_slot()
        record = self._apps.get(id(container.am)) if container.am is not None else None
        if record is not None:
            record.used_slots -= 1
            if self.scheduler is not None:
                self.scheduler.moved(record, record.used_slots + 1)
        self.request_offers()
