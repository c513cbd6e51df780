"""Heartbeat service: periodic container -> AM progress reports.

Section III-D: each container reports its input-processing speed (IPS,
eq. 3) to the AM every 5 seconds.  We run one global ticker per job instead
of one event per container — same information, far fewer events.  The tick
also drives time-based scheduler logic (speculation checks, SkewTune
straggler scans).

Every :class:`HeartbeatService` ticks through its simulator's
:class:`HeartbeatHub`: services whose next tick is due at the same instant
share a single heap event that walks the members in enlistment order, so a
cluster hosting N concurrent jobs pays one heap event per period rather
than N.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.engine import EventHandle, Simulator

HEARTBEAT_PERIOD_S = 5.0


class _TickGroup:
    """The services whose next tick falls on one shared due time."""

    __slots__ = ("due", "members", "event")

    def __init__(self, due: float) -> None:
        self.due = due
        self.members: list["HeartbeatService"] = []
        self.event: EventHandle | None = None


class HeartbeatHub:
    """Per-simulator coalescer: one heap event per distinct tick due time.

    The hub is created lazily on first use and cached on the simulator
    instance, so independent simulators never share state and a simulator
    that runs no heartbeats never allocates one.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._groups: dict[float, _TickGroup] = {}

    @classmethod
    def for_sim(cls, sim: Simulator) -> "HeartbeatHub":
        hub = getattr(sim, "_heartbeat_hub", None)
        if hub is None:
            hub = cls(sim)
            sim._heartbeat_hub = hub  # type: ignore[attr-defined]
        return hub

    def enlist(self, service: "HeartbeatService", due: float) -> None:
        """Queue ``service`` for a tick at absolute time ``due``."""
        group = self._groups.get(due)
        if group is None:
            group = _TickGroup(due)
            self._groups[due] = group
            group.event = self.sim.schedule_at(due, lambda: self._fire(due))
        group.members.append(service)
        service._group = group

    def retire(self, service: "HeartbeatService") -> None:
        """Drop ``service`` from its pending group (service stopped)."""
        group = service._group
        service._group = None
        if group is None:
            return
        try:
            group.members.remove(service)
        except ValueError:
            return
        if not group.members and self._groups.get(group.due) is group:
            del self._groups[group.due]
            if group.event is not None:
                group.event.cancel()
                group.event = None

    def _fire(self, due: float) -> None:
        group = self._groups.pop(due)
        group.event = None  # fired — must never be cancelled after the fact
        # Walk members in enlistment order and re-enlist each immediately
        # after its callbacks: tick A, reschedule A, tick B, reschedule B, ...
        for service in list(group.members):
            if not service._running:
                continue  # stopped by an earlier member's callbacks
            service._group = None
            # Instance-attribute lookup on purpose: correctness harnesses
            # wrap ``service._tick`` and must keep intercepting ticks.
            service._tick()
            if service._running:
                self.enlist(service, self.sim.now + service.period_s)


class HeartbeatService:
    """Fixed-period ticker with subscriber callbacks."""

    def __init__(self, sim: Simulator, period_s: float = HEARTBEAT_PERIOD_S) -> None:
        if period_s <= 0:
            raise ValueError(f"non-positive heartbeat period: {period_s}")
        self.sim = sim
        self.period_s = period_s
        self._subscribers: list[Callable[[int], None]] = []
        self._round = 0
        self._running = False
        self._group: _TickGroup | None = None

    def subscribe(self, callback: Callable[[int], None]) -> None:
        """Register a callback invoked with the heartbeat round number."""
        self._subscribers.append(callback)

    def start(self) -> None:
        """Begin ticking; idempotent."""
        if self._running:
            return
        self._running = True
        HeartbeatHub.for_sim(self.sim).enlist(self, self.sim.now + self.period_s)

    def stop(self) -> None:
        """Stop ticking and leave the pending tick group."""
        self._running = False
        if self._group is not None:
            HeartbeatHub.for_sim(self.sim).retire(self)

    def _tick(self) -> None:
        if not self._running:
            return
        self._round += 1
        for callback in list(self._subscribers):
            callback(self._round)

    @property
    def rounds(self) -> int:
        """Number of rounds fired so far."""
        return self._round
