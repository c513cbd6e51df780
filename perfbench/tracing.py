"""Per-layer spans for the traced run, recorded from outside the program.

Nothing in ``src/`` knows about this module.  :func:`install` wraps public
methods of each layer's classes with span or counter wrappers for the
duration of one traced pass and :meth:`Patches.restore` puts the originals
back, so untraced passes run the program exactly as shipped.  No module
global of the program is changed and no private attribute is read.

A span records its layer name, the job it ran for, its start, its duration
and its parent.  Spans stay in memory (compact arrays) and are written out
once, at the end of the run.  A layer's self time is its spans' durations
minus the time their direct child spans cover and minus the tracing cost
that :meth:`SpanRecorder.calibrate` measures.

Event callbacks are attributed by what scheduled them: bound methods of the
ResourceManager are offer rounds, events scheduled while a heartbeat
service starts or enlists are heartbeat events, events the cluster service
schedules are service work, and the rest (task-attempt phases,
interference, failures) are ``model`` callbacks.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from array import array
from collections import Counter, defaultdict
from time import perf_counter

from repro.engines.registry import engine_names, resolve_engine


def _find(path: str):
    """``module:Name`` of the program, or None once a refactor removed it.

    The benchmark is a fixed yardstick, so a traced pass must keep working
    when a layer it times is deleted; that layer's metrics then read 0.
    """
    module_name, _, name = path.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, name, None)


ClusterService = _find("repro.multijob.service:ClusterService")
EventHandle = _find("repro.sim.engine:EventHandle")
HeartbeatHub = _find("repro.yarn.heartbeat:HeartbeatHub")
HeartbeatService = _find("repro.yarn.heartbeat:HeartbeatService")
ResourceManager = _find("repro.yarn.resource_manager:ResourceManager")
Simulator = _find("repro.sim.engine:Simulator")

#: Span names, one per layer boundary the traced run times.
SPANS = (
    "sim", "model", "yarn.offer", "yarn.heartbeat",
    "engines.on_container", "engines.select_map", "engines.speculation",
    "engines.on_tick", "core.monitor", "core.sizing", "core.ltb",
    "hdfs.locality", "hdfs.create_file", "multijob.policy", "multijob.service",
    "obs.emit", "obs.metrics",
)


class SpanRecorder:
    """In-memory span store plus the counters recorded at the same places."""

    def __init__(self) -> None:
        self.names: list[str] = list(SPANS)
        self._name_ids = {n: i for i, n in enumerate(self.names)}
        self.jobs: list[str] = ["-"]
        self._job_ids: dict[int, tuple[object, int]] = {}
        # Span columns, appended as spans end.
        self.span_id = array("l")
        self.parent = array("l")
        self.name = array("H")
        self.job = array("l")
        self.start = array("d")
        self.dur = array("d")
        self.self_time = array("d")
        self.count = array("l")
        self._last_leaf: tuple[int, int] | None = None
        # Open spans: [id, parent id, name id, job id, start, child time,
        # child spans, counted calls before the span, counted calls in
        # child spans].
        self._stack: list[list] = []
        self._tally = [0]  # counted calls so far (see counted())
        # Tracing's own cost inside a measured span: per span, per child
        # span and per counted call it encloses; see calibrate().
        self.leaf_cost = 0.0
        self.child_cost = 0.0
        self.count_cost = 0.0
        # What scheduled the event being scheduled now (innermost last).
        self._context: list[str | None] = [None]
        self._next_id = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.heap_peak = 0

    # -- spans -------------------------------------------------------------
    def job_id(self, am) -> int:
        """Index in :attr:`jobs` of the job ``am`` runs, labelled with its
        name and its order among AMs of that name (a batch reruns one job
        under several engines)."""
        known = self._job_ids.get(id(am))
        if known is not None:
            return known[1]
        label = am.job.name
        twins = sum(1 for j in self.jobs if j.split("#")[0] == label)
        index = len(self.jobs)
        self.jobs.append(f"{label}#{twins}")
        # Holding the AM keeps its id from being reused within the pass.
        self._job_ids[id(am)] = (am, index)
        return index

    def enter(self, name: str, job: int | None = None) -> None:
        stack = self._stack
        if job is None:
            job = stack[-1][3] if stack else 0
        span_id = self._next_id
        self._next_id += 1
        parent = stack[-1][0] if stack else -1
        stack.append(
            [span_id, parent, self._name_ids[name], job, perf_counter(), 0.0, 0,
             self._tally[0], 0]
        )

    def exit(self) -> None:
        end = perf_counter()
        span_id, parent, name_id, job, start, child, children, tally0, tallied = (
            self._stack.pop()
        )
        dur = end - start
        counted = self._tally[0] - tally0
        own = (
            dur - child - children * self.child_cost - self.leaf_cost
            - (counted - tallied) * self.count_cost
        )
        if self._stack:
            outer = self._stack[-1]
            outer[5] += dur
            outer[6] += 1
            outer[8] += counted
        name = self.names[name_id]
        self.self_s[name] += own
        self.calls[name] += 1
        # Back-to-back calls of one leaf layer under one parent (FlexMap's
        # per-node speed lookups) share a row that counts them.
        if not children and self._last_leaf == (parent, name_id):
            self.dur[-1] += dur
            self.self_time[-1] += own
            self.count[-1] += 1
            return
        self._last_leaf = (parent, name_id) if not children else None
        self.span_id.append(span_id)
        self.parent.append(parent)
        self.name.append(name_id)
        self.job.append(job)
        self.start.append(start)
        self.dur.append(dur)
        self.self_time.append(own)
        self.count.append(1)

    def calibrate(self, rounds: int = 5, calls: int = 4000) -> None:
        """Measure the tracing cost a span adds to its own and its parent's
        self time, so :meth:`exit` can take it out.  Uses the median of
        ``rounds`` batches of ``calls`` empty spans inside one parent."""
        probe = SpanRecorder()
        noop = lambda: None  # noqa: E731
        leaf = probe.span("model", noop)
        tick = probe.counted("calibration", noop)
        leaf_costs, child_costs, count_costs = [], [], []
        for _ in range(rounds):
            plain = perf_counter()
            for _ in range(calls):
                noop()
            plain = (perf_counter() - plain) / calls
            probe.enter("sim", 0)
            for _ in range(calls):
                leaf()
            probe.exit()
            probe.enter("yarn.offer", 0)
            for _ in range(calls):
                tick()
            probe.exit()
            leaf_costs.append(probe.self_s["model"] / calls)
            child_costs.append(probe.self_s["sim"] / calls)
            count_costs.append(probe.self_s["yarn.offer"] / calls - plain)
            probe.self_s.clear()
        self.leaf_cost = statistics.median(leaf_costs)
        self.child_cost = statistics.median(child_costs)
        self.count_cost = statistics.median(count_costs)

    def write_tsv(self, path) -> int:
        """Write every span as one tab-separated line; returns the count."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tlayer\tjob\tcalls\tstart_us\tdur_us\tself_us\n")
            t0 = min(self.start, default=0.0)
            names, jobs = self.names, self.jobs
            for i in range(len(self.span_id)):
                fh.write(
                    f"{self.span_id[i]}\t{self.parent[i]}\t{names[self.name[i]]}\t"
                    f"{jobs[self.job[i]]}\t{self.count[i]}\t{(self.start[i] - t0) * 1e6:.1f}\t"
                    f"{self.dur[i] * 1e6:.2f}\t{self.self_time[i] * 1e6:.2f}\n"
                )
        return len(self.span_id)

    # -- wrappers ----------------------------------------------------------
    def span(self, name, fn, job_of=None, on_result=None, context="keep"):
        """``fn`` wrapped in a span.

        ``job_of(self_arg)`` gives the AM whose job the call runs for;
        otherwise the span inherits its parent's job.  ``on_result(result)`` sees the
        return value.  ``context`` sets what events scheduled inside the
        call are attributed to (``"keep"`` leaves the enclosing one).
        """
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            job = rec.job_id(job_of(args[0])) if job_of is not None else None
            rec.enter(name, job)
            if context != "keep":
                rec._context.append(context)
            try:
                result = fn(*args, **kwargs)
            finally:
                if context != "keep":
                    rec._context.pop()
                rec.exit()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counted(self, counter, fn):
        """``fn`` wrapped to bump ``counts[counter]`` per call (no span)."""
        counts, tally = self.counts, self._tally

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            tally[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def in_context(self, context, fn):
        """``fn`` wrapped so events it schedules are attributed to ``context``."""
        stack = self._context

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(context)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        return wrapper

    def event_kind(self, callback) -> str:
        """Layer an event callback belongs to (see the module docstring)."""
        owner = getattr(callback, "__self__", None)
        for cls, kind in ((ResourceManager, "yarn.offer"), (HeartbeatService, "yarn.heartbeat"),
                          (ClusterService, "multijob.service")):
            if cls is not None and isinstance(owner, cls):
                return kind
        return self._context[-1] or "model"

    def event_callback(self, kind: str, callback):
        """An event callback wrapped in a ``kind`` span; events it schedules
        start from a clean attribution context."""
        rec = self

        def fire():
            rec.enter(kind, 0)
            rec._context.append(None)
            try:
                return callback()
            finally:
                rec._context.pop()
                rec.exit()

        return fire


class Patches:
    """Wrapped class attributes, restorable in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[type, str, object]] = []

    def replace(self, owner: type | None, attr: str, make) -> None:
        """Set ``owner.attr`` to ``make(original)``; skipped when the class
        or the attribute (defined on the class itself) no longer exists."""
        if owner is None or attr not in vars(owner):
            return
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _public_methods(cls: type) -> list[str]:
    return [
        name for name, value in vars(cls).items()
        if not name.startswith("_") and callable(value)
        and not isinstance(value, (staticmethod, classmethod, type))
    ]


def _engine_classes() -> list[type]:
    classes = []
    for name in engine_names():
        factory = resolve_engine(name).factory
        for cls in factory.__mro__ if isinstance(factory, type) else ():
            if cls is not object and cls not in classes:
                classes.append(cls)
    return classes


def install(rec: SpanRecorder) -> Patches:
    """Wrap every traced layer boundary; returns the patches to restore."""
    p = Patches()

    def am_job(am):
        return am

    def owner_job(obj):
        return obj.am

    # sim: the event loop, scheduling and cancellation.
    def wrap_step(step):
        @functools.wraps(step)
        def traced_step(sim):
            rec.enter("sim", 0)
            try:
                return step(sim)
            finally:
                rec.exit()
                depth = sim.heap_depth
                if depth > rec.heap_peak:
                    rec.heap_peak = depth

        return traced_step

    def wrap_schedule_at(schedule_at):
        @functools.wraps(schedule_at)
        def traced_schedule_at(sim, time, callback):
            rec.counts["sim.scheduled"] += 1
            kind = rec.event_kind(callback)
            return schedule_at(sim, time, rec.event_callback(kind, callback))

        return traced_schedule_at

    def wrap_cancel(cancel):
        @functools.wraps(cancel)
        def traced_cancel(handle):
            if not handle.cancelled:
                rec.counts["sim.cancelled"] += 1
            return cancel(handle)

        return traced_cancel

    p.replace(Simulator, "step", wrap_step)
    p.replace(Simulator, "schedule_at", wrap_schedule_at)
    p.replace(EventHandle, "cancel", wrap_cancel)
    p.replace(Simulator, "record_obs", lambda f: rec.span("obs.metrics", f))

    # yarn: heartbeat scheduling context and per-AM ticks.
    p.replace(HeartbeatService, "start", lambda f: rec.in_context("yarn.heartbeat", f))
    p.replace(HeartbeatHub, "enlist", lambda f: rec.in_context("yarn.heartbeat", f))

    def wrap_subscribe(subscribe):
        @functools.wraps(subscribe)
        def traced_subscribe(service, callback):
            return subscribe(service, rec.counted("yarn.heartbeat_ticks", callback))

        return traced_subscribe

    p.replace(HeartbeatService, "subscribe", wrap_subscribe)

    # engines: offers, task selection, straggler logic, ticks.
    def grant(accepted):
        rec.counts["yarn.grants"] += bool(accepted)

    def launched(result):
        rec.counts["engines.speculation.launches"] += bool(result)

    for cls in _engine_classes():
        p.replace(cls, "on_container", lambda f: rec.span(
            "engines.on_container", f, job_of=am_job, on_result=grant))
        for attr in ("select_map", "on_tick"):
            p.replace(cls, attr, lambda f, a=attr: rec.span(f"engines.{a}", f, job_of=am_job))
    for path, attr in (("repro.engines.speculation:SpeculationManager", "select_speculative"),
                       ("repro.engines.base:ReducePhaseDriver", "maybe_speculate")):
        p.replace(_find(path), attr, lambda f: rec.span(
            "engines.speculation", f, job_of=owner_job, on_result=launched))

    def count_reads(prop):
        if not isinstance(prop, property):
            return prop
        return property(rec.counted("engines.record_reads", prop.fget))

    p.replace(_find("repro.sim.trace:TaskRecord"), "runtime", count_reads)
    p.replace(_find("repro.mapreduce.attempt:TaskAttempt"), "progress",
              lambda f: rec.counted("engines.progress_reads", f))

    # core: SpeedMonitor, Algorithm 1 sizing, late task binding.
    for path, layer in (("repro.core.speed_monitor:SpeedMonitor", "core.monitor"),
                        ("repro.core.sizing:DynamicSizer", "core.sizing"),
                        ("repro.core.sizing:NodeSizing", "core.sizing"),
                        ("repro.core.data_provision:DataProvision", "core.sizing"),
                        ("repro.core.late_binding:LateTaskBinder", "core.ltb"),
                        ("repro.hdfs.locality:LocalityIndex", "hdfs.locality")):
        cls = _find(path)
        for attr in _public_methods(cls) if cls is not None else ():
            make = (lambda f, layer=layer: rec.span(layer, f))
            if layer == "core.ltb" and attr == "bind":
                make = (lambda f: rec.span("core.ltb", rec.counted("core.ltb.binds", f)))
            p.replace(cls, attr, make)
    p.replace(_find("repro.hdfs.namenode:NameNode"), "create_file",
              lambda f: rec.span("hdfs.create_file", f))

    # multijob: policy ranking and the service loop.
    for cls in set((_find("repro.multijob.policies:CLUSTER_POLICIES") or {}).values()):
        p.replace(cls, "order", lambda f: rec.span("multijob.policy", f))
    p.replace(ClusterService, "run", lambda f: rec.span(
        "multijob.service", f, context="multijob.service"))

    # obs: trace emission and metric instruments.
    for name in ("TraceEmitter", "MemoryTraceEmitter", "JsonlTraceEmitter"):
        p.replace(_find(f"repro.obs.trace:{name}"), "emit", lambda f: rec.span("obs.emit", f))
    for name, attrs in (("MetricsRegistry", ("counter", "gauge", "histogram")),
                        ("Counter", ("inc",)), ("Gauge", ("set",)), ("Histogram", ("observe",))):
        for attr in attrs:
            p.replace(_find(f"repro.obs.metrics:{name}"), attr,
                      lambda f: rec.span("obs.metrics", f))
    return p


def layer_metrics(rec: SpanRecorder, events: int) -> dict[str, float]:
    """Per-layer counts from one traced pass (ratios keep their bases)."""
    calls, counts = rec.calls, rec.counts

    def ratio(num, den):
        return num / den if den else 0.0

    offers = calls["engines.on_container"]
    spec_calls = calls["engines.speculation"]
    hb_events = calls["yarn.heartbeat"]
    return {
        "sim.events": events,
        "sim.scheduled": counts["sim.scheduled"],
        "sim.cancelled_frac": ratio(counts["sim.cancelled"], counts["sim.scheduled"]),
        "sim.heap_peak": rec.heap_peak,
        "yarn.offer_rounds": calls["yarn.offer"],
        "yarn.offers": offers,
        "yarn.grants": counts["yarn.grants"],
        "yarn.accept_ratio": ratio(counts["yarn.grants"], offers),
        "yarn.heartbeat_events": hb_events,
        "yarn.heartbeat_ticks": counts["yarn.heartbeat_ticks"],
        "yarn.ticks_per_event": ratio(counts["yarn.heartbeat_ticks"], hb_events),
        "engines.speculation.calls": spec_calls,
        "engines.speculation.launch_ratio": ratio(
            counts["engines.speculation.launches"], spec_calls),
        "engines.record_reads": counts["engines.record_reads"],
        "engines.progress_reads": counts["engines.progress_reads"],
        "engines.select_map.calls": calls["engines.select_map"],
        "core.monitor.calls": calls["core.monitor"],
        "core.ltb.binds": counts["core.ltb.binds"],
        "hdfs.locality.calls": calls["hdfs.locality"],
        "multijob.policy.calls": calls["multijob.policy"],
        "obs.emits": calls["obs.emit"],
    }


def self_times(rec: SpanRecorder) -> dict[str, float]:
    """Host self seconds per layer from one traced pass (``<span>.self_s``)."""
    return {f"{span}.self_s": rec.self_s.get(span, 0.0) for span in SPANS}
