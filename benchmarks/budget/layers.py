"""The traced pass: one exclusive-time stack and the seams it is hung on.

A *layer* is a module name (``sim.engine``, ``observe.bus`` ...). Every
wrapper below takes the clock from the layer it interrupts on the way
in and hands it back on the way out, so within one op every nanosecond
belongs to exactly one layer and the per-layer self times tile the op
wall by construction. What no
wrapper claims stays with the op's *root* layer (``wms.cli`` for the CLI
workloads, ``harness.driver`` otherwise) — the remainder row.

Two kinds of boundary:

* phase-level seams (plan, simulate, fold, each export, recover ...)
  happen a handful of times per op and are also recorded as spans —
  name, layer, start, end, parent, op — kept in memory until the child
  exits;
* per-event seams (subscriber calls, engine callbacks, ``submit`` /
  ``on_complete``, matchmaker calls) happen 1e5-1e7 times per op and
  only feed the per-(op, layer) accumulators: that many spans would
  measure the tracer.

Callbacks are charged to the layer that handed them over: a callback
passed to ``Simulator.schedule_at`` runs in the layer that scheduled
it, and the ``on_complete`` passed to a platform's ``submit`` runs in
the caller's layer.

Everything is attribute substitution from this file; ``src/`` is not
edited and the untraced pass never imports this module.
"""

from __future__ import annotations

import sys
import time
import types
from collections import defaultdict
from typing import Any, Callable

#: Layer of each known bus subscriber, by the module that defines it.
#: A subscriber from any other module stays inside ``observe.bus``.
SUBSCRIBER_LAYERS = {
    "repro.observe.bus": "observe.bus.recorder",
    "repro.observe.log": "observe.log",
    "repro.observe.metrics": "observe.metrics",
    "repro.observe.trace": "observe.trace.ingest",
    "repro.observe.anomaly": "observe.anomaly",
    "repro.resilience.journal": "resilience.journal",
    "repro.service.service": "service.service",
}


class Budget:
    """The exclusive-time stack plus the counters kept at its seams.

    The stack itself lives in the wrappers' frames: each wrapper
    remembers the layer it interrupted and hands the clock back to it
    on the way out, so the object only holds the current layer and the
    time of the last hand-over.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.layer = "idle"
        self.mark = clock()
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        #: (op, name, layer, start_ns, end_ns, parent index or -1)
        self.spans: list[tuple[int, str, str, int, int, int]] = []
        self._open: list[int] = []
        self._op = -1
        self._root = "idle"
        #: objects whose own public counters are read when the op ends
        self.buses: list[Any] = []
        self.matchmakers: list[Any] = []

    # -- wrappers -------------------------------------------------------

    def layered(
        self,
        fn: Callable[..., Any],
        layer: str,
        *,
        span: str | None = None,
        counter: str | None = None,
    ) -> Callable[..., Any]:
        """``fn`` running in ``layer``; ``span`` also records a span,
        ``counter`` also counts the calls under that name."""
        if span is not None:
            fn = self._spanning(fn, span, layer)
        if counter is not None:
            fn = self._counting(fn, counter)
        clock, self_ns, calls = self.clock, self.self_ns, self.calls

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            now = clock()
            parent = self.layer
            self_ns[parent] += now - self.mark
            self.layer = layer
            self.mark = now
            calls[layer] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                now = clock()
                self_ns[layer] += now - self.mark
                self.layer = parent
                self.mark = now

        return wrapper

    def _spanning(self, fn: Callable[..., Any], name: str, layer: str) -> Callable[..., Any]:
        def spanned(*args: Any, **kwargs: Any) -> Any:
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append((self._op, name, layer, self.clock(), 0, parent))
            self._open.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index] = (
                    self._op, name, layer, self.spans[index][3],
                    self.clock(), parent,
                )

        return spanned

    def _counting(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        counts = self.counts

        def counted(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def inherit(self, callback: Callable[..., Any]) -> Callable[..., Any]:
        """``callback`` charged to the layer that is current *now*."""
        return self.layered(callback, self.layer)

    def wrap_function(self, module: str, name: str, layer: str, **kw: Any) -> None:
        """Replace a module-level function in every loaded namespace
        that holds it under its own name (``from x import f`` copies,
        this directory's modules included)."""
        original = getattr(sys.modules[module], name)
        wrapped = self.layered(original, layer, **kw)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__dict__", {}).get(name) is original:
                setattr(mod, name, wrapped)

    def wrap_method(self, cls: type, name: str, layer: str, **kw: Any) -> None:
        setattr(cls, name, self.layered(getattr(cls, name), layer, **kw))

    def wrap_platform(self, cls: type, layer: str) -> None:
        """``cls.submit`` runs in ``layer``; the ``on_complete`` it is
        handed runs in the layer of whoever called ``submit``."""
        inner = self.layered(cls.submit, layer)  # type: ignore[attr-defined]

        def submit(env: Any, job: Any, on_complete: Any, *, attempt: int = 1) -> None:
            inner(env, job, self.inherit(on_complete), attempt=attempt)

        cls.submit = submit  # type: ignore[attr-defined]

    # -- one op ---------------------------------------------------------

    def run_op(self, op: int, root: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` as op number ``op`` with ``root`` as the layer that
        keeps whatever no wrapper claims; afterwards :meth:`report`
        describes this op."""
        self._op = op
        self._root = root
        self.self_ns.clear()
        self.calls.clear()
        self.counts.clear()
        self.buses.clear()
        self.matchmakers.clear()
        del self._open[:]
        self.layer = "idle"
        return self.layered(fn, root, span="op")()

    def report(self) -> dict[str, dict[str, float]]:
        """``self_s`` / ``calls`` / ``counts`` of the op that just ran."""
        if self.layer != "idle":
            raise RuntimeError(f"layer stack left at {self.layer!r}")
        counts = dict(self.counts)
        counts["observe.bus.emitted"] = sum(b.emitted for b in self.buses)
        counts["sim.matchmaker.bucket_probes"] = sum(
            m.stats.bucket_probes for m in self.matchmakers
        )
        self_s = {k: v / 1e9 for k, v in self.self_ns.items() if k != "idle"}
        calls = dict(self.calls)
        calls[self._root] -= 1  # the op itself is not a call into its root
        return {"self_s": self_s, "calls": calls, "counts": counts}

    def spans_json(self) -> list[dict[str, object]]:
        return [
            {"op": op, "name": name, "layer": layer, "start_ns": start,
             "end_ns": end, "parent": parent}
            for op, name, layer, start, end, parent in self.spans
        ]


def _subscriber_layer(subscriber: Any) -> str | None:
    owner = getattr(subscriber, "__self__", None)
    if owner is not None:
        module = type(owner).__module__
    elif isinstance(subscriber, types.FunctionType):
        module = subscriber.__module__
    else:
        module = type(subscriber).__module__
    return SUBSCRIBER_LAYERS.get(module)


def install(budget: Budget) -> None:
    """Hang ``budget`` on every seam. Call once, in a process that will
    only run traced ops: nothing here is undone."""
    import repro.core.workflow_factory
    import repro.observe
    import repro.observe.chrome_trace
    import repro.resilience
    import repro.service.loadgen
    import repro.wms.monitor
    import repro.wms.planner
    from repro.dagman.scheduler import DagmanScheduler
    from repro.observe.bus import EventBus
    from repro.observe.sampler import UtilizationSampler
    from repro.observe.trace import SpanTracer
    from repro.resilience.journal import Journal
    from repro.service import service as service_mod
    from repro.sim.cluster import CampusCluster
    from repro.sim.engine import Simulator
    from repro.sim.grid import OpportunisticGrid
    from repro.sim.matchmaker import IndexedMatchmaker
    from workloads import FastEnvironment

    fn, method = budget.wrap_function, budget.wrap_method

    # -- phase-level seams (spans) --------------------------------------
    fn("repro.core.workflow_factory", "build_blast2cap3_adag",
       "core.workflow_factory", span="build_adag")
    fn("repro.wms.planner", "plan", "wms.planner", span="plan")
    fn("repro.resilience.recovery", "run_with_recovery",
       "resilience.recovery", span="run_with_recovery")
    fn("repro.resilience.journal", "recover",
       "resilience.journal.recover", span="recover")
    fn("repro.wms.monitor", "write_trace", "wms.monitor", span="write_trace")
    fn("repro.observe.chrome_trace", "write_chrome_trace",
       "observe.chrome_trace", span="export_chrome")
    fn("repro.observe.trace", "write_otlp_trace",
       "observe.trace.otlp", span="export_otlp")
    fn("repro.observe.trace", "write_perfetto_trace",
       "observe.trace.perfetto", span="export_perfetto")
    method(SpanTracer, "finish", "observe.trace.fold", span="fold")
    method(Journal, "__init__", "resilience.journal", span="journal_open")
    method(Journal, "close", "resilience.journal", span="journal_close")
    method(service_mod.WorkflowService, "run", "service.service",
           span="service_run")

    # -- the engine: run minus callbacks; callbacks inherit -------------
    sim_run = Simulator.run

    def run_counting(sim: Any, **kwargs: Any) -> None:
        before = sim.processed
        try:
            sim_run(sim, **kwargs)
        finally:
            budget.counts["sim.engine.events"] += sim.processed - before

    Simulator.run = budget.layered(  # type: ignore[method-assign]
        run_counting, "sim.engine", span="simulate"
    )
    schedule_at = Simulator.schedule_at

    def schedule_inheriting(sim: Any, when: float, callback: Any) -> Any:
        return schedule_at(sim, when, budget.inherit(callback))

    Simulator.schedule_at = schedule_inheriting  # type: ignore[method-assign]

    # -- per-event seams ------------------------------------------------
    method(DagmanScheduler, "start", "dagman.scheduler")
    budget.wrap_platform(CampusCluster, "sim.cluster")
    budget.wrap_platform(OpportunisticGrid, "sim.grid")
    budget.wrap_platform(service_mod._Gate, "service.service")
    budget.wrap_platform(FastEnvironment, "harness.fastenv")
    method(service_mod.WorkflowService, "submit", "service.service")
    fn("repro.service.loadgen", "generate_workflow", "service.loadgen")
    method(UtilizationSampler, "start", "observe.sampler")
    method(Journal, "__call__", "resilience.journal")
    method(Journal, "snapshot", "resilience.journal")

    for name in ("find", "claim", "release", "matchable"):
        method(IndexedMatchmaker, name, "sim.matchmaker",
               counter=f"sim.matchmaker.{name}s")
    matchmaker_init = IndexedMatchmaker.__init__

    def init_matchmaker(self: Any, *args: Any, **kwargs: Any) -> None:
        budget.matchmakers.append(self)
        matchmaker_init(self, *args, **kwargs)

    IndexedMatchmaker.__init__ = init_matchmaker  # type: ignore[method-assign]

    # -- the bus: emit minus subscribers; each subscriber its own layer --
    method(EventBus, "emit", "observe.bus")
    method(EventBus, "emit_batch", "observe.bus")
    bus_init, subscribe = EventBus.__init__, EventBus.subscribe

    def init_bus(self: Any) -> None:
        budget.buses.append(self)
        bus_init(self)

    def subscribe_layered(self: Any, subscriber: Any, **kwargs: Any) -> Any:
        layer = _subscriber_layer(subscriber)
        if layer is not None:
            subscriber = budget.layered(subscriber, layer)
        return subscribe(self, subscriber, **kwargs)

    EventBus.__init__ = init_bus  # type: ignore[method-assign]
    EventBus.subscribe = subscribe_layered  # type: ignore[method-assign]
