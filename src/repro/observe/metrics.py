"""Counters, gauges, and histograms over the event bus.

A tiny Prometheus-shaped registry: metrics are named, optionally
labelled, and cheap enough to update on every event. The registry is a
plain in-process object — ``snapshot()`` renders everything to JSON-able
primitives for export next to the event log.

:func:`instrument` wires the standard workflow metrics onto a bus:
per-kind event counters, retry/eviction counters, an in-flight gauge,
queue-depth/busy-slot gauges fed by utilization samples, and per-
transformation kickstart/waiting histograms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.observe.bus import EventBus
from repro.observe.events import EventKind, RunEvent

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "instrument",
]

Labels = tuple[tuple[str, str], ...]


def _labels(labels: Mapping[str, str] | None) -> Labels:
    return tuple(sorted((labels or {}).items()))


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that goes up and down (queue depth, busy slots)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Streaming distribution summary.

    ``observe`` appends, O(1); the values are sorted on the first
    percentile read after a write, because keeping them sorted on every
    observation would make a run's histogram quadratic in its length."""

    __slots__ = ("_values", "_sorted", "sum")

    def __init__(self) -> None:
        self._values: list[float] = []
        self._sorted = True
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self._values.append(value)
        self._sorted = False
        self.sum += value

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def mean(self) -> float:
        return self.sum / len(self._values) if self._values else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, ``p`` in [0, 100]."""
        if not 0 <= p <= 100:
            raise ValueError("p must be in [0, 100]")
        values = self._values
        if not values:
            return 0.0
        if not self._sorted:
            values.sort()
            self._sorted = True
        rank = min(len(values) - 1, round(p / 100 * (len(values) - 1)))
        return values[rank]

    def summary(self) -> dict[str, float]:
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.percentile(100),
        }


@dataclass(frozen=True)
class _Key:
    name: str
    labels: Labels


class MetricsRegistry:
    """Named, labelled metrics with lazy creation.

    >>> reg = MetricsRegistry()
    >>> reg.counter("retries").inc()
    >>> reg.counter("retries").value
    1.0
    """

    def __init__(self) -> None:
        self._counters: dict[_Key, Counter] = {}
        self._gauges: dict[_Key, Gauge] = {}
        self._histograms: dict[_Key, Histogram] = {}

    def counter(self, name: str, labels: Mapping[str, str] | None = None) -> Counter:
        return self._counters.setdefault(_Key(name, _labels(labels)), Counter())

    def gauge(self, name: str, labels: Mapping[str, str] | None = None) -> Gauge:
        return self._gauges.setdefault(_Key(name, _labels(labels)), Gauge())

    def histogram(self, name: str, labels: Mapping[str, str] | None = None) -> Histogram:
        return self._histograms.setdefault(_Key(name, _labels(labels)), Histogram())

    @staticmethod
    def _render_key(key: _Key) -> str:
        if not key.labels:
            return key.name
        inner = ",".join(f"{k}={v}" for k, v in key.labels)
        return f"{key.name}{{{inner}}}"

    def snapshot(self) -> dict[str, object]:
        """Everything, as JSON-able primitives (sorted for determinism)."""
        return {
            "counters": {
                self._render_key(k): c.value
                for k, c in sorted(self._counters.items(), key=lambda i: self._render_key(i[0]))
            },
            "gauges": {
                self._render_key(k): g.value
                for k, g in sorted(self._gauges.items(), key=lambda i: self._render_key(i[0]))
            },
            "histograms": {
                self._render_key(k): h.summary()
                for k, h in sorted(self._histograms.items(), key=lambda i: self._render_key(i[0]))
            },
        }


class _Cells(dict):  # type: ignore[type-arg]
    """Memo of registry cells: ``cells[key]`` asks ``resolve(key)`` the
    first time ``key`` is seen and is a C-level dict hit ever after."""

    def __init__(self, resolve: Callable[[Any], Any]) -> None:
        self._resolve = resolve

    def __missing__(self, key: object) -> object:
        cell = self[key] = self._resolve(key)
        return cell


def instrument(bus: EventBus, registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Subscribe the standard workflow metrics to ``bus``.

    Maintained live, from events alone:

    * ``events_total{kind=…}`` — counter per event kind;
    * ``retries_total`` / ``evictions_total`` / ``failures_total`` /
      ``timeouts_total`` / ``faults_injected_total``;
    * ``cache_hits_total{kind=…}`` / ``cache_misses_total{kind=…}`` —
      content-addressed result cache traffic;
    * ``jobs_in_flight`` — gauge (submits minus terminals);
    * ``queue_idle`` / ``slots_busy`` — gauges from utilization samples;
    * ``kickstart_s{transformation=…}``, ``waiting_s``,
      ``download_install_s`` — histograms from terminal records;
    * ``service_submissions_total{tenant=…}`` /
      ``service_rejections_total{tenant=…}`` /
      ``service_workflows_done_total{tenant=…}`` — WaaS front-end
      traffic, plus ``service_turnaround_s{tenant=…}`` and
      ``service_queue_wait_s{tenant=…}`` histograms (the per-tenant
      SLO distributions) from ``service.workflow_done`` details.
    """
    registry = registry or MetricsRegistry()
    # Each cell is resolved through the registry once, at first sight
    # (so no zero-valued series appears), and is a plain dict hit after.
    events_total = _Cells(
        lambda kind: registry.counter("events_total", {"kind": kind.value})
    )
    kickstart = _Cells(
        lambda name: registry.histogram("kickstart_s", {"transformation": name})
    )
    counters = _Cells(registry.counter)
    gauges = _Cells(registry.gauge)
    histograms = _Cells(registry.histogram)

    def labelled(name: str, label: str) -> Callable[[RunEvent], None]:
        def bump(event: RunEvent) -> None:
            value = str(event.detail.get(label, ""))
            registry.counter(name, {label: value}).inc()

        return bump

    def on_workflow_done(event: RunEvent) -> None:
        tenant = {"tenant": str(event.detail.get("tenant", ""))}
        registry.counter("service_workflows_done_total", tenant).inc()
        registry.histogram("service_turnaround_s", tenant).observe(
            float(event.detail.get("turnaround_s", 0.0))  # type: ignore[arg-type]
        )
        registry.histogram("service_queue_wait_s", tenant).observe(
            float(event.detail.get("queue_wait_s", 0.0))  # type: ignore[arg-type]
        )

    def on_sample(event: RunEvent) -> None:
        gauges["queue_idle"].set(float(event.detail.get("idle", 0)))  # type: ignore[arg-type]
        gauges["slots_busy"].set(float(event.detail.get("busy", 0)))  # type: ignore[arg-type]

    def on_terminal(event: RunEvent) -> None:
        record = event.record
        if record is None:
            return
        gauges["jobs_in_flight"].dec()
        if not record.status.is_success:
            counters["failures_total"].inc()
        kickstart[record.transformation].observe(record.kickstart_time)
        histograms["waiting_s"].observe(record.waiting_time)
        if record.download_install_time > 0:
            histograms["download_install_s"].observe(
                record.download_install_time
            )

    def on_evict(event: RunEvent) -> None:
        counters["evictions_total"].inc()
        on_terminal(event)

    handlers: dict[EventKind, Callable[[RunEvent], None]] = {
        EventKind.SUBMIT: lambda event: gauges["jobs_in_flight"].inc(),
        EventKind.RETRY: lambda event: counters["retries_total"].inc(),
        EventKind.TIMEOUT: lambda event: counters["timeouts_total"].inc(),
        EventKind.FAULT: lambda event: counters["faults_injected_total"].inc(),
        EventKind.FINISH: on_terminal,
        EventKind.EVICT: on_evict,
        EventKind.CACHE_HIT: labelled("cache_hits_total", "kind"),
        EventKind.CACHE_MISS: labelled("cache_misses_total", "kind"),
        EventKind.SERVICE_SUBMIT: labelled("service_submissions_total", "tenant"),
        EventKind.SERVICE_REJECT: labelled("service_rejections_total", "tenant"),
        EventKind.SERVICE_WORKFLOW_DONE: on_workflow_done,
        EventKind.SAMPLE: on_sample,
    }

    def on_event(event: RunEvent) -> None:
        kind = event.kind
        events_total[kind].inc()
        handler = handlers.get(kind)
        if handler is not None:
            handler(event)

    bus.subscribe(on_event)
    return registry
