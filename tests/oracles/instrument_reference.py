"""``instrument()`` as it was before the cells were memoised.

Every event walks the ``elif`` chain and goes back to the registry for
its cell — a label dict, a sort and a ``_Key`` hash each time. Slow,
and by construction the definition of which series exist and what they
hold: ``tests/test_metrics_cells.py`` replays recorded streams through
this and through :func:`repro.observe.metrics.instrument` and demands
equal ``snapshot()``s, series names included.
"""

from __future__ import annotations

from repro.observe.bus import EventBus
from repro.observe.events import EventKind, RunEvent
from repro.observe.metrics import MetricsRegistry

__all__ = ["instrument_reference"]


def instrument_reference(
    bus: EventBus, registry: MetricsRegistry | None = None
) -> MetricsRegistry:
    registry = registry or MetricsRegistry()

    def on_event(event: RunEvent) -> None:
        registry.counter("events_total", {"kind": event.kind.value}).inc()
        if event.kind is EventKind.SUBMIT:
            registry.gauge("jobs_in_flight").inc()
        elif event.kind is EventKind.RETRY:
            registry.counter("retries_total").inc()
        elif event.kind is EventKind.EVICT:
            registry.counter("evictions_total").inc()
        elif event.kind is EventKind.TIMEOUT:
            registry.counter("timeouts_total").inc()
        elif event.kind is EventKind.FAULT:
            registry.counter("faults_injected_total").inc()
        elif event.kind is EventKind.CACHE_HIT:
            registry.counter(
                "cache_hits_total",
                {"kind": str(event.detail.get("kind", ""))},
            ).inc()
        elif event.kind is EventKind.CACHE_MISS:
            registry.counter(
                "cache_misses_total",
                {"kind": str(event.detail.get("kind", ""))},
            ).inc()
        elif event.kind is EventKind.SERVICE_SUBMIT:
            registry.counter(
                "service_submissions_total",
                {"tenant": str(event.detail.get("tenant", ""))},
            ).inc()
        elif event.kind is EventKind.SERVICE_REJECT:
            registry.counter(
                "service_rejections_total",
                {"tenant": str(event.detail.get("tenant", ""))},
            ).inc()
        elif event.kind is EventKind.SERVICE_WORKFLOW_DONE:
            tenant = {"tenant": str(event.detail.get("tenant", ""))}
            registry.counter("service_workflows_done_total", tenant).inc()
            registry.histogram("service_turnaround_s", tenant).observe(
                float(event.detail.get("turnaround_s", 0.0))  # type: ignore[arg-type]
            )
            registry.histogram("service_queue_wait_s", tenant).observe(
                float(event.detail.get("queue_wait_s", 0.0))  # type: ignore[arg-type]
            )
        elif event.kind is EventKind.SAMPLE:
            registry.gauge("queue_idle").set(float(event.detail.get("idle", 0)))  # type: ignore[arg-type]
            registry.gauge("slots_busy").set(float(event.detail.get("busy", 0)))  # type: ignore[arg-type]
        if event.is_terminal and event.record is not None:
            record = event.record
            registry.gauge("jobs_in_flight").dec()
            if not record.status.is_success:
                registry.counter("failures_total").inc()
            registry.histogram(
                "kickstart_s", {"transformation": record.transformation}
            ).observe(record.kickstart_time)
            registry.histogram("waiting_s").observe(record.waiting_time)
            if record.download_install_time > 0:
                registry.histogram("download_install_s").observe(
                    record.download_install_time
                )

    bus.subscribe(on_event)
    return registry
