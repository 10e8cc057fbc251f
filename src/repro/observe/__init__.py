"""``repro.observe`` — the live observability layer.

The paper's evaluation speaks pegasus-monitord's language (wall time,
kickstart, waiting, download/install); this package is the substrate
those numbers and the live view both come from:

* :mod:`repro.observe.events` — the typed lifecycle event taxonomy;
* :mod:`repro.observe.bus` — the subscriber API every backend emits to;
* :mod:`repro.observe.metrics` — counters / gauges / histograms;
* :mod:`repro.observe.sampler` — periodic utilization time series;
* :mod:`repro.observe.log` — JSONL event log (monitord's jobstate.log);
* :mod:`repro.observe.chrome_trace` — Perfetto-loadable trace export;
* :mod:`repro.observe.status` — ``pegasus-status`` style live render;
* :mod:`repro.observe.profile` — kickstart resource profiling (rusage
  capture for real runs, calibrated models for simulated ones);
* :mod:`repro.observe.analysis` — critical-path makespan attribution;
* :mod:`repro.observe.trace` — causal span tracing + OTLP/Perfetto export;
* :mod:`repro.observe.anomaly` — online anomaly detectors (stragglers,
  queue-wait spikes, blacklist storms, SLO burn);
* :mod:`repro.observe.report` — ``repro-report`` analyze/compare CLI.

One run, fully observed::

    bus = EventBus()
    recorder = EventRecorder(bus)
    metrics = instrument(bus)
    result, planned = simulate_paper_run(300, "osg", bus=bus,
                                         sample_interval_s=120.0)
    write_events("events.jsonl", recorder.events)
    write_chrome_trace("trace.json", result.trace)
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observe.anomaly import (
        AnomalyMonitor,
        BlacklistStormDetector,
        QueueWaitDetector,
        SloBurnDetector,
        StragglerDetector,
    )
    from repro.observe.bus import EventBus, EventRecorder, events_to_trace
    from repro.observe.chrome_trace import write_chrome_trace
    from repro.observe.events import EventKind, RunEvent, attempt_events
    from repro.observe.log import EventLogWriter, read_events, write_events
    from repro.observe.metrics import MetricsRegistry, instrument
    from repro.observe.sampler import UtilizationSample, UtilizationSampler
    from repro.observe.status import StatusView
    from repro.observe.trace import (
        SpanTracer,
        critical_path_from_spans,
        derive_span_id,
        derive_trace_id,
        spans_from_events,
        write_otlp_trace,
        write_perfetto_trace,
    )

_EXPORTS = {
    "AnomalyMonitor": ("repro.observe.anomaly", "AnomalyMonitor"),
    "BlacklistStormDetector": ("repro.observe.anomaly", "BlacklistStormDetector"),
    "QueueWaitDetector": ("repro.observe.anomaly", "QueueWaitDetector"),
    "SloBurnDetector": ("repro.observe.anomaly", "SloBurnDetector"),
    "StragglerDetector": ("repro.observe.anomaly", "StragglerDetector"),
    "EventBus": ("repro.observe.bus", "EventBus"),
    "EventRecorder": ("repro.observe.bus", "EventRecorder"),
    "events_to_trace": ("repro.observe.bus", "events_to_trace"),
    "write_chrome_trace": ("repro.observe.chrome_trace", "write_chrome_trace"),
    "EventKind": ("repro.observe.events", "EventKind"),
    "RunEvent": ("repro.observe.events", "RunEvent"),
    "attempt_events": ("repro.observe.events", "attempt_events"),
    "EventLogWriter": ("repro.observe.log", "EventLogWriter"),
    "read_events": ("repro.observe.log", "read_events"),
    "write_events": ("repro.observe.log", "write_events"),
    "MetricsRegistry": ("repro.observe.metrics", "MetricsRegistry"),
    "instrument": ("repro.observe.metrics", "instrument"),
    "UtilizationSample": ("repro.observe.sampler", "UtilizationSample"),
    "UtilizationSampler": ("repro.observe.sampler", "UtilizationSampler"),
    "StatusView": ("repro.observe.status", "StatusView"),
    "SpanTracer": ("repro.observe.trace", "SpanTracer"),
    "critical_path_from_spans": ("repro.observe.trace", "critical_path_from_spans"),
    "derive_span_id": ("repro.observe.trace", "derive_span_id"),
    "derive_trace_id": ("repro.observe.trace", "derive_trace_id"),
    "spans_from_events": ("repro.observe.trace", "spans_from_events"),
    "write_otlp_trace": ("repro.observe.trace", "write_otlp_trace"),
    "write_perfetto_trace": ("repro.observe.trace", "write_perfetto_trace"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "AnomalyMonitor",
    "BlacklistStormDetector",
    "QueueWaitDetector",
    "SloBurnDetector",
    "StragglerDetector",
    "EventBus",
    "EventRecorder",
    "events_to_trace",
    "write_chrome_trace",
    "EventKind",
    "RunEvent",
    "attempt_events",
    "EventLogWriter",
    "read_events",
    "write_events",
    "MetricsRegistry",
    "instrument",
    "UtilizationSample",
    "UtilizationSampler",
    "StatusView",
    "SpanTracer",
    "critical_path_from_spans",
    "derive_span_id",
    "derive_trace_id",
    "spans_from_events",
    "write_otlp_trace",
    "write_perfetto_trace",
]
