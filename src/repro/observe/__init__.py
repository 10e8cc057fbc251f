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

# Shares its name with the submodule, which the import system binds
# under that name without ever asking __getattr__: stays eager.
from repro.observe.chrome_trace import chrome_trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observe.analysis import (
        MakespanAttribution,
        aggregate_components,
        attribute_makespan,
    )
    from repro.observe.anomaly import (
        AnomalyMonitor,
        BlacklistStormDetector,
        QueueWaitDetector,
        RollingStats,
        SloBurnDetector,
        StragglerDetector,
    )
    from repro.observe.bus import EventBus, EventRecorder, events_to_trace
    from repro.observe.chrome_trace import write_chrome_trace
    from repro.observe.events import (
        TERMINAL_KINDS,
        EventKind,
        RunEvent,
        attempt_events,
    )
    from repro.observe.log import (
        EventLogWriter,
        iter_events,
        read_events,
        write_events,
    )
    from repro.observe.metrics import (
        Counter,
        Gauge,
        Histogram,
        MetricsRegistry,
        instrument,
        merge_summaries,
    )
    from repro.observe.profile import RusageProbe, modelled_profile
    from repro.observe.report import build_report, compare_reports, load_report
    from repro.observe.sampler import UtilizationSample, UtilizationSampler
    from repro.observe.status import StatusView, render_status
    from repro.observe.trace import (
        Span,
        SpanCriticalPath,
        SpanLink,
        SpanTracer,
        critical_path_from_spans,
        derive_span_id,
        derive_trace_id,
        spans_from_events,
        to_otlp_json,
        to_perfetto_json,
        write_otlp_trace,
        write_perfetto_trace,
    )

_EXPORTS = {
    "MakespanAttribution": ("repro.observe.analysis", "MakespanAttribution"),
    "aggregate_components": ("repro.observe.analysis", "aggregate_components"),
    "attribute_makespan": ("repro.observe.analysis", "attribute_makespan"),
    "AnomalyMonitor": ("repro.observe.anomaly", "AnomalyMonitor"),
    "BlacklistStormDetector": ("repro.observe.anomaly", "BlacklistStormDetector"),
    "QueueWaitDetector": ("repro.observe.anomaly", "QueueWaitDetector"),
    "RollingStats": ("repro.observe.anomaly", "RollingStats"),
    "SloBurnDetector": ("repro.observe.anomaly", "SloBurnDetector"),
    "StragglerDetector": ("repro.observe.anomaly", "StragglerDetector"),
    "EventBus": ("repro.observe.bus", "EventBus"),
    "EventRecorder": ("repro.observe.bus", "EventRecorder"),
    "events_to_trace": ("repro.observe.bus", "events_to_trace"),
    "write_chrome_trace": ("repro.observe.chrome_trace", "write_chrome_trace"),
    "TERMINAL_KINDS": ("repro.observe.events", "TERMINAL_KINDS"),
    "EventKind": ("repro.observe.events", "EventKind"),
    "RunEvent": ("repro.observe.events", "RunEvent"),
    "attempt_events": ("repro.observe.events", "attempt_events"),
    "EventLogWriter": ("repro.observe.log", "EventLogWriter"),
    "iter_events": ("repro.observe.log", "iter_events"),
    "read_events": ("repro.observe.log", "read_events"),
    "write_events": ("repro.observe.log", "write_events"),
    "Counter": ("repro.observe.metrics", "Counter"),
    "Gauge": ("repro.observe.metrics", "Gauge"),
    "Histogram": ("repro.observe.metrics", "Histogram"),
    "MetricsRegistry": ("repro.observe.metrics", "MetricsRegistry"),
    "instrument": ("repro.observe.metrics", "instrument"),
    "merge_summaries": ("repro.observe.metrics", "merge_summaries"),
    "RusageProbe": ("repro.observe.profile", "RusageProbe"),
    "modelled_profile": ("repro.observe.profile", "modelled_profile"),
    # repro.observe.report is also ``python -m repro.observe.report``:
    # loaded here before runpy runs it, runpy would warn and run it twice.
    "build_report": ("repro.observe.report", "build_report"),
    "compare_reports": ("repro.observe.report", "compare_reports"),
    "load_report": ("repro.observe.report", "load_report"),
    "UtilizationSample": ("repro.observe.sampler", "UtilizationSample"),
    "UtilizationSampler": ("repro.observe.sampler", "UtilizationSampler"),
    "StatusView": ("repro.observe.status", "StatusView"),
    "render_status": ("repro.observe.status", "render_status"),
    "Span": ("repro.observe.trace", "Span"),
    "SpanCriticalPath": ("repro.observe.trace", "SpanCriticalPath"),
    "SpanLink": ("repro.observe.trace", "SpanLink"),
    "SpanTracer": ("repro.observe.trace", "SpanTracer"),
    "critical_path_from_spans": ("repro.observe.trace", "critical_path_from_spans"),
    "derive_span_id": ("repro.observe.trace", "derive_span_id"),
    "derive_trace_id": ("repro.observe.trace", "derive_trace_id"),
    "spans_from_events": ("repro.observe.trace", "spans_from_events"),
    "to_otlp_json": ("repro.observe.trace", "to_otlp_json"),
    "to_perfetto_json": ("repro.observe.trace", "to_perfetto_json"),
    "write_otlp_trace": ("repro.observe.trace", "write_otlp_trace"),
    "write_perfetto_trace": ("repro.observe.trace", "write_perfetto_trace"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "MakespanAttribution",
    "aggregate_components",
    "attribute_makespan",
    "EventBus",
    "EventRecorder",
    "events_to_trace",
    "chrome_trace",
    "write_chrome_trace",
    "TERMINAL_KINDS",
    "EventKind",
    "RunEvent",
    "attempt_events",
    "EventLogWriter",
    "iter_events",
    "read_events",
    "write_events",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "instrument",
    "merge_summaries",
    "RusageProbe",
    "modelled_profile",
    "build_report",
    "compare_reports",
    "load_report",
    "UtilizationSample",
    "UtilizationSampler",
    "StatusView",
    "render_status",
    "AnomalyMonitor",
    "BlacklistStormDetector",
    "QueueWaitDetector",
    "RollingStats",
    "SloBurnDetector",
    "StragglerDetector",
    "Span",
    "SpanCriticalPath",
    "SpanLink",
    "SpanTracer",
    "critical_path_from_spans",
    "derive_span_id",
    "derive_trace_id",
    "spans_from_events",
    "to_otlp_json",
    "to_perfetto_json",
    "write_otlp_trace",
    "write_perfetto_trace",
]
