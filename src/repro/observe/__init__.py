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
from repro.observe.chrome_trace import chrome_trace, write_chrome_trace
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
    spans_created,
    spans_from_events,
    to_otlp_json,
    to_perfetto_json,
    write_otlp_trace,
    write_perfetto_trace,
)

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
    "spans_created",
    "spans_from_events",
    "to_otlp_json",
    "to_perfetto_json",
    "write_otlp_trace",
    "write_perfetto_trace",
]

_REPORT_EXPORTS = ("build_report", "compare_reports", "load_report")


def __getattr__(name: str) -> object:
    # Lazy: repro.observe.report is also a __main__ entry point
    # (``python -m repro.observe.report``); importing it eagerly here
    # would make runpy warn about the double import.
    if name in _REPORT_EXPORTS:
        from repro.observe import report

        return getattr(report, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
