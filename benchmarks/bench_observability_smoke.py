"""Observability smoke: one Fig. 4-scale run, fully instrumented.

Runs the paper-scale blast2cap3 workflow (n=300) on both platforms with
the :mod:`repro.observe` layer attached — event bus, metrics registry,
utilization sampler — and writes every exporter's artifact under
``benchmarks/results/`` (CI uploads these):

* ``observability_<platform>_events.jsonl``  — live event log;
* ``observability_<platform>_trace.chrome.json`` — Perfetto-loadable;
* ``observability_<platform>_trace.otlp.json`` — OTLP-JSON causal spans;
* ``observability_<platform>_trace.perfetto.json`` — TracePackets;
* ``observability_<platform>_utilization.tsv`` — sampled time series;
* ``observability_smoke.txt`` — consistency report.

The assertions are the acceptance criteria for the observe layer: the
bus-derived trace must equal the scheduler's own trace, the statistics
computed from the event stream must match ``pegasus-statistics`` over
the classic trace, the live status view must agree with both, and the
span-derived critical path must agree with the attribution buckets.
What the observers cost in host time is not measured here: it is the
``svc_cluster_observed`` rows of ``benchmarks/gates.py``.
"""

import json

from conftest import RESULTS_DIR, write_result

from repro.core.workflow_factory import simulate_paper_run
from repro.observe import (
    AnomalyMonitor,
    EventBus,
    EventKind,
    EventRecorder,
    SpanTracer,
    StatusView,
    UtilizationSample,
    derive_trace_id,
    events_to_trace,
    instrument,
    read_events,
    write_chrome_trace,
    write_events,
    write_otlp_trace,
    write_perfetto_trace,
)
from repro.observe.report import build_report
from repro.wms.monitor import read_trace, write_utilization
from repro.wms.statistics import render_report, summarize

N = 300
SEED = 0
SAMPLE_INTERVAL_S = 300.0


def _observed_run(platform, model):
    bus = EventBus()
    recorder = EventRecorder(bus)
    metrics = instrument(bus)
    view = StatusView()
    bus.subscribe(view.update)
    tracer = SpanTracer(
        trace_id=derive_trace_id(f"smoke-{platform}-n{N}-seed{SEED}"),
        bus=bus,
    )
    monitor = AnomalyMonitor(bus)
    result, planned = simulate_paper_run(
        N, platform, seed=SEED, model=model,
        bus=bus, sample_interval_s=SAMPLE_INTERVAL_S,
    )
    return result, planned, recorder, metrics, view, tracer, monitor


def test_observability_smoke(paper_model, benchmark):
    RESULTS_DIR.mkdir(exist_ok=True)
    report_lines = [
        f"Observability smoke — n={N}, seed={SEED}, "
        f"sampling every {SAMPLE_INTERVAL_S:.0f}s",
        "",
    ]
    for platform in ("sandhills", "osg"):
        result, planned, recorder, metrics, view, tracer, monitor = (
            _observed_run(platform, paper_model)
        )
        assert result.success, f"{platform} run failed"
        events = recorder.events
        spans = tracer.finish()

        # -- the bus is a faithful second witness of the run --------------
        bus_trace = events_to_trace(events)
        assert sorted(
            bus_trace, key=lambda a: (a.job_name, a.attempt)
        ) == sorted(
            result.trace, key=lambda a: (a.job_name, a.attempt)
        ), "bus-derived trace != scheduler trace"

        # -- statistics from events == pegasus-statistics over the trace --
        stats_events = summarize(bus_trace, dag=planned.dag)
        stats_trace = summarize(result.trace, dag=planned.dag)
        assert stats_events == stats_trace
        assert stats_events.total_jobs == len(planned.dag.jobs)
        assert stats_events.unattempted_jobs == 0

        # -- the live view converged to the same numbers ------------------
        assert view.workflow_done is True
        assert len(view.done) == stats_trace.succeeded_jobs
        assert view.retries == result.trace.retry_count

        # -- sampler produced a plausible utilization series --------------
        samples = [e for e in events if e.kind is EventKind.SAMPLE]
        assert samples, "no utilization samples on the bus"
        peak_sampled = max(e.detail["busy"] for e in samples)
        assert 0 < peak_sampled <= len(planned.dag.jobs)

        # -- metrics registry agrees with the trace -----------------------
        snap = metrics.snapshot()
        finishes = snap["counters"].get("events_total{kind=job.finish}", 0)
        evictions = snap["counters"].get("events_total{kind=job.evict}", 0)
        assert finishes + evictions == len(result.trace)

        # -- exporters: JSONL round-trips, Chrome trace is well-formed ----
        events_path = RESULTS_DIR / f"observability_{platform}_events.jsonl"
        write_events(events_path, events)
        assert events_to_trace(read_events(events_path)) == bus_trace
        # ...and the classic reader sees exactly the attempts.
        assert sorted(
            read_trace(events_path), key=lambda a: (a.job_name, a.attempt)
        ) == sorted(result.trace, key=lambda a: (a.job_name, a.attempt))

        chrome_path = (
            RESULTS_DIR / f"observability_{platform}_trace.chrome.json"
        )
        write_chrome_trace(
            chrome_path, result.trace,
            samples=[
                UtilizationSample(e.time, e.detail["busy"], e.detail["idle"])
                for e in samples
            ],
            workflow=f"blast2cap3-n{N}-{platform}",
        )
        loaded = json.loads(chrome_path.read_text())
        complete = [e for e in loaded["traceEvents"] if e["ph"] == "X"]
        counters = [e for e in loaded["traceEvents"] if e["ph"] == "C"]
        assert counters and complete
        assert all(e["dur"] >= 0 and e["ts"] >= 0 for e in complete)
        exec_events = [e for e in complete if e["cat"] == "exec"]
        assert len(exec_events) == len(result.trace)

        # -- OTLP + Perfetto span exports validate structurally -----------
        otlp_path = RESULTS_DIR / f"observability_{platform}_trace.otlp.json"
        write_otlp_trace(otlp_path, spans)
        otlp = json.loads(otlp_path.read_text())
        otlp_spans = otlp["resourceSpans"][0]["scopeSpans"][0]["spans"]
        assert len(otlp_spans) == len(spans)
        ids = {s["spanId"] for s in otlp_spans}
        assert len(ids) == len(otlp_spans), "span ids must be unique"
        for s in otlp_spans:
            assert len(s["traceId"]) == 32 and len(s["spanId"]) == 16
            assert int(s["endTimeUnixNano"]) >= int(s["startTimeUnixNano"])
            if s.get("parentSpanId"):
                assert s["parentSpanId"] in ids, "dangling parent"

        perfetto_path = (
            RESULTS_DIR / f"observability_{platform}_trace.perfetto.json"
        )
        write_perfetto_trace(perfetto_path, spans)
        perfetto = json.loads(perfetto_path.read_text())
        tracks = {
            p["trackDescriptor"]["uuid"]
            for p in perfetto["packet"] if "trackDescriptor" in p
        }
        slices = [p for p in perfetto["packet"] if "trackEvent" in p]
        assert tracks and slices
        assert all(p["trackEvent"]["trackUuid"] in tracks for p in slices)
        begins = sum(
            1 for p in slices
            if p["trackEvent"]["type"] == "TYPE_SLICE_BEGIN"
        )
        ends = len(slices) - begins
        assert begins == ends, "unbalanced Perfetto slice stack"

        util_path = RESULTS_DIR / f"observability_{platform}_utilization.tsv"
        write_utilization(
            util_path,
            (UtilizationSample(e.time, e.detail["busy"], e.detail["idle"])
             for e in samples),
        )

        # -- makespan attribution: the buckets must tile the makespan --
        attribution = build_report(
            result.trace, dag=planned.dag, events=events,
            label=f"smoke-{platform}-n{N}-seed{SEED}",
        )
        assert (
            abs(
                sum(attribution["attribution"].values())
                - attribution["makespan_s"]
            )
            < 1e-6
        ), "attribution buckets do not sum to the makespan"
        # ...and the span-derived critical path must agree with it:
        # two independent decompositions of the same makespan.
        trace_section = attribution["trace"]
        assert trace_section["agrees_with_attribution"], (
            f"span critical path disagrees with attribution by "
            f"{trace_section['max_bucket_delta_s']:.3f}s"
        )
        assert (
            abs(trace_section["tiling_total_s"] - trace_section["makespan_s"])
            < 1e-6
        ), "span tiling does not sum to the makespan"
        report_path = RESULTS_DIR / f"observability_{platform}_report.json"
        report_path.write_text(json.dumps(attribution, indent=2) + "\n")
        report_lines += [
            f"[{platform}] wall={result.trace.wall_time():,.0f}s "
            f"attempts={len(result.trace)} retries={result.trace.retry_count}",
            f"[{platform}] events={len(events)} samples={len(samples)} "
            f"peak_busy_sampled={peak_sampled}",
            f"[{platform}] spans={len(spans)} "
            f"alerts={len(monitor.alerts)} "
            f"span-critical-path == attribution: OK",
            f"[{platform}] bus-trace == scheduler-trace: OK; "
            "summarize(events) == summarize(trace): OK",
            "",
        ]
        # Keep a statistics report next to the artifacts for eyeballing.
        report_lines.append(
            render_report(stats_trace, title=f"{platform} n={N} (observed)")
        )
        report_lines.append("")

    write_result("observability_smoke", "\n".join(report_lines))

    # benchmark: the instrumented run should not be meaningfully slower
    # than the bare one benchmarked in bench_fig4_walltime.
    benchmark(lambda: _observed_run("sandhills", paper_model))
