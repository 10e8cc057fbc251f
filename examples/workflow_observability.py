#!/usr/bin/env python
"""Observability: live events, metrics, status, statistics, provenance.

One OSG run of the blast2cap3 workflow, inspected with every tool the
WMS and observe layers provide — the "automated complex analysis,
real-time results" story of the paper's introduction. The run is
instrumented end to end: an event bus carries every lifecycle event
(submit/match/exec/finish/evict/retry), a metrics registry aggregates
them, and a sampler measures slot utilization on the virtual clock.

Run:  python examples/workflow_observability.py
"""

from repro.core.workflow_factory import (
    build_blast2cap3_adag,
    simulate_paper_run,
)
from repro.observe import (
    EventBus,
    EventKind,
    EventRecorder,
    StatusView,
    UtilizationSample,
    events_to_trace,
    instrument,
)
from repro.util.tables import Table
from repro.wms.analyzer import analyze, render_analysis
from repro.wms.monitor import progress_line
from repro.wms.plots import gantt, utilization, utilization_series
from repro.wms.provenance import ProvenanceDB
from repro.wms.statistics import (
    critical_path,
    per_site,
    render_report,
    summarize,
)


def main() -> None:
    n = 20
    bus = EventBus()
    recorder = EventRecorder(bus)
    metrics = instrument(bus)
    view = StatusView()
    bus.subscribe(view.update)
    result, planned = simulate_paper_run(
        n, "osg", seed=3, bus=bus, sample_interval_s=120.0
    )

    print("== status " + "=" * 50)
    print(progress_line(result.trace, total_jobs=len(planned.dag)))
    print()

    print("== live view (pegasus-status over the event bus) " + "=" * 11)
    print(view.render())
    print()

    print("== event bus " + "=" * 47)
    by_kind: dict[str, int] = {}
    for e in recorder.events:
        by_kind[e.kind.value] = by_kind.get(e.kind.value, 0) + 1
    print(f"{len(recorder.events)} events on the bus:")
    for kind, count in sorted(by_kind.items()):
        print(f"  {kind:20s} {count:5d}")
    # The stream is a faithful second witness: statistics computed from
    # events match pegasus-statistics over the scheduler's own trace.
    assert (
        summarize(events_to_trace(recorder.events), dag=planned.dag).total_jobs
        == summarize(result.trace, dag=planned.dag).total_jobs
    )
    print()

    print("== metrics " + "=" * 49)
    snap = metrics.snapshot()
    for key, value in sorted(snap["counters"].items()):
        print(f"  {key:45s} {value}")
    for name, summary in sorted(snap["histograms"].items()):
        if name.startswith("kickstart_s"):
            print(f"  {name:45s} p50={summary['p50']:.0f}s "
                  f"p95={summary['p95']:.0f}s")
    print()

    print("== sampled utilization " + "=" * 37)
    samples = [
        UtilizationSample(e.time, e.detail["busy"], e.detail["idle"])
        for e in recorder.of_kind(EventKind.SAMPLE)
    ]
    print(utilization_series(samples, width=66))
    print()

    print("== statistics " + "=" * 46)
    print(render_report(summarize(result.trace), title=f"osg n={n}"))
    print()

    print("== gantt " + "=" * 51)
    print(gantt(result.trace, width=66, max_rows=18))
    print()

    print("== utilization " + "=" * 45)
    print(utilization(result.trace, bins=60))
    print()

    print("== per-site breakdown " + "=" * 38)
    site_table = Table(["site", "jobs", "failures", "mean kickstart (s)"])
    for s in per_site(result.trace):
        site_table.add_row(s.site, s.jobs, s.failures,
                           round(s.mean_kickstart, 1))
    print(site_table.render())
    print()

    print("== retrospective critical path " + "=" * 29)
    for a in critical_path(result.trace, planned.dag.parent_sets()):
        print(f"  {a.job_name:28s} t={a.submit_time:8.0f}s .. "
              f"{a.exec_end:8.0f}s  (kickstart {a.kickstart_time:.0f}s)")
    print()

    print("== analyzer " + "=" * 48)
    print(render_analysis(analyze(result.trace, result.final.states)))
    print()

    print("== provenance " + "=" * 46)
    adag = build_blast2cap3_adag(n)
    db = ProvenanceDB(adag)
    db.record_run(result.trace)
    print(db.report("joined_3.fasta"))
    print()
    print(
        "final output derives from: "
        + ", ".join(db.external_sources("merged_transcriptome.fasta"))
    )
    print(
        f"jobs contributing to it: "
        f"{len(db.contributing_jobs('merged_transcriptome.fasta'))}"
    )


if __name__ == "__main__":
    main()
