"""Memoised cells change how ``instrument()`` finds a metric, never which
metrics exist or what they hold.

``tests/oracles/instrument_reference.py`` is the historical subscriber —
an ``elif`` chain that goes back to the registry for every event. Both
are fed the same streams (a hand-built one with every arm of the chain,
recorded runs of each kind of producer, and hypothesis-drawn
sub-sequences) and must render the same ``snapshot()``: same series
names — so no cell may be created before its first event — and same
values.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.workflow_factory import (
    simulate_paper_run,
    simulate_paper_run_with_recovery,
)
from repro.dagman.events import JobAttempt, JobStatus
from repro.observe.bus import EventBus, EventRecorder
from repro.observe.events import EventKind, RunEvent
from repro.observe.metrics import MetricsRegistry, instrument
from repro.resilience import Eviction, FaultPlan, Hang, StartFailure
from repro.service.loadgen import LoadSpec, run_load
from tests.oracles.instrument_reference import instrument_reference


def attempt(
    status: JobStatus, *, setup: float = 0.0, transformation: str = "run_cap3"
) -> JobAttempt:
    return JobAttempt(
        job_name="j", transformation=transformation, site="s", machine="m",
        attempt=1, submit_time=10.0, setup_start=14.5,
        exec_start=14.5 + setup, exec_end=90.25 + setup, status=status,
        error=None if status is JobStatus.SUCCEEDED else "boom",
    )


def terminal(kind: EventKind, record: JobAttempt) -> RunEvent:
    return RunEvent(kind, record.exec_end, job_name="j", record=record)


#: One event (at least) per arm of the reference chain, plus kinds it
#: only counts.
EVERY_ARM = (
    RunEvent(EventKind.WORKFLOW_START, 0.0, detail={"jobs": 3}),
    RunEvent(EventKind.SUBMIT, 1.0, job_name="j", attempt=1),
    RunEvent(EventKind.STATE_CHANGE, 1.0, job_name="j"),
    RunEvent(EventKind.MATCH, 2.0, job_name="j"),
    RunEvent(EventKind.RETRY, 3.0, job_name="j"),
    RunEvent(EventKind.TIMEOUT, 4.0, job_name="j"),
    RunEvent(EventKind.FAULT, 5.0, detail={"fault": "hang"}),
    RunEvent(EventKind.CACHE_HIT, 6.0, detail={"kind": "cap3", "key": "k"}),
    RunEvent(EventKind.CACHE_HIT, 6.5, detail={"kind": "blastx"}),
    RunEvent(EventKind.CACHE_MISS, 7.0, detail={"kind": "cap3"}),
    RunEvent(EventKind.CACHE_MISS, 7.5),  # no kind: the "" label
    RunEvent(EventKind.SERVICE_SUBMIT, 8.0, detail={"tenant": "a", "jobs": 3}),
    RunEvent(EventKind.SERVICE_ADMIT, 8.0, detail={"tenant": "a"}),
    RunEvent(EventKind.SERVICE_REJECT, 9.0, detail={"tenant": "b"}),
    RunEvent(EventKind.SERVICE_REJECT, 9.5, detail={"tenant": 7}),
    RunEvent(
        EventKind.SERVICE_WORKFLOW_DONE, 10.0,
        detail={"tenant": "a", "turnaround_s": 300.5, "queue_wait_s": 12},
    ),
    RunEvent(EventKind.SERVICE_WORKFLOW_DONE, 11.0, detail={"tenant": "b"}),
    RunEvent(EventKind.SAMPLE, 12.0, detail={"idle": 4, "busy": 9}),
    RunEvent(EventKind.SAMPLE, 13.0),
    terminal(EventKind.FINISH, attempt(JobStatus.SUCCEEDED)),
    terminal(EventKind.FINISH, attempt(JobStatus.SUCCEEDED, setup=30.0)),
    terminal(EventKind.FINISH, attempt(JobStatus.FAILED, transformation="merge")),
    terminal(EventKind.FINISH, attempt(JobStatus.TIMEOUT)),
    terminal(EventKind.EVICT, attempt(JobStatus.EVICTED, setup=5.0)),
    RunEvent(EventKind.ANOMALY_STRAGGLER, 14.0, job_name="j"),
)


def snapshots(events) -> tuple[dict, dict]:
    new_bus, old_bus = EventBus(), EventBus()
    new, old = instrument(new_bus), instrument_reference(old_bus)
    for event in events:
        new_bus.emit(event)
        old_bus.emit(event)
    return new.snapshot(), old.snapshot()


def test_every_arm_and_every_prefix() -> None:
    new_bus, old_bus = EventBus(), EventBus()
    new, old = instrument(new_bus), instrument_reference(old_bus)
    assert new.snapshot() == old.snapshot()  # nothing exists up front
    for event in EVERY_ARM:
        new_bus.emit(event)
        old_bus.emit(event)
        assert new.snapshot() == old.snapshot(), event.kind
    final = new.snapshot()
    assert final["counters"]["failures_total"] == 3.0
    assert final["counters"]["service_rejections_total{tenant=7}"] == 1.0
    assert final["gauges"]["jobs_in_flight"] == -4.0
    assert final["histograms"]["download_install_s"]["count"] == 2
    assert {k.value for k in EventKind} >= {
        name[len("events_total{kind="):-1]
        for name in final["counters"] if name.startswith("events_total")
    }


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(EVERY_ARM), max_size=40))
def test_any_subsequence(events: list[RunEvent]) -> None:
    new, old = snapshots(events)
    assert new == old


def record_paper(site: str) -> list[RunEvent]:
    bus = EventBus()
    recorder = EventRecorder(bus)
    simulate_paper_run(12, site, seed=0, bus=bus, sample_interval_s=300.0)
    return recorder.events


def record_chaos() -> list[RunEvent]:
    bus = EventBus()
    recorder = EventRecorder(bus)
    simulate_paper_run_with_recovery(
        12, "osg", seed=1, bus=bus, max_rounds=2,
        fault_plan=FaultPlan(
            (StartFailure(0.3), Eviction(1 / 3000.0), Hang(0.1))
        ),
    )
    return recorder.events


def record_service() -> list[RunEvent]:
    bus = EventBus()
    recorder = EventRecorder(bus)
    spec = LoadSpec(tenants=3, workflows_per_tenant=2, jobs_per_workflow=8,
                    max_active_workflows=1, require_software_prob=0.5)
    run_load(spec, backend="grid", seed=0, bus=bus)
    return recorder.events


@pytest.mark.parametrize(
    "record, kinds",
    [
        (lambda: record_paper("sandhills"), {EventKind.SAMPLE}),
        (lambda: record_paper("osg"), {EventKind.SETUP_START}),
        (record_chaos, {EventKind.FAULT, EventKind.RETRY}),
        (record_service, {EventKind.SERVICE_REJECT,
                          EventKind.SERVICE_WORKFLOW_DONE}),
    ],
    ids=["sandhills-sampled", "osg-sampled", "osg-chaos", "service-grid"],
)
def test_recorded_runs(record, kinds) -> None:
    events = record()
    assert kinds <= {e.kind for e in events}
    new, old = snapshots(events)
    assert new == old
    assert list(new["counters"]) == list(old["counters"])


def test_cells_are_the_registrys_own() -> None:
    # A caller that reads (or pre-creates) a series through the registry
    # sees the same cell the subscriber bumps.
    registry = MetricsRegistry()
    retries = registry.counter("retries_total")
    bus = EventBus()
    assert instrument(bus, registry) is registry
    bus.emit(RunEvent(EventKind.RETRY, 0.0))
    bus.emit(RunEvent(EventKind.RETRY, 1.0))
    assert retries.value == 2.0
    assert registry.counter("events_total", {"kind": "job.retry"}).value == 2.0
