"""Tagging at the source changes who builds the event, never the event.

``tests/oracles/tagged_bus.py`` is the historical path — a private bus
per workflow whose forwarder copies each scheduler event with
``tenant``/``workflow`` merged in. The property drives it and
``DagmanScheduler(tags=...)`` through the same load × backend and
demands the same stream on the service bus, field for field, ``detail``
key order included, platform events (untagged) interleaved as before.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.dagman import scheduler as scheduler_mod
from repro.observe.bus import EventBus, EventRecorder
from repro.observe.events import EventKind, RunEvent
from repro.service import service as service_mod
from repro.service.loadgen import (
    LoadSpec,
    build_service,
    generate_workflow,
    run_load,
)
from repro.sim.rng import RngStreams
from tests.oracles.tagged_bus import ForwardingScheduler

BACKENDS = ("cluster", "grid")


def fields(event: RunEvent) -> tuple:
    return (
        event.kind,
        event.time,
        event.job_name,
        event.transformation,
        event.site,
        event.machine,
        event.attempt,
        list(event.detail.items()),
        event.record,
    )


def the_old_way():
    return mock.patch.object(
        service_mod, "DagmanScheduler", ForwardingScheduler
    )


def load_stream(spec: LoadSpec, backend: str) -> tuple[list[tuple], int]:
    bus = EventBus()
    recorder = EventRecorder(bus)
    run_load(spec, backend=backend, seed=0, bus=bus)
    return [fields(e) for e in recorder.events], bus.emitted


@st.composite
def specs(draw) -> LoadSpec:
    return LoadSpec(
        tenants=draw(st.integers(1, 3)),
        workflows_per_tenant=draw(st.integers(1, 2)),
        jobs_per_workflow=draw(st.integers(1, 9)),
        tenant_weights=draw(st.sampled_from([(1.0,), (2.0, 1.0)])),
        max_running_jobs=draw(st.sampled_from([None, 2])),
        require_software_prob=draw(st.sampled_from([0.0, 0.5, 1.0])),
        retries=draw(st.integers(0, 3)),
    )


@settings(max_examples=25, deadline=None)
@given(spec=specs(), backend=st.sampled_from(BACKENDS))
def test_tags_equal_the_forwarder(spec: LoadSpec, backend: str) -> None:
    with the_old_way():
        expected, emitted_before = load_stream(spec, backend)
    got, emitted = load_stream(spec, backend)
    assert got == expected
    assert emitted == emitted_before == len(got)
    assert any(
        f[0] is EventKind.STATE_CHANGE and "workflow" in dict(f[7])
        for f in got
    ), "no scheduler event reached the service bus"


def one_workflow(backend: str, *, tenant: str, pre_done: bool) -> list[tuple]:
    built = build_service(LoadSpec(tenants=1), backend=backend)
    recorder = EventRecorder(built.bus)
    dag = generate_workflow("wf", 5, RngStreams(seed=3))
    if pre_done:
        dag.done = set(dag.jobs)
    handle = built.service.submit(tenant, dag, name="wf")
    built.service.run()
    assert (handle.reject_reason is None) == (tenant == "tenant-00")
    return [fields(e) for e in recorder.events]


@pytest.mark.parametrize("backend", BACKENDS)
def test_rejected_workflow(backend: str) -> None:
    with the_old_way():
        expected = one_workflow(backend, tenant="nobody", pre_done=False)
    got = one_workflow(backend, tenant="nobody", pre_done=False)
    assert got == expected
    assert [f[0] for f in got] == [
        EventKind.SERVICE_SUBMIT, EventKind.SERVICE_REJECT,
    ]


@pytest.mark.parametrize("backend", BACKENDS)
def test_pre_done_rescue_dag(backend: str) -> None:
    with the_old_way():
        expected = one_workflow(backend, tenant="tenant-00", pre_done=True)
    got = one_workflow(backend, tenant="tenant-00", pre_done=True)
    assert got == expected
    assert [f[0] for f in got] == [
        EventKind.SERVICE_SUBMIT,
        EventKind.SERVICE_ADMIT,
        EventKind.WORKFLOW_START,
        EventKind.WORKFLOW_END,
        EventKind.SERVICE_WORKFLOW_DONE,
    ]
    start, end = got[2], got[3]
    assert list(dict(start[7])) == ["jobs", "name", "tenant", "workflow"]
    assert list(dict(end[7]))[-2:] == ["tenant", "workflow"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_deaf_service_bus_builds_nothing(backend: str) -> None:
    built = []

    def counting(*args, **kwargs) -> RunEvent:
        event = RunEvent(*args, **kwargs)
        built.append(event)
        return event

    bus = EventBus()
    spec = LoadSpec(tenants=2, workflows_per_tenant=1, jobs_per_workflow=6)
    with mock.patch.object(scheduler_mod, "RunEvent", counting):
        result = run_load(spec, backend=backend, seed=0, bus=bus)
    assert result["workflows_succeeded"] == 2
    assert bus.emitted == 0
    assert built == []
