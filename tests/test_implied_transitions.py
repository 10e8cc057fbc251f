"""A run's event stream says each fact once.

The scheduler emits no ``job.state_change`` for a transition another
event already states (``job.submit``, ``job.retry`` / ``job.held``,
and — untagged, on a platform that shares its bus — a succeeded
terminal record). Its readers derive those states from the stating
event, so each must read the thinned stream exactly as the stream with
the transitions put back by ``tests/oracles/implied_transitions.expand``:
the span forest, the status view and the makespan report. A tagged
(service) scheduler restates → done only, and its stream expands to
the one it emitted while it restated everything, byte for byte.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.workflow_factory import simulate_paper_run
from repro.dagman.dag import Dag, DagJob
from repro.observe.bus import EventBus, EventRecorder, events_to_trace
from repro.observe.events import EventKind
from repro.observe.log import event_to_json_line
from repro.observe.report import build_report, render_markdown
from repro.observe.status import StatusView
from repro.perfmodel.task_models import PaperTaskModel
from repro.resilience import Eviction, FaultPlan, Slowdown, StartFailure
from repro.resilience.recovery import run_simulated
from repro.resilience.retry import ExponentialBackoff, FixedDelayRetry
from repro.service.loadgen import LoadSpec, run_load
from tests.oracles.implied_transitions import expand, implied
from tests.test_observe_trace import fold

#: (untagged events, of them ``job.state_change``) of a 100-job paper run
#: at seed 0; 765 and 1 056 events while the scheduler restated them.
PAPER_RUN = {"sandhills": (547, 109), "osg": (788, 109)}


@pytest.mark.parametrize("site", sorted(PAPER_RUN))
def test_paper_run_emits_each_fact_once(site):
    bus = EventBus()
    recorder = EventRecorder(bus)
    _, planned = simulate_paper_run(
        100, site, seed=0, model=PaperTaskModel(), bus=bus
    )
    events = recorder.events
    changes = [e for e in events if e.kind is EventKind.STATE_CHANGE]
    assert (len(events), len(changes)) == PAPER_RUN[site]
    assert not any(implied(e) for e in events)
    # Each is a readiness, with the parent that released it but for the
    # roots, whose readiness nothing released.
    assert Counter((e.detail["from"], e.detail["to"]) for e in changes) == {
        ("unready", "ready"): len(changes)
    }
    unreleased = [e.job_name for e in changes if "released_by" not in e.detail]
    roots = [n for n, ps in planned.dag.parent_sets().items() if not ps]
    assert sorted(unreleased) == sorted(roots)
    assert len(expand(events)) == {"sandhills": 765, "osg": 1056}[site]


CHAOS = FaultPlan((StartFailure(0.2), Eviction(1 / 3000.0), Slowdown(0.2, 2.0)))


@st.composite
def layered_dags(draw) -> Dag:
    """Layers of 1–4 jobs, each job after one or two of the layer
    before; short runtimes so faults and retries interleave."""
    dag = Dag(name="layered")
    previous: list[str] = []
    for layer in range(draw(st.integers(1, 4))):
        current = []
        for k in range(draw(st.integers(1, 4))):
            name = f"l{layer}j{k}"
            dag.add_job(DagJob(
                name, draw(st.sampled_from(["split", "run_cap3"])),
                runtime=float(draw(st.integers(30, 900))),
                retries=draw(st.integers(0, 3)),
                priority=draw(st.integers(-1, 1)),
            ))
            for parent in draw(
                st.lists(st.sampled_from(previous), min_size=1, max_size=2,
                         unique=True)
            ) if previous else ():
                dag.add_edge(parent, name)
            current.append(name)
        previous = current
    return dag


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    dag=layered_dags(),
    site=st.sampled_from(["sandhills", "osg", "cloud"]),
    plan=st.sampled_from([None, CHAOS]),
    policy=st.sampled_from(
        [None, FixedDelayRetry(120.0), ExponentialBackoff(60.0, seed=1)]
    ),
    seed=st.integers(0, 2**16),
)
def test_readers_see_the_same_run_in_both_forms(dag, site, plan, policy, seed):
    bus = EventBus()
    recorder = EventRecorder(bus)
    run_simulated(
        dag, site, seed=seed, bus=bus, fault_plan=plan,
        retry_policy=policy, max_rounds=2, sample_interval_s=600.0,
    )
    thinned = recorder.events
    assert not any(implied(e) for e in thinned)
    full = expand(thinned)

    def spans(events):
        return fold(events, trace_id="0" * 32)

    def status(events):
        return StatusView(total_jobs=len(dag.jobs)).feed(events).render()

    def report(events):
        return render_markdown(build_report(
            events_to_trace(events), dag=dag, events=events, label="run"
        ))

    assert spans(thinned) == spans(full)
    assert status(thinned) == status(full)
    assert report(thinned) == report(full)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    dag=layered_dags(),
    site=st.sampled_from(["sandhills", "osg", "cloud"]),
    plan=st.sampled_from([None, CHAOS]),
    policy=st.sampled_from(
        [None, FixedDelayRetry(120.0), ExponentialBackoff(60.0, seed=1)]
    ),
    seed=st.integers(0, 2**16),
)
def test_released_by_chain_is_the_dag_chain(dag, site, plan, policy, seed):
    """A bare event log's critical path, walked over the parent each
    readiness event names, is the plan's: the parent whose completion
    released a job is its latest-finishing one."""
    bus = EventBus()
    recorder = EventRecorder(bus)
    run_simulated(
        dag, site, seed=seed, bus=bus, fault_plan=plan,
        retry_policy=policy, max_rounds=2,
    )
    trace = events_to_trace(recorder.events)
    planned = build_report(trace, dag=dag)
    logged = build_report(trace, events=recorder.events)
    assert [r["job"] for r in logged["critical_path"]] == [
        r["job"] for r in planned["critical_path"]
    ]
    tolerance = max(1e-6, 0.001 * planned["makespan_s"])
    for bucket, seconds in planned["attribution"].items():
        assert abs(logged["attribution"][bucket] - seconds) <= tolerance


#: (events, sha256 of ``events.jsonl`` text) of a service run per
#: backend. A tagged scheduler restates only → done now (534 and 654
#: events while it restated → submitted and a retry's → ready / → held
#: too); its ``job.submit`` / ``job.retry`` / ``job.held`` carry the
#: same tags, so ``expand`` puts the rest back, tags included, and the
#: expanded stream must be the one recorded before, byte for byte.
SERVICE_STREAM = {
    "cluster": (462, "f5cfd235877bcdce11053d9a601b1f198bcc816287876931e6d6e9b32f5d5cac"),
    "grid": (566, "e7d74a54d4bf87e25a3753f358b376b88538eed66be1a43dbbebe2d24d031ac5"),
}
RESTATED_SERVICE_STREAM = {
    "cluster": (534, "a1d612c51f1b2db51c66349ffab0c51bdc6a495c56da87aa95831971749c6bab"),
    "grid": (654, "2932a032dbdc605bbe884d4c073d9361379c6c2918f3fe0d052b14e5e658d41e"),
}


def _stream_digest(events) -> tuple[int, str]:
    text = "".join(event_to_json_line(e) + "\n" for e in events)
    return len(events), hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("backend", sorted(SERVICE_STREAM))
def test_service_stream_is_unchanged(backend):
    bus = EventBus()
    recorder = EventRecorder(bus)
    spec = LoadSpec(tenants=3, workflows_per_tenant=2, jobs_per_workflow=12,
                    require_software_prob=0.5, retries=2)
    run_load(spec, backend=backend, seed=0, bus=bus)
    events = recorder.events
    assert _stream_digest(events) == SERVICE_STREAM[backend]
    restated = [e.detail["to"] for e in events if implied(e)]
    assert set(restated) == {"done"}
    assert _stream_digest(expand(events)) == RESTATED_SERVICE_STREAM[backend]
