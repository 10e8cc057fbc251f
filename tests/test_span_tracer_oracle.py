"""The slotted span fold is the reference fold, span for span.

:class:`repro.observe.trace.SpanTracer` keeps less per job than
``tests/oracles/span_tracer_reference.py`` (slotted spans, tuple links,
name-keyed occurrence counters, only the in-flight attempt per job), and
must hand back the same forest from ``finish()``: name, kind, ids,
parent, times, status, attributes and links, in the same order. Both
tracers listen on one bus while a run happens, as ``repro-run`` and the
service attach theirs: layered DAGs on the three platforms, with and
without chaos, hangs past a job timeout and a journal-resume marker,
under each retry policy, over two rescue rounds; and tagged tenant runs
on both service backends.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dagman.dag import Dag, DagJob
from repro.observe.bus import EventBus
from repro.observe.events import EventKind, RunEvent
from repro.observe.trace import SpanTracer
from repro.resilience import FaultPlan, Hang, StartFailure
from repro.resilience.recovery import run_simulated
from repro.resilience.retry import ExponentialBackoff, FixedDelayRetry
from repro.service.loadgen import LoadSpec, run_load
from tests.oracles.span_tracer_reference import SpanTracer as ReferenceTracer
from tests.test_implied_transitions import CHAOS, layered_dags

#: Payloads that never finish on their own: only the job's timeout ends
#: them, so the stream carries ``job.timeout`` before the record.
HANGS = FaultPlan((Hang(0.3), StartFailure(0.1)))

RESUME = RunEvent(
    EventKind.JOURNAL_RESUME, 0.0, None, None, None, None, None, None,
    {"replayed": 7, "done": 2, "torn": False, "clock": 0.0},
)


def forest(spans) -> list[tuple]:
    """Every field of every span and link, in order."""
    return [
        (s.name, s.kind, s.trace_id, s.span_id, s.parent_span_id, s.start,
         s.end, s.status, s.attributes,
         [(link.trace_id, link.span_id, link.attributes) for link in s.links])
        for s in spans
    ]


def folded_both_ways(run, *, before=()) -> list[tuple]:
    """Run ``run(bus)`` with a tracer and the reference on one bus (each
    first fed ``before``); assert they fold the same forest, return it."""
    bus = EventBus()
    tracers = SpanTracer(seed="oracle"), ReferenceTracer(seed="oracle")
    for tracer in tracers:
        for event in before:
            tracer(event)
        bus.subscribe(tracer)
    run(bus)
    new, reference = (forest(tracer.finish()) for tracer in tracers)
    assert new == reference
    return new


@st.composite
def timed_dags(draw) -> Dag:
    """:func:`layered_dags`, each job given a timeout half again its
    runtime, so a hung payload is killed and retried."""
    dag = draw(layered_dags())
    timed = Dag(name=dag.name)
    for job in dag.jobs.values():
        timed.add_job(replace(job, timeout_s=1.5 * job.runtime))
    for parent, child in dag.edges():
        timed.add_edge(parent, child)
    return timed


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    dag_and_plan=st.one_of(
        st.tuples(layered_dags(), st.sampled_from([None, CHAOS])),
        st.tuples(timed_dags(), st.just(HANGS)),
    ),
    site=st.sampled_from(["sandhills", "osg", "cloud"]),
    policy=st.sampled_from(
        [None, FixedDelayRetry(120.0), ExponentialBackoff(60.0, seed=1)]
    ),
    resumed=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_simulated_runs_fold_as_the_reference(
    dag_and_plan, site, policy, resumed, seed
):
    dag, plan = dag_and_plan
    folded_both_ways(
        lambda bus: run_simulated(
            dag, site, seed=seed, bus=bus, fault_plan=plan,
            retry_policy=policy, max_rounds=2,
        ),
        before=[RESUME] if resumed else (),
    )


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    backend=st.sampled_from(["cluster", "grid"]),
    tenants=st.integers(1, 3),
    jobs=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
def test_tenant_runs_fold_as_the_reference(backend, tenants, jobs, seed):
    spec = LoadSpec(tenants=tenants, workflows_per_tenant=2,
                    jobs_per_workflow=jobs, require_software_prob=0.5,
                    retries=2)
    folded_both_ways(lambda bus: run_load(spec, backend=backend, seed=seed,
                                          bus=bus))


def test_every_link_relation_is_compared() -> None:
    """The streams above reach each link the tracer makes: one chaotic
    OSG run whose failed jobs go to a rescue round (their attempt 1 then
    retries the previous round's last attempt) behind a resume marker,
    and one grid tenant run, whose evictions retry attempts that never
    closed."""
    dag = Dag(name="layers")
    for layer in range(3):
        for k in range(3):
            dag.add_job(DagJob(f"l{layer}j{k}", "run_cap3", runtime=600.0,
                               retries=1))
            if layer:
                dag.add_edge(f"l{layer - 1}j{k}", f"l{layer}j{k}")
                dag.add_edge(f"l{layer - 1}j{(k + 1) % 3}", f"l{layer}j{k}")
    spans = folded_both_ways(
        lambda bus: run_simulated(dag, "osg", seed=0, bus=bus,
                                  fault_plan=CHAOS, max_rounds=2),
        before=[RESUME],
    )
    spans += folded_both_ways(lambda bus: run_load(
        LoadSpec(tenants=2, workflows_per_tenant=2, jobs_per_workflow=30),
        backend="grid", seed=0, bus=bus,
    ))
    relations = Counter(
        (link[2]["relation"], span[0].endswith("/attempt-1"))
        for span in spans for link in span[9]
    )
    assert set(relations) == {
        ("released_by", False), ("retry_of", False), ("retry_of", True),
        ("rescue_continuation", False), ("journal_resume", False),
    }
