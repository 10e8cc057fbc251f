"""A job's attempt history is ordered in one place.

``WorkflowTrace.by_job()`` / ``final_attempts()`` decide which attempts
belong to a job, in what order, and which one is its last — by submit
time, because attempt numbers restart at 1 in every rescue round and a
resumed in-flight attempt re-runs under its old number. Every reader
(attribution, the span cross-check, the Chrome trace's retry arrows,
``critical_path``, the analyzer) goes through them; before PR 24 four of
six re-derivations ordered by attempt number, and a run that took a
rescue round booked most of its makespan as ``idle`` and disagreed with
its own span cross-check. Nothing covered that composition.
"""

import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.workflow_factory import (
    simulate_paper_run,
    simulate_paper_run_with_recovery,
)
from repro.dagman.dag import Dag, DagJob
from repro.dagman.events import JobAttempt, JobStatus, WorkflowTrace
from repro.observe.analysis import (
    BUCKETS,
    _chain_from_timeline,
    attribute_makespan,
)
from repro.observe.chrome_trace import chrome_trace
from repro.observe.report import build_report
from repro.resilience import FaultPlan, StartFailure
from repro.wms.analyzer import analyze
from repro.wms.cli import main_plan, main_run
from repro.wms.monitor import load_run
from repro.wms.planner import PlannerOptions
from repro.wms.statistics import critical_path, per_site, per_transformation
from tests.oracles.timeline_chain import chain_from_timeline_reference


def _attempt(job, attempt, submit, end, status=JobStatus.FAILED):
    return JobAttempt(
        job_name=job, transformation="t", site="s", machine="m",
        attempt=attempt, submit_time=submit, setup_start=submit,
        exec_start=submit, exec_end=end, status=status,
    )


def _time_key(a):
    return (a.submit_time, a.attempt)


# -- the composition nothing covered: plan, run four rounds, report -------


def test_cli_run_with_rescue_rounds_books_no_idle(tmp_path, capsys):
    d = str(tmp_path / "submit")
    assert main_plan(
        ["--submit-dir", d, "-n", "12", "--site", "osg", "--retries", "2"]
    ) == 0
    assert main_run(
        ["--submit-dir", d, "--seed", "3", "--max-rescue-rounds", "4",
         "--chaos-start-failure", "0.45"]
    ) == 0
    assert "4 round(s)" in capsys.readouterr().out
    run = load_run(d)
    report = build_report(
        run.trace, dag=run.dag, metrics=run.metrics, events=run.events
    )
    attribution = report["attribution"]
    # Rounds 2-4 re-submit under attempt 1: a reader that takes the
    # highest-numbered attempt as final lands in round 1 and books the
    # 85 943 s the re-runs took as scheduler idleness.
    assert attribution["idle"] < 1.0
    assert attribution["retry_lost"] == pytest.approx(96_997, abs=1.0)
    assert sum(attribution.values()) == pytest.approx(
        report["makespan_s"], abs=1e-6
    )
    assert report["trace"]["agrees_with_attribution"] is True
    assert report["trace"]["max_bucket_delta_s"] < 1e-6


# -- by_job / final_attempts over multi-round traces ----------------------


@st.composite
def multi_round_traces(draw):
    """Several jobs, each run in one to three rounds whose attempt
    numbers restart at 1; a round may end with its in-flight attempt
    re-run under the *same* number (a resume); trace order shuffled."""
    attempts = []
    for j in range(draw(st.integers(1, 4))):
        clock = float(draw(st.integers(0, 50)))
        for _ in range(draw(st.integers(1, 3))):
            tries = draw(st.integers(1, 3))
            numbers = list(range(1, tries + 1))
            if draw(st.booleans()):
                numbers.append(tries)
            for number in numbers:
                # A hold of zero puts two submits on one instant.
                clock += draw(st.integers(0, 20))
                end = clock + draw(st.integers(0, 30))
                attempts.append(_attempt(f"j{j}", number, clock, end))
                clock = end
    return WorkflowTrace(draw(st.permutations(attempts)))


@given(multi_round_traces())
@settings(max_examples=150, deadline=None)
def test_final_attempt_is_the_latest_submitted(trace):
    by_job = trace.by_job()
    final = trace.final_attempts()
    assert list(by_job) == list(dict.fromkeys(a.job_name for a in trace))
    assert sum(map(len, by_job.values())) == len(trace)
    for job, attempts in by_job.items():
        assert {a.job_name for a in attempts} == {job}
        assert attempts == sorted(attempts, key=_time_key)
        assert attempts == trace.for_job(job)
        assert final[job] is attempts[-1]
        assert _time_key(final[job]) == max(
            _time_key(a) for a in trace if a.job_name == job
        )
    assert trace.for_job("nobody") == []


@given(multi_round_traces())
@settings(max_examples=150, deadline=None)
def test_retry_count_is_every_resubmission(trace):
    """A rescue round's re-submit restarts at attempt 1, and a resumed
    attempt re-runs under its old number: both are retries, so the
    count is attempts minus jobs, not attempts numbered above 1."""
    by_job = trace.by_job()
    assert trace.retry_count == len(trace) - len(by_job)
    assert trace.retry_count == sum(len(a) - 1 for a in by_job.values())
    one_round = WorkflowTrace([
        _attempt(job, n, 0.0, 1.0)
        for job, attempts in by_job.items()
        for n in range(1, len(attempts) + 1)
    ])
    assert one_round.retry_count == sum(1 for a in one_round if a.attempt > 1)


@pytest.mark.parametrize("seed, rounds, retries", [
    (0, 4, 31), (1, 4, 27), (2, 4, 38), (3, 4, 58), (4, 4, 50), (5, 3, 40),
])
def test_retry_count_sees_rescue_rounds(seed, rounds, retries):
    """The tight-budget cell of ``bench_chaos_sweep``; counting attempts
    numbered above 1 read 25 / 22 / 30 / 46 / 37 / 33."""
    outcome, _ = simulate_paper_run_with_recovery(
        12, "osg", seed=seed, planner_options=PlannerOptions(retries=2),
        fault_plan=FaultPlan((StartFailure(0.45),)), max_rounds=4,
    )
    assert len(outcome.rounds) == rounds
    assert outcome.trace.retry_count == retries
    assert retries > sum(1 for a in outcome.trace if a.attempt > 1)


def test_final_successful_attempt_skips_later_failures():
    trace = WorkflowTrace([
        _attempt("a", 1, 0, 10, JobStatus.SUCCEEDED),
        _attempt("a", 1, 20, 30),  # round 2, numbered 1 again
        _attempt("b", 1, 0, 5),
    ])
    assert trace.final_attempts()["a"].submit_time == 20
    done = trace.final_attempts(successful_only=True)
    assert list(done) == ["a"] and done["a"].submit_time == 0


def test_readers_follow_time_order_across_a_rescue_round():
    # Round 1: a#1 and a#2 fail. Round 2 re-submits a as #1 and succeeds.
    trace = WorkflowTrace([
        _attempt("a", 1, 0, 10),
        _attempt("a", 2, 12, 20),
        _attempt("a", 1, 100, 130, JobStatus.SUCCEEDED),
    ])
    dag = Dag(name="one")
    dag.add_job(DagJob(name="a", transformation="t", runtime=1.0))
    for attempts in ("final", "successful"):
        (last,) = critical_path(trace, dag, attempts=attempts)
        assert last.submit_time == 100
    for at in (attribute_makespan(trace, dag), attribute_makespan(trace)):
        assert at.buckets["retry_lost"] == pytest.approx(100.0)
        assert at.buckets["exec"] == pytest.approx(30.0)
        assert at.buckets["idle"] == 0.0
    flows = [
        e["ts"] for e in chrome_trace(trace)["traceEvents"]
        if e.get("cat") == "retry"
    ]
    assert flows == sorted(flows) == [10e6, 12e6, 20e6, 100e6]
    # The post-mortem tells a still-failed job's story in time order too.
    failed = WorkflowTrace(list(reversed(trace.attempts[:2])))
    (diagnosis,) = analyze(failed, ["a", "b"]).failed
    assert [a.attempt for a in diagnosis.attempts] == [1, 2]
    assert analyze(failed, ["a", "b"]).unrunnable == ["b"]


# -- the DAG-free chain: same hops as the cubic walk, in O(n log n) -------


@st.composite
def tied_traces(draw):
    """Small integer clocks, so first submits and ``exec_end`` tie."""
    attempts = []
    for j in range(draw(st.integers(1, 7))):
        submit = draw(st.integers(0, 6))
        for number in range(1, draw(st.integers(1, 3)) + 1):
            end = submit + draw(st.integers(0, 4))
            attempts.append(_attempt(f"j{j}", number, float(submit), float(end)))
            submit = end + draw(st.integers(0, 2))
    return WorkflowTrace(draw(st.permutations(attempts)))


@given(tied_traces())
@settings(max_examples=300, deadline=None)
def test_timeline_chain_equals_the_reference_walk(trace):
    chain = _chain_from_timeline(trace)
    reference = chain_from_timeline_reference(trace)
    assert len(chain) == len(reference)
    assert all(a is b for a, b in zip(chain, reference))
    at = attribute_makespan(trace)
    assert at.path_jobs == [a.job_name for a in reference]
    assert sum(at.buckets.values()) == pytest.approx(at.makespan_s, abs=1e-6)


def test_serial_chain_of_5000_jobs_attributes_in_under_a_second():
    # The cubic walk took 1.8 s at 500 jobs and 113.6 s at 2 000.
    trace = WorkflowTrace([
        _attempt(f"j{i}", 1, 10.0 * i, 10.0 * i + 9, JobStatus.SUCCEEDED)
        for i in range(5_000)
    ])
    start = time.perf_counter()
    at = attribute_makespan(trace)
    assert time.perf_counter() - start < 1.0
    assert len(at.path_jobs) == 5_000
    assert at.buckets["idle"] == pytest.approx(4_999.0)
    assert at.buckets["exec"] == pytest.approx(45_000.0)


# -- one aggregation of Fig 5's series ------------------------------------


def test_report_rows_are_the_statistics_modules():
    result, planned = simulate_paper_run(12, "osg", seed=0)
    report = build_report(result.trace, dag=planned.dag)
    by_type = {t.transformation: t for t in per_transformation(result.trace)}
    assert list(report["per_transformation"]) == list(by_type)
    for name, row in report["per_transformation"].items():
        assert row == {
            "count": by_type[name].count,
            "kickstart_mean": by_type[name].mean_kickstart,
            "kickstart_max": by_type[name].max_kickstart,
            "waiting_mean": by_type[name].mean_waiting,
            "setup_mean": by_type[name].mean_download_install,
        }
    sites = per_site(result.trace)
    assert list(report["per_site"]) == [s.site for s in sites]
    assert sum(r["attempts"] for r in report["per_site"].values()) == len(
        result.trace
    )
    for s in sites:
        assert report["per_site"][s.site] == {
            "attempts": s.jobs + s.failures,
            "failures": s.failures,
            "kickstart_total": s.total_kickstart,
        }
    assert set(report["attribution"]) == set(BUCKETS)
