"""Tests for statistics, analyzer, and the JSONL trace log."""

import pytest

from repro.dagman.dag import Dag, DagJob
from repro.dagman.events import JobAttempt, JobStatus, WorkflowTrace
from repro.dagman.scheduler import DagmanResult, DagmanScheduler, NodeState
from repro.sim.cluster import CampusCluster
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.wms.analyzer import analyze, render_analysis
from repro.wms.monitor import (
    progress_line,
    read_trace,
    write_trace,
)
from repro.wms.statistics import per_transformation, render_report, summarize


def attempt(name, transformation="run_cap3", status=JobStatus.SUCCEEDED,
            attempt_no=1, submit=0.0, setup=50.0, start=470.0, end=3_000.0,
            error=None):
    return JobAttempt(
        job_name=name, transformation=transformation, site="osg",
        machine="m1", attempt=attempt_no, submit_time=submit,
        setup_start=setup, exec_start=start, exec_end=end, status=status,
        error=error,
    )


def sample_trace():
    trace = WorkflowTrace()
    trace.add(attempt("cap3_1"))
    trace.add(attempt("cap3_2", end=4_000.0))
    trace.add(attempt("list_1", transformation="create_list",
                      setup=10.0, start=10.0, end=200.0))
    trace.add(attempt("cap3_3", status=JobStatus.EVICTED, end=1_000.0))
    trace.add(attempt("cap3_3", attempt_no=2, end=3_500.0))
    return trace


class TestStatistics:
    def test_summary_fields(self):
        stats = summarize(sample_trace())
        assert stats.wall_time == 4_000.0
        assert stats.total_jobs == 4
        assert stats.succeeded_jobs == 4
        assert stats.failed_attempts == 1
        assert stats.retries == 1

    def test_per_transformation_breakdown(self):
        groups = {t.transformation: t for t in per_transformation(sample_trace())}
        assert set(groups) == {"run_cap3", "create_list"}
        cap3 = groups["run_cap3"]
        assert cap3.count == 3
        # kickstart = end - 470 for the successful cap3 attempts
        assert cap3.mean_kickstart == pytest.approx(
            ((3000 - 470) + (4000 - 470) + (3500 - 470)) / 3
        )
        assert groups["create_list"].mean_download_install == 0.0
        assert cap3.mean_download_install == 420.0

    def test_kickstart_excludes_failed_attempts(self):
        groups = {t.transformation: t for t in per_transformation(sample_trace())}
        # the evicted attempt (kickstart 530) must not drag the mean
        assert groups["run_cap3"].count == 3

    def test_speedup(self):
        stats = summarize(sample_trace())
        assert stats.speedup == pytest.approx(
            stats.cumulative_kickstart / stats.wall_time
        )

    def test_render_report_mentions_paper_statistics(self):
        text = render_report(summarize(sample_trace()), title="osg n=100")
        assert "Workflow wall time" in text
        assert "mean kickstart (s)" in text
        assert "mean download/install (s)" in text
        assert "run_cap3" in text

    def test_empty_trace(self):
        stats = summarize(WorkflowTrace())
        assert stats.wall_time == 0.0
        assert stats.speedup == 0.0
        assert stats.transformations == []


def failing_result():
    dag = Dag()
    dag.add_job(DagJob(name="ok", transformation="t", runtime=10))
    dag.add_job(DagJob(name="bad", transformation="t", runtime=10))
    dag.add_job(DagJob(name="blocked", transformation="t", runtime=10))
    dag.add_edge("bad", "blocked")
    trace = WorkflowTrace()
    trace.add(attempt("ok"))
    trace.add(attempt("bad", status=JobStatus.FAILED, error="boom\nlast line"))
    return DagmanResult(
        success=False,
        trace=trace,
        states={
            "ok": NodeState.DONE,
            "bad": NodeState.FAILED,
            "blocked": NodeState.UNRUNNABLE,
        },
        wall_time=3000.0,
    )


def post_mortem(result):
    """The analyzer works from what ``repro-analyzer`` has: the trace
    and the names of the planned jobs."""
    return analyze(result.trace, result.states)


class TestAnalyzer:
    def test_report_structure(self):
        report = post_mortem(failing_result())
        assert not report.success
        assert report.total_jobs == 3
        assert report.done == 1
        assert [d.job_name for d in report.failed] == ["bad"]
        assert report.unrunnable == ["blocked"]
        assert "1 job(s) failed" in report.verdict

    def test_last_error_extracted(self):
        report = post_mortem(failing_result())
        assert "boom" in report.failed[0].last_error

    def test_render(self):
        text = render_analysis(post_mortem(failing_result()))
        assert "bad" in text
        assert "blocked" in text
        assert "last line" in text

    def test_successful_run(self):
        dag = Dag()
        dag.add_job(DagJob(name="a", transformation="t", runtime=5))
        sim = Simulator()
        env = CampusCluster(sim, streams=RngStreams(seed=0))
        result = DagmanScheduler(dag, env).run()
        report = post_mortem(result)
        assert report.success
        assert report.verdict == "all jobs completed successfully"


class TestMonitor:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        trace = sample_trace()
        assert write_trace(path, trace) == 5
        back = read_trace(path)
        assert len(back) == 5
        assert back.attempts[0] == trace.attempts[0]
        assert back.attempts[3].status is JobStatus.EVICTED

    def test_error_preserved(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(
            path, [attempt("x", status=JobStatus.FAILED, error="stack trace")]
        )
        assert read_trace(path).attempts[0].error == "stack trace"

    def test_progress_line(self):
        line = progress_line(sample_trace(), total_jobs=10)
        assert line.startswith("4/10 jobs done (40.0%)")
        assert "1 failures" in line
        assert "1 retries" in line
