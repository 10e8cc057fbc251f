"""Tests for per-site statistics, queue snapshots, the plots CLI, and
the critical path's tie rule."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.workflow_factory import simulate_paper_run
from repro.dagman.dag import Dag, DagJob
from repro.dagman.events import JobAttempt, JobStatus, WorkflowTrace
from repro.dagman.scheduler import DagmanScheduler
from repro.sim.cluster import CampusCluster
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.wms.cli import main_plan, main_plots, main_run
from repro.wms.statistics import critical_path, per_site


def attempt(name, site, status=JobStatus.SUCCEEDED, dur=100.0, attempt_no=1):
    return JobAttempt(
        job_name=name, transformation="t", site=site, machine=f"{site}-m",
        attempt=attempt_no, submit_time=0.0, setup_start=0.0,
        exec_start=0.0, exec_end=dur, status=status,
    )


class TestPerSite:
    def test_groups_by_site(self):
        trace = WorkflowTrace()
        trace.add(attempt("a", "fnal", dur=100))
        trace.add(attempt("b", "fnal", dur=300))
        trace.add(attempt("c", "ucsd", dur=50))
        trace.add(attempt("d", "ucsd", status=JobStatus.EVICTED, dur=10))
        stats = {s.site: s for s in per_site(trace)}
        assert stats["fnal"].jobs == 2
        assert stats["fnal"].mean_kickstart == 200.0
        assert stats["fnal"].failures == 0
        assert stats["ucsd"].jobs == 1
        assert stats["ucsd"].failures == 1

    def test_failure_only_site(self):
        trace = WorkflowTrace()
        trace.add(attempt("a", "flaky", status=JobStatus.FAILED))
        (s,) = per_site(trace)
        assert s.jobs == 0
        assert s.failures == 1
        assert s.mean_kickstart == 0.0

    def test_osg_run_spreads_over_sites(self):
        result, _ = simulate_paper_run(100, "osg", seed=1)
        stats = per_site(result.trace)
        assert len(stats) >= 3  # multiple VO sites contributed
        assert sum(s.jobs for s in stats) >= 100

    def test_sandhills_is_single_site(self):
        result, _ = simulate_paper_run(20, "sandhills", seed=1)
        stats = per_site(result.trace)
        assert [s.site for s in stats] == ["sandhills"]


class TestQueueStatus:
    def test_campus_queue_counts(self):
        from repro.sim.cluster import CampusClusterConfig

        sim = Simulator()
        cluster = CampusCluster(
            sim, CampusClusterConfig(group_slots=2),
            streams=RngStreams(seed=0),
        )
        dag = Dag()
        for i in range(5):
            dag.add_job(DagJob(name=f"j{i}", transformation="t", runtime=100))
        scheduler = DagmanScheduler(dag, cluster)
        scheduler.start()
        status = cluster.queue_status()
        assert status["running"] == 2
        assert status["idle"] == 3
        cluster.run_until_complete()
        assert cluster.queue_status() == {"idle": 0, "running": 0}

    def test_grid_queue_drains(self):
        from repro.sim.grid import OpportunisticGrid

        sim = Simulator()
        grid = OpportunisticGrid(sim, streams=RngStreams(seed=0))
        dag = Dag()
        for i in range(10):
            dag.add_job(
                DagJob(name=f"j{i}", transformation="t", runtime=50,
                       retries=10)
            )
        DagmanScheduler(dag, grid).run()
        assert grid.queue_status() == {"idle": 0, "running": 0}

    def test_cloud_queue_reflects_capacity(self):
        from repro.sim.cloud import CloudConfig, CloudPlatform

        sim = Simulator()
        cloud = CloudPlatform(
            sim, CloudConfig(max_instances=2), streams=RngStreams(seed=0)
        )
        dag = Dag()
        for i in range(6):
            dag.add_job(DagJob(name=f"j{i}", transformation="t", runtime=100))
        scheduler = DagmanScheduler(dag, cloud)
        scheduler.start()
        assert cloud.queue_status()["idle"] == 4  # over the 2-VM cap
        cloud.run_until_complete()
        assert cloud.queue_status() == {"idle": 0, "running": 0}


class TestPlotsCli:
    def test_plots_renders_gantt_and_utilization(self, tmp_path, capsys):
        d = tmp_path / "submit"
        assert main_plan(["--submit-dir", str(d), "-n", "10"]) == 0
        assert main_run(["--submit-dir", str(d), "--seed", "1"]) == 0
        capsys.readouterr()
        assert main_plots(["--submit-dir", str(d), "--max-rows", "12"]) == 0
        out = capsys.readouterr().out
        assert "legend:" in out
        assert "running jobs over time" in out
        assert "run_cap3" in out

    def test_plots_without_trace_exits(self, tmp_path):
        d = tmp_path / "fresh"
        main_plan(["--submit-dir", str(d), "-n", "5"])
        with pytest.raises(SystemExit):
            main_plots(["--submit-dir", str(d)])


#: One child released by four parents that all end at t = 50; prints the
#: critical path over the plan's parent sets.
TIED_PARENTS = """
from repro.dagman.dag import Dag, DagJob
from repro.dagman.events import JobAttempt, JobStatus, WorkflowTrace
from repro.wms.statistics import critical_path

dag = Dag(name="tie")
for name in "abcde":
    dag.add_job(DagJob(name, "t"))
for parent in "abcd":
    dag.add_edge(parent, "e")
trace = WorkflowTrace()
for name, start, end in (*((p, 0.0, 50.0) for p in "abcd"), ("e", 50.0, 60.0)):
    trace.add(JobAttempt(name, "t", "s", "m", 1, start, start, start, end,
                         JobStatus.SUCCEEDED))
print(" ".join(a.job_name for a in critical_path(trace, dag.parent_sets())))
"""


class TestCriticalPathTies:
    def test_tied_parents_resolve_to_the_first_name_under_any_hash_seed(self):
        """The walk once took ``max`` over a parent ``set``, so the tied
        parent on the path followed ``PYTHONHASHSEED`` (d, d, c, c, b
        under seeds 0-4)."""
        src = str(Path(repro.__file__).resolve().parents[1])
        paths = {
            subprocess.run(
                [sys.executable, "-c", TIED_PARENTS],
                env={**os.environ, "PYTHONPATH": src,
                     "PYTHONHASHSEED": str(seed)},
                capture_output=True, text=True, check=True,
            ).stdout.strip()
            for seed in range(5)
        }
        assert paths == {"a e"}

    def test_a_later_parent_still_beats_an_earlier_name(self):
        trace = WorkflowTrace()
        trace.add(attempt("a", "s", dur=50.0))
        trace.add(attempt("b", "s", dur=70.0))
        trace.add(JobAttempt("c", "t", "s", "m", 1, 70.0, 70.0, 70.0, 80.0,
                             JobStatus.SUCCEEDED))
        path = critical_path(trace, {"c": {"a", "b"}})
        assert [a.job_name for a in path] == ["b", "c"]
