"""Property-based tests over the platform simulators: any random bag of
jobs with a generous retry budget completes, with physically sensible
trace records, on every platform."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dagman.dag import Dag, DagJob
from repro.dagman.scheduler import DagmanScheduler
from repro.sim.cloud import CloudConfig, CloudPlatform
from repro.sim.cluster import CampusCluster, CampusClusterConfig
from repro.sim.engine import Simulator
from repro.sim.grid import GridConfig, OpportunisticGrid
from repro.sim.rng import RngStreams
from repro.wms.statistics import critical_path


@st.composite
def job_bag(draw):
    n = draw(st.integers(min_value=1, max_value=25))
    runtimes = draw(
        st.lists(
            st.floats(min_value=1.0, max_value=20_000.0),
            min_size=n, max_size=n,
        )
    )
    needs_setup = draw(st.booleans())
    seed = draw(st.integers(min_value=0, max_value=10_000))
    dag = Dag()
    for i, rt in enumerate(runtimes):
        dag.add_job(
            DagJob(name=f"j{i}", transformation="work", runtime=rt,
                   retries=50, needs_setup=needs_setup)
        )
    return dag, seed


def _check_trace(result, dag):
    assert result.success
    for attempt in result.trace:
        assert (
            attempt.submit_time
            <= attempt.setup_start
            <= attempt.exec_start
            <= attempt.exec_end
        )
    succeeded = {a.job_name for a in result.trace.successful()}
    assert succeeded == set(dag.jobs)
    # Wall time can never beat the longest single payload's kickstart.
    if result.trace.successful():
        longest = max(
            a.kickstart_time for a in result.trace.successful()
        )
        assert result.trace.wall_time() >= longest - 1e-6


@given(job_bag())
@settings(max_examples=30, deadline=None)
def test_campus_completes_any_bag(case):
    dag, seed = case
    env = CampusCluster(
        Simulator(), CampusClusterConfig(), streams=RngStreams(seed=seed)
    )
    result = DagmanScheduler(dag, env).run()
    _check_trace(result, dag)
    assert not result.trace.failures()  # campus never fails


@given(job_bag())
@settings(max_examples=20, deadline=None)
def test_grid_completes_any_bag(case):
    dag, seed = case
    env = OpportunisticGrid(
        Simulator(), GridConfig(), streams=RngStreams(seed=seed)
    )
    result = DagmanScheduler(dag, env).run()
    _check_trace(result, dag)


@given(job_bag())
@settings(max_examples=20, deadline=None)
def test_cloud_completes_any_bag(case):
    dag, seed = case
    env = CloudPlatform(
        Simulator(), CloudConfig(), streams=RngStreams(seed=seed)
    )
    result = DagmanScheduler(dag, env).run()
    _check_trace(result, dag)
    assert env.billed_cost() > 0


class TestCriticalPath:
    def test_chain_critical_path(self):
        dag = Dag()
        for name, rt in (("a", 10), ("b", 5000), ("c", 10)):
            dag.add_job(DagJob(name=name, transformation="t", runtime=rt))
        dag.add_edge("a", "b")
        dag.add_edge("b", "c")
        env = CampusCluster(Simulator(), streams=RngStreams(seed=0))
        result = DagmanScheduler(dag, env).run()
        chain = critical_path(result.trace, dag.parent_sets())
        assert [a.job_name for a in chain] == ["a", "b", "c"]

    def test_fan_out_critical_path_is_heaviest_branch(self):
        dag = Dag()
        dag.add_job(DagJob(name="src", transformation="t", runtime=10))
        dag.add_job(DagJob(name="light", transformation="t", runtime=50))
        dag.add_job(DagJob(name="heavy", transformation="t", runtime=9000))
        dag.add_job(DagJob(name="sink", transformation="t", runtime=10))
        for mid in ("light", "heavy"):
            dag.add_edge("src", mid)
            dag.add_edge(mid, "sink")
        env = CampusCluster(Simulator(), streams=RngStreams(seed=0))
        result = DagmanScheduler(dag, env).run()
        chain = critical_path(result.trace, dag.parent_sets())
        names = [a.job_name for a in chain]
        assert names == ["src", "heavy", "sink"]

    def test_paper_run_critical_path_is_heaviest_partition(self):
        from repro.core.workflow_factory import simulate_paper_run
        from repro.perfmodel.task_models import PaperTaskModel

        model = PaperTaskModel()
        result, planned = simulate_paper_run(10, "sandhills", seed=1,
                                             model=model)
        chain = critical_path(result.trace, planned.dag.parent_sets())
        cap3_steps = [a for a in chain if a.transformation == "run_cap3"]
        assert cap3_steps, "critical path must cross a run_cap3 task"
        heaviest = max(model.partition_runtimes(10))
        # The path's cap3 step is (close to) the heaviest partition.
        assert max(a.kickstart_time for a in cap3_steps) > 0.6 * heaviest

    def test_empty_trace(self):
        from repro.dagman.events import WorkflowTrace

        assert critical_path(WorkflowTrace(), {}) == []
