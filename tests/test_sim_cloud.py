"""Tests for the cloud platform model (the paper's future work)."""

import pytest

from repro.core.workflow_factory import simulate_paper_run
from repro.dagman.dag import Dag, DagJob
from repro.dagman.events import JobStatus
from repro.dagman.scheduler import DagmanScheduler
from repro.sim.cloud import CloudConfig, CloudPlatform, InstanceType
from repro.sim.engine import Simulator
from repro.sim.failures import FailureModel
from repro.sim.rng import RngStreams


def bag(n, runtime=1000.0, retries=0):
    dag = Dag()
    for i in range(n):
        dag.add_job(DagJob(name=f"j{i}", transformation="work",
                           runtime=runtime, retries=retries))
    return dag


def run_cloud(dag, config=None, seed=0):
    sim = Simulator()
    cloud = CloudPlatform(sim, config or CloudConfig(),
                          streams=RngStreams(seed=seed))
    result = DagmanScheduler(dag, cloud).run()
    return result, cloud


class TestInstanceType:
    def test_validation(self):
        with pytest.raises(ValueError):
            InstanceType(name="x", speed=0, hourly_price=0.1)
        with pytest.raises(ValueError):
            InstanceType(name="x", speed=1, hourly_price=-1)


class TestCloudConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CloudConfig(max_instances=0)
        with pytest.raises(ValueError):
            CloudConfig(billing_quantum_s=0)
        with pytest.raises(ValueError):
            CloudConfig(spot_discount=0)


class TestCloudPlatform:
    def test_all_jobs_succeed_on_demand(self):
        result, cloud = run_cloud(bag(40))
        assert result.success
        assert all(a.status is JobStatus.SUCCEEDED for a in result.trace)
        assert cloud.reclaim_count == 0

    def test_no_download_install(self):
        result, _ = run_cloud(bag(10))
        assert all(a.download_install_time == 0 for a in result.trace)

    def test_boot_time_appears_as_waiting(self):
        result, _ = run_cloud(bag(10))
        waits = [a.waiting_time for a in result.trace]
        assert all(w > 30 for w in waits)  # every job waited for a boot
        assert max(w for w in waits) < CloudConfig().boot_max_s + 10

    def test_warm_instances_reused(self):
        # Two sequential waves: the second wave should reuse warm VMs.
        dag = Dag()
        for i in range(5):
            dag.add_job(DagJob(name=f"a{i}", transformation="t", runtime=100))
            dag.add_job(DagJob(name=f"b{i}", transformation="t", runtime=100))
            dag.add_edge(f"a{i}", f"b{i}")
        result, cloud = run_cloud(dag)
        assert result.success
        assert len(cloud._instances) == 5  # not 10: wave 2 reused VMs
        b_waits = [
            a.waiting_time for a in result.trace if a.job_name.startswith("b")
        ]
        assert all(w < 10 for w in b_waits)  # no boot for wave 2

    def test_idle_instances_terminate(self):
        result, cloud = run_cloud(bag(3, runtime=50))
        sim_now = cloud.now
        assert cloud.running_instances == 0
        for inst in cloud._instances:
            assert inst.terminated_at is not None

    def test_max_instances_caps_fleet(self):
        config = CloudConfig(max_instances=4)
        result, cloud = run_cloud(bag(20), config=config)
        assert result.success
        assert cloud.peak_instances <= 4

    def test_billing_rounds_up_to_quantum(self):
        config = CloudConfig(idle_timeout_s=1.0)
        result, cloud = run_cloud(bag(1, runtime=10), config=config)
        # One instance, a few minutes provisioned, billed a full hour.
        price = config.instance_type.hourly_price
        assert cloud.billed_cost() == pytest.approx(price)
        assert cloud.instance_seconds() < 3600

    def test_more_jobs_cost_more(self):
        _, small = run_cloud(bag(5, runtime=2000))
        _, big = run_cloud(bag(50, runtime=2000))
        assert big.billed_cost() > small.billed_cost()

    def test_spot_reclaims_and_retries(self):
        config = CloudConfig(
            failures=FailureModel(eviction_rate_per_s=1 / 2000.0),
            spot_discount=0.3,
        )
        result, cloud = run_cloud(bag(30, runtime=3000, retries=10),
                                  config=config)
        assert result.success
        assert cloud.reclaim_count > 0
        assert any(a.status is JobStatus.EVICTED for a in result.trace)

    def test_deterministic(self):
        a, _ = run_cloud(bag(20), seed=5)
        b, _ = run_cloud(bag(20), seed=5)
        assert a.wall_time == b.wall_time


class TestPaperScaleCloud:
    def test_cloud_workflow_succeeds(self):
        result, planned = simulate_paper_run(100, "cloud", seed=1)
        assert result.success
        assert planned.site.name == "cloud"
        # Image carries the software: no setup decoration.
        assert not any(j.needs_setup for j in planned.dag.jobs.values())

    def test_cloud_cost_accounted(self):
        result, _ = simulate_paper_run(100, "cloud", seed=1)
        env = result.final.environment
        assert isinstance(env, CloudPlatform)
        assert env.billed_cost() > 0
        assert env.instance_seconds() > 0

    def test_cloud_competitive_with_sandhills(self):
        cloud, _ = simulate_paper_run(300, "cloud", seed=1)
        campus, _ = simulate_paper_run(300, "sandhills", seed=1)
        # Boot time is minutes, not the grid's opportunistic hours: the
        # cloud plateau lands in the same band as the campus cluster.
        assert cloud.trace.wall_time() < 1.5 * campus.trace.wall_time()
