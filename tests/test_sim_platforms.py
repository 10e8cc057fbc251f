"""Tests for the campus-cluster and opportunistic-grid platform models."""

import pytest

from repro.dagman.dag import Dag, DagJob
from repro.dagman.events import JobStatus
from repro.dagman.scheduler import DagmanScheduler
from repro.sim.cluster import CampusCluster, CampusClusterConfig
from repro.sim.engine import Simulator
from repro.sim.failures import NO_FAILURES, FailureModel
from repro.sim.grid import GridConfig, GridSiteConfig, OpportunisticGrid
from repro.sim.machine import make_machines
from repro.sim.rng import RngStreams
from repro.wms.catalogs import CAMPUS_SHARED_FS, WAN, NetworkModel


def bag_of_jobs(n, runtime=1000.0, **kwargs):
    dag = Dag(name="bag")
    for i in range(n):
        dag.add_job(
            DagJob(name=f"job{i}", transformation="work", runtime=runtime, **kwargs)
        )
    return dag


class TestMachines:
    def test_speed_jitter_bounds(self):
        rng = RngStreams(seed=1).stream("m")
        machines = make_machines(
            rng, site="s", count=50, speed_mean=1.0, speed_spread=0.2
        )
        assert all(0.8 <= m.speed <= 1.2 for m in machines)

    def test_software_prob_extremes(self):
        rng = RngStreams(seed=2).stream("m")
        full = make_machines(rng, site="s", count=10, software_prob=1.0)
        none = make_machines(rng, site="s", count=10, software_prob=0.0)
        assert all(len(m.software) == 3 for m in full)
        assert all(len(m.software) == 0 for m in none)

    def test_classad_exposes_software(self):
        rng = RngStreams(seed=3).stream("m")
        (m,) = make_machines(rng, site="s", count=1, software_prob=1.0)
        ad = m.classad()
        assert ad.get("has_python") is True
        assert ad.get("site") == "s"

    def test_validation(self):
        rng = RngStreams(seed=4).stream("m")
        with pytest.raises(ValueError):
            make_machines(rng, site="s", count=-1)
        with pytest.raises(ValueError):
            make_machines(rng, site="s", count=1, software_prob=2.0)


class TestNetwork:
    def test_transfer_time(self):
        net = NetworkModel(name="n", bandwidth_bytes_per_s=100.0, latency_s=1.0)
        assert net.transfer_time(1000) == 11.0

    def test_zero_bytes_pays_latency(self):
        assert WAN.transfer_time(0) == WAN.latency_s

    def test_campus_faster_than_wan(self):
        size = 100_000_000
        assert CAMPUS_SHARED_FS.transfer_time(size) < WAN.transfer_time(size)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkModel(name="n", bandwidth_bytes_per_s=0)
        with pytest.raises(ValueError):
            WAN.transfer_time(-1)


class TestFailureModel:
    def test_no_failures_never_fires(self):
        rng = RngStreams(seed=5).stream("f")
        assert not any(NO_FAILURES.sample_start_failure(rng) for _ in range(100))
        assert NO_FAILURES.sample_eviction_time(rng) == float("inf")

    def test_start_failure_rate(self):
        rng = RngStreams(seed=6).stream("f")
        model = FailureModel(start_failure_prob=0.5)
        hits = sum(model.sample_start_failure(rng) for _ in range(2000))
        assert 850 < hits < 1150

    def test_eviction_mean(self):
        rng = RngStreams(seed=7).stream("f")
        model = FailureModel(eviction_rate_per_s=1 / 100.0)
        draws = [model.sample_eviction_time(rng) for _ in range(3000)]
        assert 90 < sum(draws) / len(draws) < 110

    def test_validation(self):
        with pytest.raises(ValueError):
            FailureModel(start_failure_prob=1.5)
        with pytest.raises(ValueError):
            FailureModel(eviction_rate_per_s=-1)


def run_on_campus(dag, *, config=None, seed=0):
    sim = Simulator()
    cluster = CampusCluster(
        sim, config or CampusClusterConfig(), streams=RngStreams(seed=seed)
    )
    return DagmanScheduler(dag, cluster).run(), cluster


class TestCampusCluster:
    def test_all_jobs_succeed_no_failures(self):
        result, _ = run_on_campus(bag_of_jobs(50))
        assert result.success
        assert result.trace.retry_count == 0
        assert all(a.status is JobStatus.SUCCEEDED for a in result.trace)

    def test_no_download_install_time(self):
        result, _ = run_on_campus(bag_of_jobs(20))
        assert all(a.download_install_time == 0.0 for a in result.trace)

    def test_waiting_time_small(self):
        result, _ = run_on_campus(bag_of_jobs(20))
        waits = [a.waiting_time for a in result.trace]
        assert max(waits) < CampusClusterConfig().queue_wait_max_s + 5

    def test_group_slots_bound_concurrency(self):
        config = CampusClusterConfig(group_slots=10)
        result, cluster = run_on_campus(bag_of_jobs(100), config=config)
        assert result.success
        assert cluster.peak_busy <= 10
        # 100 jobs of 1000s on 10 slots -> at least 10 waves.
        assert result.wall_time >= 10 * 1000 / 1.2

    def test_more_slots_faster(self):
        small, _ = run_on_campus(
            bag_of_jobs(100), config=CampusClusterConfig(group_slots=10)
        )
        big, _ = run_on_campus(
            bag_of_jobs(100), config=CampusClusterConfig(group_slots=100)
        )
        assert big.wall_time < small.wall_time

    def test_deterministic_given_seed(self):
        a, _ = run_on_campus(bag_of_jobs(30), seed=9)
        b, _ = run_on_campus(bag_of_jobs(30), seed=9)
        assert a.wall_time == b.wall_time

    def test_kickstart_reflects_node_speed(self):
        result, _ = run_on_campus(bag_of_jobs(30, runtime=1000.0))
        spread = CampusClusterConfig().speed_spread
        for a in result.trace:
            assert 1000 / (1 + spread) - 1 <= a.kickstart_time <= 1000 / (1 - spread) + 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CampusClusterConfig(group_slots=0)
        assert CampusClusterConfig().total_cores == 1408


def run_on_grid(dag, *, config=None, seed=0):
    sim = Simulator()
    grid = OpportunisticGrid(
        sim, config or GridConfig(), streams=RngStreams(seed=seed)
    )
    return DagmanScheduler(dag, grid, default_retries=10).run(), grid


class TestOpportunisticGrid:
    def test_setup_jobs_pay_download_install(self):
        result, _ = run_on_grid(bag_of_jobs(40, needs_setup=True))
        assert result.success
        setups = [a.download_install_time for a in result.trace.successful()]
        assert min(setups) > 0
        mean = sum(setups) / len(setups)
        assert 150 < mean < 900  # calibrated around 420 s

    def test_no_setup_jobs_skip_download_install(self):
        result, _ = run_on_grid(bag_of_jobs(20, needs_setup=False))
        succeeded = result.trace.successful()
        assert all(a.download_install_time == 0.0 for a in succeeded)

    def test_waiting_time_erratic(self):
        result, _ = run_on_grid(bag_of_jobs(60, needs_setup=True))
        waits = [a.waiting_time for a in result.trace]
        assert max(waits) > 10 * min(waits)  # the paper's "unevenly changes"

    def test_failures_and_retries_happen(self):
        config = GridConfig(
            failures=FailureModel(
                start_failure_prob=0.2, eviction_rate_per_s=1 / 5000.0
            )
        )
        result, grid = run_on_grid(
            bag_of_jobs(60, runtime=2000.0, needs_setup=True), config=config
        )
        assert result.success  # retries absorb the failures
        assert result.trace.retry_count > 0
        assert grid.start_failure_count + grid.eviction_count > 0

    def test_evictions_recorded_as_evicted(self):
        config = GridConfig(
            failures=FailureModel(eviction_rate_per_s=1 / 500.0)
        )
        result, _ = run_on_grid(
            bag_of_jobs(30, runtime=3000.0), config=config
        )
        statuses = {a.status for a in result.trace}
        assert JobStatus.EVICTED in statuses

    def test_requirements_restrict_matching(self):
        dag = bag_of_jobs(
            10, requirements="has_python and has_biopython and has_cap3"
        )
        result, _ = run_on_grid(dag)
        for a in result.trace.successful():
            assert a.machine != "(unmatched)"

    def test_unsatisfiable_requirements_time_out(self):
        config = GridConfig(
            sites=(GridSiteConfig("barren", 20, software_prob=0.0),),
        )
        dag = bag_of_jobs(3, requirements="has_cap3")
        sim = Simulator()
        grid = OpportunisticGrid(sim, config, streams=RngStreams(seed=0))
        result = DagmanScheduler(dag, grid).run()
        assert not result.success
        assert all(
            a.error == "no matching resources in the pool"
            for a in result.trace
        )

    def test_faster_cores_than_campus(self):
        grid_result, _ = run_on_grid(bag_of_jobs(40, runtime=1000.0))
        campus_result, _ = run_on_campus(bag_of_jobs(40, runtime=1000.0))
        grid_ks = [a.kickstart_time for a in grid_result.trace.successful()]
        campus_ks = [a.kickstart_time for a in campus_result.trace.successful()]
        assert sum(grid_ks) / len(grid_ks) < sum(campus_ks) / len(campus_ks)

    def test_deterministic_given_seed(self):
        a, _ = run_on_grid(bag_of_jobs(30), seed=4)
        b, _ = run_on_grid(bag_of_jobs(30), seed=4)
        assert a.wall_time == b.wall_time

    def test_total_slots_default(self):
        assert GridConfig().with_sites().total_slots == 600
