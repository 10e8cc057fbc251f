"""The multi-tenant Workflow-as-a-Service layer.

Admission control, quotas, accounting, SLO reporting, and the stride
fair-share pump — including the hypothesis invariants ISSUE 9 names:
no tenant with ready work starves, long-run slot shares converge to
the configured weights, and the tenant-tagged ``service.*`` event
stream is identical in shape across the cluster and grid backends.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.dagman.dag import Dag, DagJob
from repro.observe.bus import EventBus, EventRecorder
from repro.observe.events import EventKind
from repro.service.fairshare import StrideScheduler
from repro.service.loadgen import (
    LoadSpec,
    build_service,
    generate_workflow,
    run_load,
)
from repro.service.service import WorkflowService, WorkflowState
from repro.service.tenants import TenantConfig, TenantQuota
from repro.sim.cluster import CampusCluster, CampusClusterConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams

SERVICE_KINDS = (
    EventKind.SERVICE_SUBMIT,
    EventKind.SERVICE_ADMIT,
    EventKind.SERVICE_REJECT,
    EventKind.SERVICE_WORKFLOW_DONE,
)


def _parallel_dag(name, jobs, runtime=30.0):
    dag = Dag(name=name)
    for i in range(jobs):
        dag.add_job(DagJob(
            name=f"{name}-j{i}", transformation="blast2cap3",
            runtime=runtime,
        ))
    return dag


def _small_service(*tenants, slots=4, **svc_kwargs):
    simulator = Simulator()
    env = CampusCluster(
        simulator,
        CampusClusterConfig(group_slots=slots),
        streams=RngStreams(seed=5),
    )
    service = WorkflowService(env, **svc_kwargs)
    for tenant in tenants:
        if isinstance(tenant, str):
            tenant = TenantConfig(name=tenant)
        service.add_tenant(tenant)
    return service


class TestStrideScheduler:
    def test_shares_converge_to_weights(self):
        sched = StrideScheduler()
        sched.register("heavy", 2.0)
        sched.register("light", 1.0)
        served = Counter()
        for _ in range(300):
            name = sched.select(["heavy", "light"])
            sched.charge(name)
            served[name] += 1
        assert served["heavy"] == pytest.approx(200, abs=2)
        assert served["light"] == pytest.approx(100, abs=2)

    @given(
        st.dictionaries(
            st.sampled_from([f"t{i}" for i in range(6)]),
            st.floats(min_value=0.25, max_value=8.0),
            min_size=2, max_size=6,
        ),
        st.integers(min_value=50, max_value=400),
    )
    @settings(max_examples=60, deadline=None)
    def test_no_starvation_and_weight_convergence(self, weights, rounds):
        sched = StrideScheduler()
        for name, weight in weights.items():
            sched.register(name, weight)
        names = sorted(weights)
        served = Counter()
        for _ in range(rounds):
            chosen = sched.select(names)
            assert chosen is not None
            sched.charge(chosen)
            served[chosen] += 1
        total_weight = sum(weights.values())
        for name in names:
            expected = rounds * weights[name] / total_weight
            # Stride scheduling lag is bounded: nobody starves, nobody
            # banks more than ~one serve per competitor of drift.
            assert abs(served[name] - expected) <= len(names) + 1

    def test_no_banked_credit_for_returning_idle_tenant(self):
        sched = StrideScheduler()
        sched.register("busy", 1.0)
        sched.register("idle", 1.0)
        for _ in range(100):
            sched.charge("busy")
        # "idle" rejoins with pass 0: it gets at most one catch-up
        # serve, then must alternate — not 100 banked serves.
        streak = []
        for _ in range(10):
            name = sched.select(["busy", "idle"])
            sched.charge(name)
            streak.append(name)
        assert streak.count("idle") <= 6
        assert "busy" in streak[:3]

    def test_select_ignores_unknown_and_handles_empty(self):
        sched = StrideScheduler()
        sched.register("a", 1.0)
        assert sched.select([]) is None
        assert sched.select(["ghost"]) is None
        assert sched.select(["ghost", "a"]) == "a"

    def test_register_rejects_nonpositive_weight(self):
        sched = StrideScheduler()
        with pytest.raises(ValueError):
            sched.register("a", 0.0)


class TestAdmissionControl:
    def test_unknown_tenant_rejected(self):
        service = _small_service("alice")
        handle = service.submit("mallory", _parallel_dag("wf", 2))
        assert handle.state is WorkflowState.REJECTED
        assert "unknown tenant" in handle.reject_reason

    def test_infeasible_requirements_rejected_with_hint(self):
        service = _small_service("alice")
        dag = Dag(name="wf")
        dag.add_job(DagJob(
            name="j0", transformation="blast2cap3", runtime=10.0,
            requirements="has_python and has_gpu",
        ))
        handle = service.submit("alice", dag)
        assert handle.state is WorkflowState.REJECTED
        assert "has_gpu" in handle.reject_reason
        assert service.account("alice").workflows_rejected == 1
        assert service.account("alice").active_workflows == 0

    def test_max_active_workflows_quota(self):
        service = _small_service(TenantConfig(
            name="alice",
            quota=TenantQuota(max_active_workflows=1),
        ))
        first = service.submit("alice", _parallel_dag("wf-a", 2))
        assert first.state is WorkflowState.RUNNING
        second = service.submit("alice", _parallel_dag("wf-b", 2))
        assert second.state is WorkflowState.REJECTED
        assert "max_active_workflows" in second.reject_reason
        service.run()
        assert first.state is WorkflowState.DONE
        # The quota slot freed up: a resubmission is admitted.
        third = service.submit("alice", _parallel_dag("wf-c", 2))
        assert third.state is WorkflowState.RUNNING
        service.run()
        assert third.state is WorkflowState.DONE


class TestQuotasAndPump:
    def test_max_running_jobs_is_a_hard_ceiling(self):
        service = _small_service(
            TenantConfig(
                name="alice", quota=TenantQuota(max_running_jobs=2)
            ),
            slots=16,
        )
        env = service.environment
        peaks = []
        original = env.submit

        def spy(job, on_complete, *, attempt=1):
            peaks.append(service.account("alice").running_jobs)
            original(job, on_complete, attempt=attempt)

        env.submit = spy
        handle = service.submit("alice", _parallel_dag("wide", 12))
        service.run()
        assert handle.result.success
        assert max(peaks) <= 2
        assert service.account("alice").jobs_completed == 12

    def test_max_in_flight_bounds_platform_queue(self):
        # The platform's capacity is the bound: 3 slots, 10 ready jobs.
        service = _small_service("alice", slots=3)
        env = service.environment
        in_flight_at_release = []
        original = env.submit

        def spy(job, on_complete, *, attempt=1):
            in_flight_at_release.append(service.in_flight)
            original(job, on_complete, attempt=attempt)

        env.submit = spy
        service.submit("alice", _parallel_dag("wide", 10))
        service.run()
        assert max(in_flight_at_release) <= 3
        assert service.in_flight == 0
        assert service.parked_jobs == 0

    def test_weighted_tenants_interleave_by_stride(self):
        service = _small_service(
            TenantConfig(name="heavy", weight=3.0),
            TenantConfig(name="light", weight=1.0),
            slots=1,
        )
        env = service.environment
        order = []
        original = env.submit

        def spy(job, on_complete, *, attempt=1):
            order.append("heavy" if job.name.startswith("heavy") else "light")
            original(job, on_complete, attempt=attempt)

        env.submit = spy
        service.submit("heavy", _parallel_dag("heavy", 40))
        service.submit("light", _parallel_dag("light", 40))
        service.run()
        # While both tenants had parked work (the first 40 + releases),
        # serves split ~3:1 by stride.
        window = order[:40]
        assert window.count("heavy") == pytest.approx(30, abs=2)
        assert window.count("light") == pytest.approx(10, abs=2)

    def test_accounting_balances_after_run(self):
        service = _small_service("alice", "bob", slots=6)
        service.submit("alice", _parallel_dag("a1", 5))
        service.submit("bob", _parallel_dag("b1", 3))
        handles = service.run()
        assert all(h.state is WorkflowState.DONE for h in handles)
        for name, jobs in (("alice", 5), ("bob", 3)):
            account = service.account(name)
            assert account.workflows_submitted == 1
            assert account.workflows_admitted == 1
            assert account.workflows_completed == 1
            assert account.workflows_succeeded == 1
            assert account.jobs_dispatched == jobs
            assert account.jobs_completed == jobs
            assert account.running_jobs == 0
            assert account.active_workflows == 0
            assert account.busy_seconds > 0

    def test_turnaround_and_queue_wait_marks(self):
        service = _small_service("alice")
        handle = service.submit("alice", _parallel_dag("wf", 3))
        service.run()
        assert handle.turnaround_s is not None and handle.turnaround_s > 0
        assert handle.queue_wait_s is not None
        assert 0 <= handle.queue_wait_s <= handle.turnaround_s

    def test_scheduler_unfinished_counts_down_to_zero(self):
        service = _small_service("alice")
        dag = _parallel_dag("wf", 4)
        handle = service.submit("alice", dag)
        assert handle.scheduler.unfinished == 4
        service.run()
        assert handle.scheduler.unfinished == 0
        assert handle.state is WorkflowState.DONE


class TestSloReport:
    def test_report_shape_and_percentiles(self):
        service = _small_service(
            TenantConfig(name="alice", weight=2.0), "bob"
        )
        service.submit("alice", _parallel_dag("a1", 3))
        service.submit("alice", _parallel_dag("a2", 3))
        service.run()
        report = service.slo_report()
        assert sorted(report) == ["alice", "bob"]
        alice = report["alice"]
        assert alice["weight"] == 2.0
        assert alice["account"]["workflows_completed"] == 2
        for metric in ("turnaround_s", "queue_wait_s"):
            summary = alice[metric]
            assert {"count", "mean", "p50", "p95", "p99", "max"} <= set(
                summary
            )
        assert alice["turnaround_s"]["count"] == 2
        # bob never ran: empty histograms, zero accounting.
        assert report["bob"]["turnaround_s"]["count"] == 0
        assert report["bob"]["account"]["jobs_dispatched"] == 0


def _tagged_service_events(backend):
    bus = EventBus()
    recorder = EventRecorder(bus)
    spec = LoadSpec(
        tenants=3, workflows_per_tenant=2, jobs_per_workflow=6,
        workflows_per_minute=4.0, tenant_weights=(2.0, 1.0),
    )
    result = run_load(spec, backend=backend, seed=21, bus=bus)
    assert result["workflows_completed"] == 6
    tagged = [
        (e.kind.value, e.detail["tenant"], e.detail["workflow"])
        for e in recorder.of_kind(*SERVICE_KINDS)
    ]
    return tagged, recorder


class TestCrossBackendParity:
    def test_service_event_stream_identical_across_backends(self):
        cluster_events, cluster_rec = _tagged_service_events("cluster")
        grid_events, grid_rec = _tagged_service_events("grid")
        assert cluster_events  # non-empty stream
        # Same tenants, same workflows, same lifecycle kinds — the
        # service timeline does not depend on which platform backs it.
        assert sorted(cluster_events) == sorted(grid_events)
        for events in (cluster_events, grid_events):
            submits = [e for e in events if e[0] == "service.submit"]
            dones = [e for e in events if e[0] == "service.workflow_done"]
            assert len(submits) == len(dones) == 6

    def test_scheduler_stream_carries_tenant_tags(self):
        bus = EventBus()
        recorder = EventRecorder(bus)
        spec = LoadSpec(
            tenants=2, workflows_per_tenant=1, jobs_per_workflow=4,
            workflows_per_minute=10.0,
        )
        run_load(spec, backend="cluster", seed=3, bus=bus)
        ends = recorder.of_kind(EventKind.WORKFLOW_END)
        assert len(ends) == 2
        assert {e.detail["tenant"] for e in ends} == {
            "tenant-00", "tenant-01"
        }
        # Platform events belong to the shared environment: untagged.
        for event in recorder.of_kind(EventKind.EXEC_START):
            assert "tenant" not in event.detail


class TestLoadGenerator:
    def test_workflow_shape_is_split_partitions_merge(self):
        dag = generate_workflow("wf", 10, RngStreams(seed=1))
        assert len(dag.jobs) == 10
        assert "wf-split" in dag.jobs and "wf-merge" in dag.jobs
        partitions = [j for j in dag.jobs if "-p" in j]
        assert len(partitions) == 8

    def test_same_seed_reproduces_bit_identically(self):
        spec = LoadSpec(
            tenants=2, workflows_per_tenant=2, jobs_per_workflow=5,
            workflows_per_minute=6.0,
        )
        a = run_load(spec, backend="cluster", seed=9)
        b = run_load(spec, backend="cluster", seed=9)
        assert a == b

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LoadSpec(tenants=0)
        with pytest.raises(ValueError):
            LoadSpec(workflows_per_minute=0.0)
        with pytest.raises(ValueError):
            LoadSpec(tenant_weights=())
        # The service shares a fixed pool; the cloud advertises none.
        with pytest.raises(ValueError, match="'cloud'"):
            build_service(LoadSpec(), backend="cloud")


class TestBenchCli:
    """``repro-service bench``: a bad value is one diagnostic line and
    exit 2, never a traceback or a silent run."""

    @pytest.mark.parametrize("argv", [
        ["--weights", "0,1"],
        ["--weights", "nan"],
        ["--max-running-jobs", "0"],
        ["--max-active-workflows", "0"],
        ["--require-software", "-1"],
        ["--require-software", "1.5"],
        ["--require-software", "nan"],
    ])
    def test_bad_value_exits_2_with_one_line(self, argv, capsys):
        from repro.service.cli import main

        assert main(["bench", "--tenants", "2", "--workflows", "1",
                     "--jobs", "3", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("repro-service: ") and err.count("\n") == 1

    def test_refused_workflows_are_counted_and_printed(self, capsys):
        # README's --max-active-workflows 1 line: 8 of 32 complete, the
        # other 24 arrive while their tenant is at the quota.
        from repro.service.cli import main

        spec = LoadSpec(tenants=8, workflows_per_minute=4.0,
                        max_active_workflows=1)
        result = run_load(spec, seed=3)
        assert result["workflows_submitted"] == 32
        assert result["workflows_rejected"] == 24
        assert result["workflows_completed"] == 8
        assert main(["bench", "--tenants", "8", "--rate", "4", "--seed", "3",
                     "--max-active-workflows", "1"]) == 0
        summary = capsys.readouterr().out.splitlines()[0]
        assert summary.endswith("/min sustained), 24 refused")
