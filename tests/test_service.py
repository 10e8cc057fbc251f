"""The multi-tenant Workflow-as-a-Service layer.

Admission control, quotas, accounting, SLO reporting, and the stride
fair-share pump — including the hypothesis invariants ISSUE 9 names:
no tenant with ready work starves, long-run slot shares converge to
the configured weights, and the tenant-tagged ``service.*`` event
stream is identical in shape across the cluster and grid backends.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dagman.dag import Dag, DagJob
from repro.observe.bus import EventBus, EventRecorder
from repro.observe.events import EventKind
from repro.service.fairshare import StrideScheduler
from repro.service.loadgen import LoadSpec, generate_workflow, run_load
from repro.service.service import (
    ServiceConfig,
    WorkflowService,
    WorkflowState,
)
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


def _small_service(*tenants, slots=4, max_in_flight=None, **svc_kwargs):
    simulator = Simulator()
    env = CampusCluster(
        simulator,
        CampusClusterConfig(group_slots=slots),
        streams=RngStreams(seed=5),
    )
    service = WorkflowService(
        env,
        config=ServiceConfig(max_in_flight=max_in_flight),
        **svc_kwargs,
    )
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
        for _ in range(300):
            name = sched.select(["heavy", "light"])
            sched.charge(name)
        served = sched.served
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
        for _ in range(rounds):
            chosen = sched.select(names)
            assert chosen is not None
            sched.charge(chosen)
        served = sched.served
        total_weight = sum(weights.values())
        for name in names:
            expected = rounds * weights[name] / total_weight
            # Stride scheduling lag is bounded: nobody starves, nobody
            # banks more than ~one serve per competitor of drift.
            assert abs(served[name] - expected) <= len(names) + 1

    def test_priority_tier_preempts_fair_share(self):
        sched = StrideScheduler()
        sched.register("urgent", 1.0, priority=10)
        sched.register("bulk", 100.0, priority=0)
        for _ in range(20):
            assert sched.select(["urgent", "bulk"]) == "urgent"
            sched.charge("urgent")
        # Tier empties: bulk is served now.
        assert sched.select(["bulk"]) == "bulk"

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
        service = _small_service("alice", slots=8, max_in_flight=3)
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
            slots=1, max_in_flight=1,
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
            TenantConfig(name="alice", weight=2.0, priority=1), "bob"
        )
        service.submit("alice", _parallel_dag("a1", 3))
        service.submit("alice", _parallel_dag("a2", 3))
        service.run()
        report = service.slo_report()
        assert sorted(report) == ["alice", "bob"]
        alice = report["alice"]
        assert alice["weight"] == 2.0
        assert alice["priority"] == 1
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


class TestRestoreCompletions:
    """Per-tenant SLO accounting across a journal resume: every
    pre-crash completion counts exactly once, however the journaled
    records and the live run overlap."""

    def test_resume_counts_pre_crash_completions_once(self, tmp_path):
        from repro.resilience.journal import Journal, recover

        # Phase 1 — alice's workflow completes; the WAL captures the
        # service.workflow_done record alongside the job decisions.
        bus = EventBus()
        service = _small_service("alice", bus=bus)
        journal = Journal(tmp_path / "j", bus=bus)
        service.submit("alice", _parallel_dag("a1", 3), name="a1")
        service.run()
        journal.close()
        before = service.slo_report()["alice"]
        assert before["account"]["workflows_completed"] == 1

        recovered = recover(tmp_path / "j")
        completions = recovered.service_completions
        assert len(completions) == 1
        (record,) = completions
        assert record["tenant"] == "alice"
        assert record["workflow"] == "a1"
        assert record["succeeded"] is True
        assert isinstance(record["turnaround_s"], float)

        # Phase 2 — a fresh service (post-crash process) restores the
        # journaled completions, then runs workflow B.
        resumed = _small_service("alice")
        assert resumed.restore_completions(completions) == 1
        resumed.submit("alice", _parallel_dag("b1", 3), name="b1")
        resumed.run()
        after = resumed.slo_report()["alice"]
        assert after["account"]["workflows_completed"] == 2
        assert after["account"]["workflows_succeeded"] == 2
        assert after["turnaround_s"]["count"] == 2
        assert after["queue_wait_s"]["count"] == 2

        # Replaying the same records again is a no-op.
        assert resumed.restore_completions(completions) == 0
        again = resumed.slo_report()["alice"]
        assert again["account"]["workflows_completed"] == 2
        assert again["turnaround_s"]["count"] == 2

    def test_restore_skips_unknown_or_blank_tenants(self):
        service = _small_service("alice")
        applied = service.restore_completions([
            {"tenant": "mallory", "workflow": "w", "succeeded": True},
            {"tenant": "", "workflow": "w", "succeeded": True},
            {"tenant": "alice", "workflow": "", "succeeded": True},
        ])
        assert applied == 0
        report = service.slo_report()["alice"]
        assert report["account"]["workflows_completed"] == 0

    def test_live_completion_claims_the_dedup_key(self):
        # The reverse overlap: the live service already finished the
        # workflow the WAL replay then hands back.
        service = _small_service("alice")
        service.submit("alice", _parallel_dag("a1", 3), name="a1")
        service.run()
        assert service.restore_completions([
            {"tenant": "alice", "workflow": "a1", "succeeded": True,
             "turnaround_s": 5.0, "queue_wait_s": 1.0},
        ]) == 0
        report = service.slo_report()["alice"]
        assert report["account"]["workflows_completed"] == 1
        assert report["turnaround_s"]["count"] == 1


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
