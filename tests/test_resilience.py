"""Tests for the resilience layer: fault injection, retry policies,
timeouts, the blacklist circuit breaker, and run_with_recovery."""

import math
import random
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.workflow_factory import simulate_paper_run
from repro.dagman.dag import Dag, DagJob
from repro.dagman.events import JobStatus
from repro.dagman.scheduler import DagmanScheduler, NodeState
from repro.execution.local import LocalEnvironment
from repro.observe.bus import EventBus, EventRecorder
from repro.observe.events import EventKind
from repro.resilience import (
    AttemptFault,
    BadNode,
    Blacklist,
    BlacklistPolicy,
    ChaosPayload,
    Eviction,
    ExponentialBackoff,
    FaultInjected,
    FaultInjector,
    FaultPlan,
    FixedDelayRetry,
    Hang,
    ImmediateRetry,
    RetryPolicy,
    SiteOutage,
    Slowdown,
    StartFailure,
    resolve_exec,
    run_with_recovery,
)
from repro.sim.cluster import CampusCluster, CampusClusterConfig
from repro.sim.engine import Simulator
from repro.sim.grid import GridConfig, OpportunisticGrid
from repro.sim.rng import RngStreams
from repro.wms.planner import PlannerOptions
from repro.wms.statistics import summarize


def job(name, runtime=10.0, retries=0, timeout_s=None, payload=None):
    return DagJob(
        name=name,
        transformation="t",
        runtime=runtime,
        retries=retries,
        timeout_s=timeout_s,
        payload=payload,
    )


def chain(names, **kwargs):
    dag = Dag(name="chain")
    prev = None
    for name in names:
        dag.add_job(job(name, **kwargs))
        if prev is not None:
            dag.add_edge(prev, name)
        prev = name
    return dag


def make_cluster(dag_retry_policy=None, *, injector=None, blacklist=None,
                 bus=None, nodes=4, seed=0):
    sim = Simulator()
    cluster = CampusCluster(
        sim,
        CampusClusterConfig(name="sandhills", nodes=nodes, queue_wait_mean_s=5.0),
        streams=RngStreams(seed=seed),
        bus=bus,
        injector=injector,
        blacklist=blacklist,
    )
    return cluster


# -- resolve_exec: the payload/eviction/timeout race --------------------


class TestResolveExec:
    def test_plain_success(self):
        assert resolve_exec(10.0) == (10.0, JobStatus.SUCCEEDED, None)

    def test_eviction_preempts_payload(self):
        delay, status, error = resolve_exec(100.0, evict_after=30.0)
        assert delay == 30.0
        assert status is JobStatus.EVICTED
        assert "preempted" in error

    def test_timeout_kills_payload(self):
        delay, status, error = resolve_exec(100.0, timeout_s=60.0)
        assert delay == 60.0
        assert status is JobStatus.TIMEOUT
        assert "timeout of 60s" in error

    def test_payload_finishing_first_wins(self):
        delay, status, _ = resolve_exec(10.0, evict_after=30.0, timeout_s=60.0)
        assert (delay, status) == (10.0, JobStatus.SUCCEEDED)

    def test_tie_goes_to_timeout(self):
        _, status, _ = resolve_exec(100.0, evict_after=50.0, timeout_s=50.0)
        assert status is JobStatus.TIMEOUT

    def test_hang_with_timeout_is_killed(self):
        delay, status, _ = resolve_exec(math.inf, timeout_s=120.0)
        assert (delay, status) == (120.0, JobStatus.TIMEOUT)

    def test_hang_with_eviction_is_preempted(self):
        delay, status, _ = resolve_exec(math.inf, evict_after=500.0)
        assert (delay, status) == (500.0, JobStatus.EVICTED)

    def test_hang_alone_never_completes(self):
        delay, status, error = resolve_exec(math.inf)
        assert math.isinf(delay)
        assert status is JobStatus.FAILED
        assert "never completes" in error


# -- fault plans and the injector ---------------------------------------


class TestFaultInjector:
    def _decisions(self, plan, seed=7, n=20, site="osg", machine="m0"):
        injector = FaultInjector(plan, rng=random.Random(seed))
        return [
            injector.decide(
                job(f"j{i}"), site=site, machine=machine, attempt=1, now=0.0
            )
            for i in range(n)
        ]

    def test_same_seed_same_decisions(self):
        plan = FaultPlan((
            StartFailure(0.3),
            Slowdown(0.3, 2.0),
            Hang(0.1),
            Eviction(1.0 / 100.0),
        ))
        assert self._decisions(plan, seed=7) == self._decisions(plan, seed=7)

    def test_site_scoping(self):
        plan = FaultPlan((StartFailure(1.0, sites=("osg",)),))
        on_osg = self._decisions(plan, site="osg", n=3)
        on_campus = self._decisions(plan, site="sandhills", n=3)
        assert all(d.dead_on_arrival for d in on_osg)
        assert all(d.dead_on_arrival is None for d in on_campus)

    def test_scoped_fault_still_draws_rng(self):
        # A spec scoped away from this site must still consume its draw,
        # so a later spec sees identical randomness either way.
        tail = FaultPlan((StartFailure(0.5, sites=("osg",)), Hang(0.5)))
        scoped = self._decisions(tail, site="sandhills", n=30)
        unscoped = self._decisions(FaultPlan((StartFailure(0.5), Hang(0.5))),
                                   site="osg", n=30)
        assert [d.hang for d in scoped] == [d.hang for d in unscoped]

    def test_site_outage_window(self):
        injector = FaultInjector(
            FaultPlan((SiteOutage("osg", 100.0, 200.0),))
        )
        before = injector.decide(job("a"), site="osg", machine="m",
                                 attempt=1, now=50.0)
        during = injector.decide(job("b"), site="osg", machine="m",
                                 attempt=1, now=150.0)
        after = injector.decide(job("c"), site="osg", machine="m",
                                attempt=1, now=200.0)
        assert before.dead_on_arrival is None
        assert "outage" in during.dead_on_arrival
        assert after.dead_on_arrival is None

    def test_bad_node_is_deterministic(self):
        injector = FaultInjector(FaultPlan((BadNode(("m-bad",)),)))
        bad = injector.decide(job("a"), site="s", machine="m-bad",
                              attempt=1, now=0.0)
        good = injector.decide(job("b"), site="s", machine="m-ok",
                               attempt=1, now=0.0)
        assert "bad node" in bad.dead_on_arrival
        assert good.dead_on_arrival is None

    def test_attempt_fault_counts_occurrences_across_rounds(self):
        # The counter is per-injector, not per-scheduler-attempt: three
        # decide() calls for the same job are occurrences 1, 2, 3 even
        # if each came from a different DAGMan round.
        injector = FaultInjector(
            FaultPlan((AttemptFault("a", occurrences=(1, 3), mode="fail"),))
        )
        results = [
            injector.decide(job("a"), site="s", machine="m",
                            attempt=1, now=0.0).dead_on_arrival
            for _ in range(3)
        ]
        assert [r is not None for r in results] == [True, False, True]

    def test_fired_events_on_bus(self):
        bus = EventBus()
        recorder = EventRecorder(bus)
        injector = FaultInjector(
            FaultPlan((BadNode(("m0",)), Hang(1.0))), bus=bus
        )
        injector.decide(job("a"), site="s", machine="m0", attempt=1, now=3.0)
        faults = [e.detail["fault"] for e in recorder.of_kind(EventKind.FAULT)]
        assert faults == ["bad_node", "hang"]
        assert injector.fired == 2


class TestChaosPayload:
    def test_dead_on_arrival_raises(self):
        wrapped = ChaosPayload(lambda: 42, dead_on_arrival="boom")
        with pytest.raises(FaultInjected, match="boom"):
            wrapped()

    def test_hang_sleeps_then_raises(self):
        naps = []
        wrapped = ChaosPayload(lambda: 42, hang_s=3.0, sleeper=naps.append)
        with pytest.raises(FaultInjected, match="hung"):
            wrapped()
        assert naps == [3.0]

    def test_slowdown_delays_then_runs(self):
        naps = []
        wrapped = ChaosPayload(lambda: 42, delay_s=1.5, sleeper=naps.append)
        assert wrapped() == 42
        assert naps == [1.5]

    def test_wrap_local_passthrough_without_faults(self):
        payload = lambda: 1  # noqa: E731
        injector = FaultInjector(FaultPlan())
        wrapped = injector.wrap_local(
            job("a", payload=payload), attempt=1, now=0.0
        )
        assert wrapped is payload


# -- retry policies -----------------------------------------------------


class TestRetryPolicies:
    def test_immediate_is_zero_delay(self):
        assert ImmediateRetry().delay_s(1) == 0.0
        assert ImmediateRetry().charge_evictions

    def test_fixed_delay(self):
        policy = FixedDelayRetry(45.0)
        assert [policy.delay_s(a) for a in (1, 2, 3)] == [45.0] * 3

    def test_backoff_grows_and_caps(self):
        policy = ExponentialBackoff(
            base_s=10.0, factor=2.0, max_delay_s=35.0, jitter=0.0
        )
        assert [policy.delay_s(a) for a in (1, 2, 3, 4)] == [
            10.0, 20.0, 35.0, 35.0
        ]

    def test_backoff_jitter_is_bounded_and_seeded(self):
        policy = ExponentialBackoff(base_s=100.0, jitter=0.2, seed=5)
        delays = [policy.delay_s(1) for _ in range(50)]
        assert all(80.0 <= d <= 120.0 for d in delays)
        again = ExponentialBackoff(base_s=100.0, jitter=0.2, seed=5)
        assert delays == [again.delay_s(1) for _ in range(50)]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            FixedDelayRetry(-1.0)
        with pytest.raises(ValueError):
            ExponentialBackoff(factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(budget=-1)


class TestSchedulerRetryIntegration:
    def test_free_eviction_requeues_without_consuming_retry(self):
        # The job is evicted on its first two submissions but has
        # retries=0: only charge_evictions=False lets it finish.
        injector = FaultInjector(
            FaultPlan((AttemptFault("a", occurrences=(1, 2), mode="evict"),))
        )
        env = make_cluster(injector=injector)
        result = DagmanScheduler(
            chain(["a"]), env,
            retry_policy=ImmediateRetry(charge_evictions=False),
        ).run()
        assert result.success
        assert result.trace.retry_count == 2

    def test_charged_eviction_fails_without_retries(self):
        injector = FaultInjector(
            FaultPlan((AttemptFault("a", occurrences=(1, 2), mode="evict"),))
        )
        env = make_cluster(injector=injector)
        result = DagmanScheduler(
            chain(["a"]), env, retry_policy=ImmediateRetry()
        ).run()
        assert not result.success
        assert result.failed_jobs == ["a"]

    def test_budget_caps_free_requeues(self):
        # Evicted forever: the budget is the only thing that stops it.
        injector = FaultInjector(
            FaultPlan((AttemptFault("a", occurrences=tuple(range(1, 50)),
                                    mode="evict"),))
        )
        env = make_cluster(injector=injector)
        result = DagmanScheduler(
            chain(["a"]), env,
            retry_policy=ImmediateRetry(charge_evictions=False, budget=3),
        ).run()
        assert not result.success
        assert result.trace.retry_count == 3

    def test_delayed_retry_holds_then_releases(self):
        bus = EventBus()
        recorder = EventRecorder(bus)
        injector = FaultInjector(
            FaultPlan((AttemptFault("a", occurrences=(1,), mode="fail"),))
        )
        env = make_cluster(injector=injector, bus=bus)
        dag = chain(["a"], retries=1)
        result = DagmanScheduler(
            dag, env, bus=bus, retry_policy=FixedDelayRetry(600.0)
        ).run()
        assert result.success
        held = recorder.of_kind(EventKind.HELD)
        assert len(held) == 1
        assert held[0].detail["delay_s"] == 600.0
        # The second attempt cannot have started before the hold lifted.
        second = [a for a in result.trace if a.attempt == 2]
        assert second[0].submit_time >= 600.0


# -- timeouts -----------------------------------------------------------


class TestSimulatedTimeouts:
    def test_hung_attempt_killed_then_retried(self):
        bus = EventBus()
        recorder = EventRecorder(bus)
        injector = FaultInjector(
            FaultPlan((AttemptFault("a", occurrences=(1,), mode="hang"),))
        )
        env = make_cluster(injector=injector, bus=bus)
        result = DagmanScheduler(
            chain(["a"], retries=1, timeout_s=300.0), env, bus=bus
        ).run()
        assert result.success
        assert env.timeout_count == 1
        timeouts = recorder.of_kind(EventKind.TIMEOUT)
        assert len(timeouts) == 1
        assert "timeout of 300s" in timeouts[0].detail["error"]
        first = [a for a in result.trace if a.attempt == 1][0]
        assert first.status is JobStatus.TIMEOUT
        assert first.exec_end - first.exec_start == 300.0

    def test_hang_without_timeout_wedges_the_run(self):
        # Motivation for DagJob.timeout_s: the simulator drains but the
        # node never completes — DAGMan reports it still SUBMITTED.
        injector = FaultInjector(FaultPlan((Hang(1.0),)))
        env = make_cluster(injector=injector)
        scheduler = DagmanScheduler(chain(["a"]), env)
        scheduler.start()
        env.run_until_complete()
        result = scheduler.finish()
        assert not result.success
        assert result.states["a"] is NodeState.SUBMITTED

    def test_grid_timeout_counted(self):
        sim = Simulator()
        bus = EventBus()
        recorder = EventRecorder(bus)
        injector = FaultInjector(
            FaultPlan((AttemptFault("a", occurrences=(1,), mode="hang"),))
        )
        grid = OpportunisticGrid(
            sim, GridConfig(), streams=RngStreams(seed=2), bus=bus,
            injector=injector,
        )
        result = DagmanScheduler(
            chain(["a", "b"], retries=2, timeout_s=900.0), grid, bus=bus
        ).run()
        assert result.success
        assert grid.timeout_count == 1
        assert len(recorder.of_kind(EventKind.TIMEOUT)) == 1

    def test_timeout_round_trips_through_dag_file(self, tmp_path):
        dag = chain(["a"], timeout_s=123.5)
        path = tmp_path / "wf.dag"
        dag.write_dagfile(path)
        parsed = Dag.parse_dagfile(path)
        assert parsed.jobs["a"].timeout_s == 123.5


def _quick():
    return "ok"


def _slow():
    time.sleep(5.0)
    return "late"


class TestLocalResilience:
    def test_hung_payload_killed_by_watchdog(self):
        dag = Dag(name="local")
        dag.add_job(job("stuck", payload=_slow, timeout_s=0.3))
        started = time.monotonic()
        with LocalEnvironment(max_workers=1) as env:
            result = DagmanScheduler(dag, env).run()
        elapsed = time.monotonic() - started
        assert elapsed < 4.0  # did not wait out the 5s sleep
        assert not result.success
        attempt = list(result.trace)[0]
        assert attempt.status is JobStatus.TIMEOUT
        assert "timeout of 0.3s" in attempt.error
        assert env.timeout_count == 1

    def test_timeout_event_emitted_on_bus(self):
        bus = EventBus()
        recorder = EventRecorder(bus)
        dag = Dag(name="local")
        dag.add_job(job("stuck", payload=_slow, timeout_s=0.2))
        with LocalEnvironment(max_workers=1, bus=bus) as env:
            DagmanScheduler(dag, env, bus=bus).run()
        kinds = [e.kind for e in recorder.events]
        assert EventKind.TIMEOUT in kinds

    def test_injected_start_failure_fails_real_payload(self):
        injector = FaultInjector(FaultPlan((StartFailure(1.0),)))
        dag = Dag(name="local")
        dag.add_job(job("a", payload=_quick))
        with LocalEnvironment(max_workers=1, injector=injector) as env:
            result = DagmanScheduler(dag, env).run()
        assert not result.success
        attempt = list(result.trace)[0]
        assert "injected start failure" in attempt.error

    def test_submit_after_shutdown_raises(self):
        env = LocalEnvironment(max_workers=1)
        env.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            env.submit(job("a", payload=_quick), lambda record: None)

    def test_exit_drains_in_flight_completions(self):
        records = []
        with LocalEnvironment(max_workers=1) as env:
            env.submit(job("a", payload=_quick), records.append)
            # No explicit run_until_complete(): __exit__ must drain.
        assert len(records) == 1
        assert records[0].status is JobStatus.SUCCEEDED

    def test_delayed_retry_on_wall_clock(self):
        injector = FaultInjector(
            FaultPlan((AttemptFault("a", occurrences=(1,), mode="fail"),))
        )
        dag = Dag(name="local")
        dag.add_job(job("a", payload=_quick, retries=1))
        with LocalEnvironment(max_workers=1, injector=injector) as env:
            result = DagmanScheduler(
                dag, env, retry_policy=FixedDelayRetry(0.2)
            ).run()
        assert result.success
        assert result.trace.retry_count == 1


# -- the blacklist circuit breaker --------------------------------------


class TestBlacklist:
    def test_trips_after_threshold(self):
        bl = Blacklist(BlacklistPolicy(threshold=3))
        for i in range(2):
            assert not bl.record_start_failure("m0", "s", now=float(i))
        assert bl.record_start_failure("m0", "s", now=2.0)
        assert bl.is_blocked("m0", "s", now=3.0)
        assert not bl.is_blocked("m1", "s", now=3.0)
        assert bl.trips == 1

    def test_success_resets_streak(self):
        bl = Blacklist(BlacklistPolicy(threshold=2))
        bl.record_start_failure("m0", "s", now=0.0)
        bl.record_success("m0", "s")
        assert not bl.record_start_failure("m0", "s", now=1.0)
        assert not bl.is_blocked("m0", "s", now=1.0)

    def test_cooldown_half_opens(self):
        bl = Blacklist(BlacklistPolicy(threshold=1, cooldown_s=100.0))
        bl.record_start_failure("m0", "s", now=0.0)
        assert bl.is_blocked("m0", "s", now=99.0)
        assert bl.next_expiry(now=0.0) == 100.0
        assert not bl.is_blocked("m0", "s", now=100.0)
        # Half-open: the streak restarted, one more failure re-trips.
        assert bl.record_start_failure("m0", "s", now=101.0)

    def test_site_threshold_blocks_whole_site(self):
        bl = Blacklist(BlacklistPolicy(threshold=10, site_threshold=3))
        for i, machine in enumerate(("m0", "m1", "m2")):
            bl.record_start_failure(machine, "osg", now=float(i))
        # The site is blocked, not its machines: m0 elsewhere runs.
        assert not bl.is_blocked("m0", "other", now=3.0)
        # Any machine at the site is now blocked, even an unseen one.
        assert bl.is_blocked("m99", "osg", now=3.0)

    def test_blacklist_event_on_bus(self):
        bus = EventBus()
        recorder = EventRecorder(bus)
        bl = Blacklist(BlacklistPolicy(threshold=1, cooldown_s=60.0), bus=bus)
        bl.record_start_failure("m0", "s", now=5.0)
        events = recorder.of_kind(EventKind.BLACKLIST)
        assert len(events) == 1
        assert events[0].detail == {
            "scope": "machine", "name": "m0", "streak": 1, "until": 65.0
        }

    def test_cluster_routes_around_bad_node(self):
        # One misconfigured node fails everything it receives; after the
        # breaker trips, jobs stop landing there and the DAG completes.
        bus = EventBus()
        recorder = EventRecorder(bus)
        injector = FaultInjector(
            FaultPlan((BadNode(("sandhills-0001",)),)), bus=bus
        )
        blacklist = Blacklist(BlacklistPolicy(threshold=2), bus=bus)
        env = make_cluster(injector=injector, blacklist=blacklist, bus=bus)
        dag = Dag(name="wide")
        for i in range(12):
            dag.add_job(job(f"j{i}", retries=3))
        result = DagmanScheduler(dag, env, bus=bus).run()
        assert result.success
        assert blacklist.trips == 1
        assert recorder.of_kind(EventKind.BLACKLIST)[0].machine == (
            "sandhills-0001"
        )
        # Three jobs were matched onto the bad node before the breaker
        # tripped (round-robin over 4 nodes, 12 initial dispatches);
        # after the trip no retry lands there again.
        assert env.start_failure_count == 3


# -- run_with_recovery --------------------------------------------------


class TestRunWithRecovery:
    def test_single_round_success_writes_no_rescue(self, tmp_path):
        env = make_cluster()
        outcome = run_with_recovery(
            chain(["a", "b"]), env, max_rounds=3, rescue_dir=tmp_path
        )
        assert outcome.success
        assert len(outcome.rounds) == 1
        assert outcome.rescue_paths == []

    def test_failed_round_rescues_and_resubmits(self, tmp_path):
        bus = EventBus()
        recorder = EventRecorder(bus)
        # 'b' fails its first (and only, retries=0) attempt in round 1;
        # round 2 runs it clean from the rescue DAG: the injector counts
        # b's submissions across rounds, so that one is occurrence 2.
        injector = FaultInjector(
            FaultPlan((AttemptFault("b", occurrences=(1,), mode="fail"),))
        )
        env = make_cluster(injector=injector, bus=bus)
        outcome = run_with_recovery(
            chain(["a", "b", "c"]), env,
            max_rounds=3, rescue_dir=tmp_path, bus=bus,
        )
        assert outcome.success
        assert len(outcome.rounds) == 2
        rescue = Dag.parse_dagfile(outcome.rescue_paths[0])
        assert rescue.done == {"a"}
        rescue_events = recorder.of_kind(EventKind.RESCUE)
        assert len(rescue_events) == 1
        assert rescue_events[0].detail["failed"] == ["b"]
        assert rescue_events[0].detail["resubmitting"] is True
        # 'a' ran once (its DONE mark carried forward), 'b' ran twice.
        names = [a.job_name for a in outcome.trace]
        assert names.count("a") == 1
        assert names.count("b") == 2

    def test_rounds_exhausted_reports_unrunnable_set(self, tmp_path):
        injector = FaultInjector(
            FaultPlan((AttemptFault("a", occurrences=tuple(range(1, 20)),
                                    mode="fail"),))
        )
        env = make_cluster(injector=injector)
        outcome = run_with_recovery(
            chain(["a", "b", "c"]), env, max_rounds=2, rescue_dir=tmp_path
        )
        assert not outcome.success
        assert len(outcome.rounds) == 2
        assert outcome.final.failed_jobs == ["a"]
        assert outcome.final.unrunnable_jobs == ["b", "c"]
        assert len(outcome.rescue_paths) == 2

    def test_osg_regime_with_outage_recovers_within_three_rounds(self):
        # The acceptance scenario: the paper's calibrated OSG failure
        # regime (4% DOA + preemption) plus an injected outage of the
        # pool's fastest site and scripted hangs, survived by timeouts,
        # the blacklist, free-eviction retries and the rescue loop.
        bus = EventBus()
        recorder = EventRecorder(bus)
        plan = FaultPlan((
            SiteOutage("ucsd-t2", 0.0, 5000.0),
            # Several scripted hangs: the eviction hazard usually wins
            # the race against the 6h timeout, so a single hang might
            # never reach the watchdog.
            AttemptFault("run_cap3_1", occurrences=tuple(range(1, 7)),
                         mode="hang"),
        ))
        # At n=50 the longest cap3 partition runs ~13.4k virtual seconds,
        # so a 6h timeout only ever kills genuinely hung attempts.
        outcome, planned = simulate_paper_run(
            50, "osg", seed=1,
            fault_plan=plan,
            blacklist_policy=BlacklistPolicy(
                threshold=2, site_threshold=6, cooldown_s=6000.0
            ),
            retry_policy=ImmediateRetry(charge_evictions=False),
            planner_options=PlannerOptions(retries=2, timeout_s=6 * 3600.0),
            bus=bus, max_rounds=3,
        )
        assert outcome.success
        assert len(outcome.rounds) <= 3
        kinds = {e.kind for e in recorder.events}
        assert EventKind.FAULT in kinds
        assert EventKind.TIMEOUT in kinds
        assert EventKind.BLACKLIST in kinds
        # Statistics accounting stays consistent across rescue rounds:
        # every planned job has exactly one *successful* attempt in the
        # merged trace, and nothing was left unattempted.
        stats = summarize(
            outcome.trace, expected_jobs=len(planned.dag.jobs)
        )
        assert stats.planned_jobs == len(planned.dag.jobs)
        assert stats.unattempted_jobs == 0
        assert stats.succeeded_jobs == len(planned.dag.jobs)


# -- cross-backend: same recovery event chain ---------------------------


#: Kinds whose (kind, job) sequence must agree between the wall-clock
#: local backend and the virtual-clock simulators. Platform-specific
#: kinds (match, setup, exec, samples) and state bookkeeping are
#: excluded; timestamps differ by construction.
RECOVERY_KINDS = (
    EventKind.SUBMIT,
    EventKind.FAULT,
    EventKind.RETRY,
    EventKind.TIMEOUT,
    EventKind.FINISH,
    EventKind.EVICT,
    EventKind.RESCUE,
)


def _recovery_sequence(make_env):
    bus = EventBus()
    recorder = EventRecorder(bus)
    dag = Dag(name="xb")
    for name in ("a", "b"):
        dag.add_job(job(name, runtime=1.0, payload=_quick))
    dag.add_edge("a", "b")
    injector = FaultInjector(
        FaultPlan((AttemptFault("a", occurrences=(1,), mode="fail"),)),
        bus=bus,
    )
    env = make_env(bus, injector)
    try:
        outcome = run_with_recovery(dag, env, max_rounds=2, bus=bus)
    finally:
        shutdown = getattr(env, "shutdown", None)
        if shutdown is not None:
            env.run_until_complete()
            shutdown()
    assert outcome.success
    return recorder.sequence(kinds=RECOVERY_KINDS)


class TestCrossBackend:
    def test_local_and_simulated_recovery_chains_match(self):
        local = _recovery_sequence(
            lambda bus, injector: LocalEnvironment(
                max_workers=1, bus=bus, injector=injector
            )
        )
        simulated = _recovery_sequence(
            lambda bus, injector: make_cluster(bus=bus, injector=injector)
        )
        assert local == simulated
        # Round 1: a is submitted, faulted, fails; the rescue fires;
        # round 2 reruns a then b.
        assert local == [
            ("job.submit", "a"),
            ("fault.injected", "a"),
            ("job.finish", "a"),
            ("rescue.round", None),
            ("job.submit", "a"),
            ("job.finish", "a"),
            ("job.submit", "b"),
            ("job.finish", "b"),
        ]


# -- property: recovery either completes or names the unrunnable set ----


@st.composite
def fault_scripts(draw):
    """A scripted fault plan over a 5-job diamond-plus-tail DAG."""
    faults = []
    for name in ("a", "b", "c", "d", "e"):
        occurrences = draw(
            st.sets(st.integers(min_value=1, max_value=4), max_size=3)
        )
        if occurrences:
            mode = draw(st.sampled_from(["fail", "evict", "hang"]))
            faults.append(
                AttemptFault(name, tuple(sorted(occurrences)), mode=mode)
            )
    return FaultPlan(tuple(faults))


def _descendants(dag, roots):
    children = dict(dag.child_sets())
    out = set()
    frontier = list(roots)
    while frontier:
        node = frontier.pop()
        for child in children[node]:
            if child not in out:
                out.add(child)
                frontier.append(child)
    return out


class TestRecoveryProperty:
    @settings(
        max_examples=30, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(plan=fault_scripts(), retries=st.integers(0, 1),
           max_rounds=st.integers(1, 3))
    def test_completes_or_reports_exact_unrunnable_set(
        self, plan, retries, max_rounds
    ):
        dag = Dag(name="prop")
        for name in ("a", "b", "c", "d", "e"):
            dag.add_job(job(name, retries=retries, timeout_s=600.0))
        dag.add_edge("a", "b")
        dag.add_edge("a", "c")
        dag.add_edge("b", "d")
        dag.add_edge("c", "d")
        dag.add_edge("d", "e")
        env = make_cluster(
            injector=FaultInjector(plan, rng=random.Random(0))
        )
        outcome = run_with_recovery(
            dag, env, max_rounds=max_rounds,
            retry_policy=ImmediateRetry(charge_evictions=False, budget=6),
        )
        states = outcome.final.states
        if outcome.success:
            assert all(s is NodeState.DONE for s in states.values())
        else:
            failed = set(outcome.final.failed_jobs)
            unrunnable = set(outcome.final.unrunnable_jobs)
            done = {n for n, s in states.items() if s is NodeState.DONE}
            assert failed
            # The three sets partition the DAG...
            assert failed | unrunnable | done == set(dag.jobs)
            assert not (failed & unrunnable or failed & done
                        or unrunnable & done)
            # ...and the unrunnable set is exactly the jobs downstream
            # of a failure (minus any that failed on their own).
            assert unrunnable == _descendants(dag, failed) - failed
