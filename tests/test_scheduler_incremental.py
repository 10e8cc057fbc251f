"""The incremental scheduler, pinned against the legacy oracle.

The scheduler (persistent ready heap + pending-parent counters over
dense job ids, see ``repro.dagman.scheduler``) claims *bit-identical
behaviour* to the name-keyed full-rescan loop preserved as
:class:`tests.oracles.rescan_scheduler.LegacyRescanScheduler`. The
hypothesis properties here enforce that claim: arbitrary DAGs (width,
depth, priorities, retries, throttles, scripted failures, pre-done
marks, tags) run through both implementations on a scripted environment
and on all three simulated platforms, and the traces, bus event
streams, final states, and wall times must match exactly. (The oracle
restates every transition; an untagged scheduler on a platform leaves
the implied ones to the platform's events, so its stream is compared
through ``tests/oracles/implied_transitions.expand``.) Job names are
drawn so that insertion order (the ids), name order (the release order)
and topological order are three different orders: a scheduler that
released children in id order would fail here.

The rest of the module is regression tests for the three hot-path bugs
fixed alongside the rewrite:

* ``_submit_ready`` double-submitting under a reentrant (synchronous)
  ``on_complete``;
* ``_may_retry`` burning retry-policy budget as a side effect of being
  *asked*;
* (the engine-side fire-then-cancel bug lives in
  ``test_timing_regressions.py`` next to the other clock tests).
"""

from hypothesis import given, settings, strategies as st

from repro.dagman.dag import Dag, DagJob
from repro.dagman.events import JobAttempt, JobStatus
from repro.dagman.scheduler import (
    DagmanScheduler,
    NodeState,
    SchedulerRestore,
)
from repro.observe.bus import EventBus, EventRecorder
from repro.observe.events import EventKind
from repro.resilience.retry import FixedDelayRetry, RetryPolicy
from repro.sim.cloud import CloudPlatform
from repro.sim.cluster import CampusCluster, CampusClusterConfig
from repro.sim.engine import Simulator
from repro.sim.grid import GridConfig, OpportunisticGrid
from repro.sim.rng import RngStreams
from tests.oracles.implied_transitions import expand
from tests.oracles.rescan_scheduler import LegacyRescanScheduler


# ---------------------------------------------------------------------------
# Scripted environment (same shape as test_dagman_properties)
# ---------------------------------------------------------------------------


class ScriptedEnvironment:
    """Simulator-backed environment failing scripted (job, attempt) pairs."""

    def __init__(self, failures: set[tuple[str, int]]):
        self.sim = Simulator()
        self.failures = failures
        self.submissions: list[tuple[str, int]] = []

    @property
    def now(self):
        return self.sim.now

    def call_later(self, delay_s, fn):
        self.sim.schedule(delay_s, fn)

    def submit(self, job, on_complete, *, attempt=1):
        self.submissions.append((job.name, attempt))
        submit_time = self.now

        def finish():
            failed = (job.name, attempt) in self.failures
            on_complete(
                JobAttempt(
                    job_name=job.name,
                    transformation=job.transformation,
                    site="scripted",
                    machine="m",
                    attempt=attempt,
                    submit_time=submit_time,
                    setup_start=submit_time,
                    exec_start=submit_time,
                    exec_end=self.now,
                    status=JobStatus.FAILED if failed else JobStatus.SUCCEEDED,
                )
            )

        self.sim.schedule(job.runtime, finish)

    def run_until_complete(self):
        self.sim.run()


# ---------------------------------------------------------------------------
# DAG strategy: width, depth, priorities, retries, faults, throttles
# ---------------------------------------------------------------------------


@st.composite
def dag_case(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    # Three independent orders over the same names: insertion (what the
    # scheduler's ids follow), sorted (what children are released in)
    # and topological (what keeps the edges acyclic).
    names = draw(st.permutations([f"n{i}" for i in range(n)]))
    topo = draw(st.permutations(names))
    dag = Dag(name="eq")
    for name in names:
        dag.add_job(
            DagJob(
                name=name,
                transformation=draw(st.sampled_from(["blast", "cap3"])),
                runtime=draw(st.integers(min_value=1, max_value=60)),
                priority=draw(st.integers(min_value=-2, max_value=2)),
                needs_setup=draw(st.booleans()),
            )
        )
    # topo[i] -> topo[j] with i < j keeps it acyclic by construction.
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.integers(0, 3)) == 0:
                dag.add_edge(topo[i], topo[j])
    # Rescue marks, not necessarily ancestor-closed: a DONE node under a
    # parent that still has to run must stay DONE in both schedulers.
    dag.done = {name for name in names if draw(st.integers(0, 5)) == 0}
    retries = draw(st.integers(min_value=0, max_value=2))
    failures = set()
    for name in names:
        for attempt in range(1, retries + 2):
            if draw(st.integers(0, 4)) == 0:
                failures.add((name, attempt))
    max_jobs = draw(st.one_of(st.none(), st.integers(1, 3)))
    policy = draw(
        st.sampled_from(
            [
                None,
                FixedDelayRetry(45.0, charge_evictions=False),
                RetryPolicy(budget=1),
            ]
        )
    )
    tags = draw(st.sampled_from([None, {"tenant": "t0", "workflow": "w0"}]))
    return dag, failures, {
        "max_jobs": max_jobs,
        "default_retries": retries,
        "retry_policy": policy,
        "tags": tags,
    }


def _run(scheduler_cls, dag, env_factory, options):
    bus = EventBus()
    recorder = EventRecorder(bus)
    scheduler = scheduler_cls(dag, env_factory(bus), bus=bus, **options)
    result = scheduler.run()
    return result, recorder.events


def _assert_equivalent_on(env_factory, dag, options):
    new_result, new_events = _run(DagmanScheduler, dag, env_factory, options)
    legacy_result, legacy_events = _run(
        LegacyRescanScheduler, dag, env_factory, options
    )
    assert new_result.states == legacy_result.states
    assert new_result.success == legacy_result.success
    assert new_result.wall_time == legacy_result.wall_time
    assert new_result.trace.attempts == legacy_result.trace.attempts
    assert expand(new_events) == legacy_events


@given(dag_case())
@settings(max_examples=100, deadline=None)
def test_equivalent_on_scripted_environment(case):
    dag, failures, options = case
    _assert_equivalent_on(
        lambda bus: ScriptedEnvironment(failures), dag, options
    )


def _cluster_factory(seed):
    def factory(bus):
        return CampusCluster(
            Simulator(),
            CampusClusterConfig(group_slots=4),
            streams=RngStreams(seed=seed),
            bus=bus,
        )

    return factory


def _grid_factory(seed):
    def factory(bus):
        # Defaults include start failures and evictions, so this also
        # exercises requeues and the eviction accounting paths.
        return OpportunisticGrid(
            Simulator(), GridConfig(), streams=RngStreams(seed=seed), bus=bus
        )

    return factory


def _cloud_factory(seed):
    def factory(bus):
        return CloudPlatform(
            Simulator(), streams=RngStreams(seed=seed), bus=bus
        )

    return factory


@given(dag_case(), st.integers(min_value=0, max_value=2**16))
@settings(max_examples=25, deadline=None)
def test_equivalent_on_campus_cluster(case, seed):
    dag, _failures, options = case
    _assert_equivalent_on(_cluster_factory(seed), dag, options)


@given(dag_case(), st.integers(min_value=0, max_value=2**16))
@settings(max_examples=25, deadline=None)
def test_equivalent_on_opportunistic_grid(case, seed):
    dag, _failures, options = case
    _assert_equivalent_on(_grid_factory(seed), dag, options)


@given(dag_case(), st.integers(min_value=0, max_value=2**16))
@settings(max_examples=25, deadline=None)
def test_equivalent_on_cloud(case, seed):
    dag, _failures, options = case
    _assert_equivalent_on(_cloud_factory(seed), dag, options)


# ---------------------------------------------------------------------------
# Regression: reentrant on_complete must not double-submit
# ---------------------------------------------------------------------------


class SynchronousEnvironment:
    """Completes every attempt *inside* ``submit`` — the pathological
    reentrancy: ``on_complete`` runs ``_handle_completion`` (and a
    nested ``_submit_ready``) while the outer ``_submit_ready`` is
    still iterating its view of the ready set."""

    def __init__(self, failures: set[tuple[str, int]] | None = None):
        self.failures = failures or set()
        self.submissions: list[tuple[str, int]] = []

    @property
    def now(self):
        return 0.0

    def submit(self, job, on_complete, *, attempt=1):
        self.submissions.append((job.name, attempt))
        failed = (job.name, attempt) in self.failures
        on_complete(
            JobAttempt(
                job_name=job.name,
                transformation=job.transformation,
                site="sync",
                machine="m",
                attempt=attempt,
                submit_time=0.0,
                setup_start=0.0,
                exec_start=0.0,
                exec_end=0.0,
                status=JobStatus.FAILED if failed else JobStatus.SUCCEEDED,
            )
        )

    def run_until_complete(self):
        pass


def _parallel_dag(n=4):
    dag = Dag(name="sync")
    for i in range(n):
        dag.add_job(DagJob(name=f"p{i}", transformation="t"))
    return dag


def test_no_double_submit_under_synchronous_completion():
    env = SynchronousEnvironment()
    result = DagmanScheduler(_parallel_dag(), env).run()
    assert result.success
    assert sorted(env.submissions) == [(f"p{i}", 1) for i in range(4)]


def test_synchronous_completion_with_failures_and_retries():
    env = SynchronousEnvironment(failures={("p1", 1), ("p2", 1), ("p2", 2)})
    result = DagmanScheduler(_parallel_dag(), env, default_retries=1).run()
    assert not result.success
    assert result.states["p1"] is NodeState.DONE
    assert result.states["p2"] is NodeState.FAILED
    # Exactly the allowed attempts, each submitted once.
    assert sorted(env.submissions) == [
        ("p0", 1), ("p1", 1), ("p1", 2), ("p2", 1), ("p2", 2), ("p3", 1),
    ]


def test_legacy_oracle_preserves_the_double_submit_bug():
    """The oracle must stay bug-for-bug: its ``_submit_ready`` iterates
    a stale snapshot, so a synchronous completion re-submits an
    already-finished node."""
    env = SynchronousEnvironment()
    dag = _parallel_dag(2)
    LegacyRescanScheduler(dag, env).run()
    assert ("p1", 2) in env.submissions  # the historical double submit


# ---------------------------------------------------------------------------
# Regression: _may_retry must be a pure predicate
# ---------------------------------------------------------------------------


def _failed_attempt(name, attempt=1):
    return JobAttempt(
        job_name=name,
        transformation="t",
        site="s",
        machine="m",
        attempt=attempt,
        submit_time=0.0,
        setup_start=0.0,
        exec_start=0.0,
        exec_end=0.0,
        status=JobStatus.FAILED,
    )


def test_scales_without_rescans():
    """A few thousand jobs complete near-instantly; the legacy rescan
    loop made this size visibly quadratic. (The 100k tier is the
    ``engine_layered_100k`` workload of ``benchmarks/budget/``.)"""
    n, width = 3000, 50
    dag = Dag(name="scale")
    names = [f"s{i:05d}" for i in range(n)]
    for i, name in enumerate(names):
        dag.add_job(
            DagJob(name=name, transformation="t", runtime=1.0,
                   priority=i % 3)
        )
    for i in range(width, n):
        dag.add_edge(names[i - width], names[i])
    env = ScriptedEnvironment(failures=set())
    scheduler = DagmanScheduler(dag, env, max_jobs=width)
    result = scheduler.run()
    assert result.success
    assert len(result.trace) == n
    # Every node was submitted exactly once: nothing left over, nothing
    # resubmitted.
    assert scheduler.unfinished == 0
    assert scheduler.attempt_number == {name: 1 for name in names}
    assert sorted(env.submissions) == [(name, 1) for name in names]


def test_may_retry_is_pure():
    """Deciding whether to retry must not itself count as a failure.

    The decision is taken at two sites — per completion, and once more
    at ``start()`` for every journaled attempt whose decision never
    reached the journal (``SchedulerRestore.undecided``). The restored
    ``failed_attempts`` already include that attempt, so a predicate
    that counted as a side effect (the old one did) would charge it
    twice and fail a job the retry budget still covers."""
    dag = Dag()
    dag.add_job(DagJob(name="j", transformation="t", retries=5))
    always_failing = {("j", a) for a in range(1, 10)}
    scheduler = DagmanScheduler(
        dag,
        SynchronousEnvironment(failures=always_failing),
        retry_policy=RetryPolicy(budget=2),
    )
    scheduler.run()
    # The budget capped requeues at 2 (attempts at 3) even though the
    # RETRY budget allowed 5.
    assert scheduler.states["j"] is NodeState.FAILED
    assert scheduler.attempt_number["j"] == 3
    assert len(scheduler.trace.by_job()["j"]) == 3

    # Crash after attempt 2 failed, before its decision was journaled:
    # two failures counted, budget 2 — exactly one requeue is still
    # owed, and the resumed scheduler must grant it.
    env = SynchronousEnvironment(failures=always_failing)
    resumed = DagmanScheduler(
        dag,
        env,
        retry_policy=RetryPolicy(budget=2),
        restore=SchedulerRestore(
            attempts={"j": 2},
            retries_left={"j": 4},
            failed_attempts={"j": 2},
            undecided={"j": _failed_attempt("j", 2)},
        ),
    )
    resumed.run()
    assert env.submissions == [("j", 3)]
    assert resumed.states["j"] is NodeState.FAILED
    assert resumed.attempt_number["j"] == 3


# ---------------------------------------------------------------------------
# restore= goes through the name → id index
# ---------------------------------------------------------------------------


def test_restore_lands_on_the_right_job_when_insertion_order_is_not_name_order():
    """Every ``SchedulerRestore`` field is keyed by job name while the
    scheduler's own state is indexed by insertion position; here the two
    orders differ, each field has an observable consequence, and every
    field also names a job the DAG does not have."""
    dag = Dag(name="restore")
    for name in ("d", "b", "e", "a", "c"):  # ids 0..4; name order differs
        dag.add_job(DagJob(name=name, transformation="t", retries=1))
    dag.add_edge("d", "c")
    ghost = _failed_attempt("ghost", 1)
    restore = SchedulerRestore(
        attempts={"a": 2, "b": 1, "ghost": 9},
        retries_left={"a": 0, "ghost": 5},
        failed_attempts={"e": 2, "ghost": 1},
        failed=frozenset({"d", "ghost"}),
        undecided={"b": _failed_attempt("b", 1), "ghost": ghost},
    )
    env = ScriptedEnvironment(failures={("a", 3), ("e", 1)})
    bus = EventBus()
    recorder = EventRecorder(bus)
    scheduler = DagmanScheduler(
        dag, env, bus=bus, retry_policy=RetryPolicy(budget=2),
        restore=restore,
    )
    result = scheduler.run()

    assert list(result.states) == ["d", "b", "e", "a", "c"]
    assert result.states == {
        # failed: re-enters FAILED without running ...
        "d": NodeState.FAILED,
        # undecided: requeued under b's own (default) RETRY budget ...
        "b": NodeState.DONE,
        # failed_attempts: 2 restored + 1 now exceeds the budget of 2,
        # although a RETRY was left ...
        "e": NodeState.FAILED,
        # retries_left: 0 restored, so the failed attempt 3 is final ...
        "a": NodeState.FAILED,
        # ... and d's child is swept.
        "c": NodeState.UNRUNNABLE,
    }
    # attempts: a and b carry on from their journaled attempt numbers.
    assert scheduler.attempt_number == {"d": 0, "b": 2, "e": 1, "a": 3, "c": 0}
    assert sorted(env.submissions) == [("a", 3), ("b", 2), ("e", 1)]
    retries = [e for e in recorder.events if e.kind is EventKind.RETRY]
    assert [(e.job_name, e.attempt, e.detail["retries_left"])
            for e in retries] == [("b", 1, 0)]
    assert all(e.job_name != "ghost" for e in recorder.events)
