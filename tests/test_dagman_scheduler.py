"""Tests for the DAGMan scheduling loop on a scripted environment."""

from unittest import mock

import pytest

from repro.dagman import scheduler as scheduler_mod
from repro.dagman.dag import Dag, DagJob
from repro.dagman.events import JobAttempt, JobStatus
from repro.dagman.scheduler import DagmanScheduler, NodeState
from repro.observe.bus import EventBus
from repro.observe.events import EventKind, RunEvent
from repro.sim.engine import Simulator


class ScriptedEnvironment:
    """Deterministic environment: fixed runtimes, scripted failures.

    ``failures`` maps (job_name, attempt) -> True to force a failure.
    """

    def __init__(self, failures=None):
        self.sim = Simulator()
        self.failures = failures or {}
        self.submitted = []
        self.max_concurrent = 0
        self._running = 0

    @property
    def now(self):
        return self.sim.now

    def submit(self, job, on_complete, *, attempt=1):
        self.submitted.append((job.name, attempt))
        self._running += 1
        self.max_concurrent = max(self.max_concurrent, self._running)
        submit_time = self.now

        def finish():
            self._running -= 1
            failed = self.failures.get((job.name, attempt), False)
            on_complete(
                JobAttempt(
                    job_name=job.name,
                    transformation=job.transformation,
                    site="scripted",
                    machine="m0",
                    attempt=attempt,
                    submit_time=submit_time,
                    setup_start=submit_time,
                    exec_start=submit_time,
                    exec_end=self.now,
                    status=JobStatus.FAILED if failed else JobStatus.SUCCEEDED,
                    error="scripted failure" if failed else None,
                )
            )

        self.sim.schedule(job.runtime, finish)

    def run_until_complete(self):
        self.sim.run()


def diamond(retries=0):
    dag = Dag(name="diamond")
    for name, rt in (("a", 5), ("b", 10), ("c", 20), ("d", 5)):
        dag.add_job(
            DagJob(name=name, transformation="t", runtime=rt, retries=retries)
        )
    dag.add_edge("a", "b")
    dag.add_edge("a", "c")
    dag.add_edge("b", "d")
    dag.add_edge("c", "d")
    return dag


class TestHappyPath:
    def test_all_jobs_succeed(self):
        env = ScriptedEnvironment()
        result = DagmanScheduler(diamond(), env).run()
        assert result.success
        assert all(s is NodeState.DONE for s in result.states.values())

    def test_dependency_order_respected(self):
        env = ScriptedEnvironment()
        DagmanScheduler(diamond(), env).run()
        order = [name for name, _ in env.submitted]
        assert order.index("a") < order.index("b")
        assert order.index("a") < order.index("c")
        assert order.index("d") > order.index("b")
        assert order.index("d") > order.index("c")

    def test_parallel_branches_overlap(self):
        env = ScriptedEnvironment()
        DagmanScheduler(diamond(), env).run()
        assert env.max_concurrent >= 2  # b and c ran together

    def test_wall_time_is_critical_path(self):
        env = ScriptedEnvironment()
        result = DagmanScheduler(diamond(), env).run()
        # a(5) + c(20) + d(5): the scripted env has no queue waits.
        assert result.wall_time == 30.0

    def test_pre_done_jobs_skipped(self):
        dag = diamond()
        dag.done.add("a")
        env = ScriptedEnvironment()
        result = DagmanScheduler(dag, env).run()
        assert result.success
        assert ("a", 1) not in env.submitted

    def test_trace_has_one_attempt_per_job(self):
        env = ScriptedEnvironment()
        result = DagmanScheduler(diamond(), env).run()
        assert len(result.trace) == 4
        assert result.trace.retry_count == 0


class TestThrottle:
    def test_max_jobs_limits_concurrency(self):
        dag = Dag()
        for i in range(10):
            dag.add_job(DagJob(name=f"j{i}", transformation="t", runtime=10))
        env = ScriptedEnvironment()
        DagmanScheduler(dag, env, max_jobs=3).run()
        assert env.max_concurrent <= 3

    def test_invalid_max_jobs(self):
        with pytest.raises(ValueError):
            DagmanScheduler(Dag(), ScriptedEnvironment(), max_jobs=0)

    def test_priority_orders_submissions(self):
        dag = Dag()
        for i, prio in enumerate((0, 10, 5)):
            dag.add_job(
                DagJob(name=f"j{i}", transformation="t", runtime=1, priority=prio)
            )
        env = ScriptedEnvironment()
        DagmanScheduler(dag, env, max_jobs=1).run()
        first_three = [name for name, _ in env.submitted]
        assert first_three == ["j1", "j2", "j0"]

    def test_retried_job_queues_behind_waiting_peers(self):
        # Regression: a retried job must re-enter the ready queue through
        # the same priority sort as fresh nodes — FIFO by *readiness*
        # within a priority class. With a max_jobs throttle, the retry
        # goes behind equal-priority nodes that have been waiting since
        # the workflow started, instead of starving them by resubmitting
        # immediately.
        dag = Dag()
        for i in range(4):
            dag.add_job(
                DagJob(name=f"j{i}", transformation="t", runtime=1, retries=1)
            )
        env = ScriptedEnvironment(failures={("j0", 1): True})
        result = DagmanScheduler(dag, env, max_jobs=1).run()
        assert result.success
        assert env.submitted == [
            ("j0", 1),
            ("j1", 1),
            ("j2", 1),
            ("j3", 1),
            ("j0", 2),  # the retry waited its turn
        ]


class TestRetries:
    def test_retry_recovers_from_transient_failure(self):
        env = ScriptedEnvironment(failures={("b", 1): True})
        result = DagmanScheduler(diamond(retries=2), env).run()
        assert result.success
        assert ("b", 2) in env.submitted
        assert result.trace.retry_count == 1

    def test_retries_exhausted_fails_job(self):
        env = ScriptedEnvironment(
            failures={("b", 1): True, ("b", 2): True, ("b", 3): True}
        )
        result = DagmanScheduler(diamond(retries=2), env).run()
        assert not result.success
        assert result.failed_jobs == ["b"]

    def test_descendants_marked_unrunnable(self):
        env = ScriptedEnvironment(failures={("a", 1): True})
        result = DagmanScheduler(diamond(retries=0), env).run()
        assert result.failed_jobs == ["a"]
        assert set(result.unrunnable_jobs) == {"b", "c", "d"}

    def test_independent_branch_still_completes(self):
        env = ScriptedEnvironment(failures={("b", 1): True})
        result = DagmanScheduler(diamond(retries=0), env).run()
        assert result.states["c"] is NodeState.DONE
        assert result.states["d"] is NodeState.UNRUNNABLE

    def test_default_retries_override(self):
        env = ScriptedEnvironment(failures={("b", 1): True})
        result = DagmanScheduler(
            diamond(retries=0), env, default_retries=1
        ).run()
        assert result.success


class TestRescue:
    def test_rescue_marks_done_jobs(self, tmp_path):
        env = ScriptedEnvironment(failures={("c", 1): True})
        scheduler = DagmanScheduler(diamond(retries=0), env)
        result = scheduler.run()
        assert not result.success
        rescue_path = tmp_path / "wf.rescue001"
        scheduler.write_rescue(rescue_path)
        rescue = Dag.parse_dagfile(rescue_path)
        assert "a" in rescue.done
        assert "b" in rescue.done
        assert "c" not in rescue.done

    def test_rescue_resubmission_completes(self, tmp_path):
        # First run fails 'c' permanently; rescue run succeeds.
        env1 = ScriptedEnvironment(failures={("c", 1): True})
        sched1 = DagmanScheduler(diamond(retries=0), env1)
        assert not sched1.run().success
        rescue_path = tmp_path / "wf.rescue001"
        sched1.write_rescue(rescue_path)

        parsed = Dag.parse_dagfile(rescue_path)
        # Re-attach runtimes (the .dag file does not carry them).
        rescue = diamond()
        rescue.done = parsed.done
        env2 = ScriptedEnvironment()
        result = DagmanScheduler(rescue, env2).run()
        assert result.success
        resubmitted = [name for name, _ in env2.submitted]
        assert "a" not in resubmitted
        assert "c" in resubmitted

    def test_status_counts(self):
        env = ScriptedEnvironment()
        scheduler = DagmanScheduler(diamond(), env)
        result = scheduler.run()
        assert list(scheduler.states.values()) == [NodeState.DONE] * 4
        assert result.wall_time > 0

    def test_double_start_rejected(self):
        scheduler = DagmanScheduler(diamond(), ScriptedEnvironment())
        scheduler.start()
        with pytest.raises(RuntimeError, match="already started"):
            scheduler.start()


class TestDeafBus:
    """Nobody listening: the hot paths build neither a ``detail`` dict
    nor a ``RunEvent`` (what ``engine_layered_100k`` measures)."""

    @staticmethod
    def run(bus):
        built, details = [], []

        def counting(*args, **kwargs):
            built.append(RunEvent(*args, **kwargs))
            return built[-1]

        emit = DagmanScheduler._emit

        def spying(self, kind, job, attempt, detail):
            if kind in (EventKind.STATE_CHANGE, EventKind.SUBMIT):
                details.append(detail)
            emit(self, kind, job, attempt, detail)

        env = ScriptedEnvironment(failures={("b", 1): True})
        with mock.patch.object(scheduler_mod, "RunEvent", counting), \
                mock.patch.object(DagmanScheduler, "_emit", spying):
            result = DagmanScheduler(diamond(retries=1), env, bus=bus).run()
        assert result.success
        return built, details

    @pytest.mark.parametrize("bus", [None, EventBus()], ids=["none", "deaf"])
    def test_nothing_is_built(self, bus):
        built, details = self.run(bus)
        assert built == [] and details == []
        assert bus is None or bus.emitted == 0

    def test_a_listener_gets_everything(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        built, details = self.run(bus)
        assert seen == built and bus.emitted == len(built)
        # a, c, d: ready / done + one submit each; b, retried once:
        # ready / done + two submits (its submits and job.retry state
        # the → submitted and → ready between, so nothing restates them).
        assert len(details) == 3 * (2 + 1) + (2 + 2)
        assert all(d for d in details)
