"""Tests for the kickstart wrapper and the local thread-pool backend."""

import threading
import time

import pytest

from repro.dagman.dag import Dag, DagJob
from repro.dagman.scheduler import DagmanScheduler, NodeState
from repro.execution.kickstart import KickstartRecord, kickstart
from repro.execution.local import LocalEnvironment


class TestKickstart:
    def test_success_captures_result(self):
        record = kickstart(lambda: 42)
        assert record.success
        assert record.result == 42
        assert record.error is None
        assert record.duration_s >= 0

    def test_failure_captures_traceback(self):
        def boom():
            raise RuntimeError("cap3 exploded")

        record = kickstart(boom)
        assert not record.success
        assert "cap3 exploded" in record.error
        assert "RuntimeError" in record.error

    def test_duration_measured(self):
        record = kickstart(lambda: time.sleep(0.05))
        assert record.duration_s >= 0.04

    def test_record_validation(self):
        with pytest.raises(ValueError):
            KickstartRecord(duration_s=-1, success=True)
        with pytest.raises(ValueError):
            KickstartRecord(duration_s=1, success=True, error="x")


class TestLocalEnvironment:
    def test_executes_real_payloads(self):
        results = []
        dag = Dag()
        dag.add_job(
            DagJob(
                name="hello",
                transformation="t",
                payload=lambda: results.append("ran"),
            )
        )
        with LocalEnvironment(max_workers=2) as env:
            outcome = DagmanScheduler(dag, env).run()
        assert outcome.success
        assert results == ["ran"]

    def test_dependencies_sequenced_across_threads(self):
        order = []
        lock = threading.Lock()

        def step(name):
            def payload():
                with lock:
                    order.append(name)

            return payload

        dag = Dag()
        for n in ("a", "b", "c"):
            dag.add_job(DagJob(name=n, transformation="t", payload=step(n)))
        dag.add_edge("a", "b")
        dag.add_edge("b", "c")
        with LocalEnvironment(max_workers=4) as env:
            assert DagmanScheduler(dag, env).run().success
        assert order == ["a", "b", "c"]

    def test_parallel_jobs_overlap(self):
        barrier = threading.Barrier(2, timeout=5)

        def meet():
            barrier.wait()  # deadlocks unless both run concurrently

        dag = Dag()
        for n in ("x", "y"):
            dag.add_job(DagJob(name=n, transformation="t", payload=meet))
        with LocalEnvironment(max_workers=2) as env:
            assert DagmanScheduler(dag, env).run().success

    def test_failing_payload_fails_job(self):
        def boom():
            raise ValueError("bad input")

        dag = Dag()
        dag.add_job(DagJob(name="bad", transformation="t", payload=boom))
        dag.add_job(DagJob(name="child", transformation="t", payload=lambda: None))
        dag.add_edge("bad", "child")
        with LocalEnvironment() as env:
            result = DagmanScheduler(dag, env).run()
        assert not result.success
        assert result.states["bad"] is NodeState.FAILED
        assert result.states["child"] is NodeState.UNRUNNABLE
        assert "bad input" in result.trace.by_job()["bad"][0].error

    def test_retry_reruns_payload(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")

        dag = Dag()
        dag.add_job(
            DagJob(name="flaky", transformation="t", payload=flaky, retries=2)
        )
        with LocalEnvironment() as env:
            result = DagmanScheduler(dag, env).run()
        assert result.success
        assert calls["n"] == 2
        assert result.trace.retry_count == 1

    def test_payload_required(self):
        dag = Dag()
        dag.add_job(DagJob(name="modelled", transformation="t", runtime=5))
        with LocalEnvironment() as env:
            scheduler = DagmanScheduler(dag, env)
            with pytest.raises(ValueError, match="no payload"):
                scheduler.start()

    def test_trace_timestamps_sane(self):
        dag = Dag()
        dag.add_job(
            DagJob(
                name="sleepy",
                transformation="t",
                payload=lambda: time.sleep(0.05),
            )
        )
        with LocalEnvironment() as env:
            result = DagmanScheduler(dag, env).run()
        (a,) = result.trace.attempts
        assert a.kickstart_time >= 0.04
        assert a.waiting_time >= 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LocalEnvironment(max_workers=0)
