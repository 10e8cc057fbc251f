"""Tests for ClassAd matchmaking and the trace schema."""

import pytest

from repro.dagman import condor
from repro.dagman.condor import (
    ClassAd,
    compile_expression,
    evaluate_rank,
    evaluate_requirements,
    match,
)
from repro.dagman.events import JobAttempt, JobStatus, WorkflowTrace


class TestClassAdEval:
    def machine(self, **attrs):
        return ClassAd(name="m", attributes=attrs)

    def test_simple_boolean(self):
        m = self.machine(has_python=True, has_cap3=False)
        assert evaluate_requirements("has_python", m)
        assert not evaluate_requirements("has_cap3", m)

    def test_conjunction(self):
        m = self.machine(has_python=True, has_biopython=True, has_cap3=True)
        assert evaluate_requirements(
            "has_python and has_biopython and has_cap3", m
        )

    def test_numeric_comparison(self):
        m = self.machine(memory_mb=4096)
        assert evaluate_requirements("memory_mb >= 2048", m)
        assert not evaluate_requirements("memory_mb >= 8192", m)

    def test_undefined_attribute_fails_closed(self):
        m = self.machine(speed=1.0)
        assert not evaluate_requirements("has_python", m)
        assert not evaluate_requirements("memory_mb >= 1", m)

    def test_none_requirements_always_true(self):
        assert evaluate_requirements(None, self.machine())

    def test_my_prefix_sees_own_ad(self):
        job = ClassAd(name="j", attributes={"image_size": 100})
        m = self.machine(disk=500)
        assert evaluate_requirements("disk >= my_image_size", m, my=job)

    def test_disallowed_syntax_rejected(self):
        m = self.machine()
        with pytest.raises(ValueError, match="disallowed"):
            evaluate_requirements("__import__('os')", m)
        with pytest.raises(ValueError, match="disallowed"):
            evaluate_requirements("(lambda: 1)()", m)

    def test_expression_compiled_once_evaluated_many_times(self, monkeypatch):
        parsed = []
        parse = condor.ast.parse
        monkeypatch.setattr(
            condor.ast, "parse",
            lambda *a, **kw: parsed.append(a[0]) or parse(*a, **kw),
        )
        expr = "memory_mb >= 1234 and has_python"  # no other test's
        job = ClassAd(name="j", rank=expr)
        for memory in (1000, 2000, 3000):
            m = self.machine(memory_mb=memory, has_python=True)
            assert evaluate_requirements(expr, m) == (memory >= 1234)
            assert evaluate_rank(job.rank, m, my=job) == float(memory >= 1234)
        assert parsed == [expr]
        code, names = compile_expression(expr)
        assert names == {"memory_mb", "has_python"}
        assert compile_expression(expr)[0] is code

    def test_bad_expressions_raise_on_every_call(self):
        # A failure is never memoized into a verdict.
        m = self.machine(has_python=True)
        for _ in range(3):
            with pytest.raises(ValueError, match="disallowed"):
                evaluate_requirements("has_python.real", m)
            with pytest.raises(ValueError, match="disallowed"):
                evaluate_rank("[speed]", m)
            with pytest.raises(SyntaxError):
                evaluate_requirements("has_python and", m)

    def test_undefined_names_are_quiet_in_every_position(self):
        m = self.machine(speed=1.0)
        for expr in ("a == b", "a < 3", "3 >= a", "not a", "a in 'xyz'",
                     "a + 1 > 0"):
            assert evaluate_requirements(expr, m) is (expr == "not a")


class TestMatch:
    def test_picks_satisfying_machine(self):
        job = ClassAd(name="j", requirements="has_cap3")
        machines = [
            ClassAd(name="m1", attributes={"has_cap3": False}),
            ClassAd(name="m2", attributes={"has_cap3": True}),
        ]
        assert match(job, machines).name == "m2"

    def test_rank_prefers_faster(self):
        job = ClassAd(name="j", rank="speed")
        machines = [
            ClassAd(name="slow", attributes={"speed": 1.0}),
            ClassAd(name="fast", attributes={"speed": 2.0}),
        ]
        assert match(job, machines).name == "fast"

    def test_two_sided_matching(self):
        job = ClassAd(name="j", attributes={"vo": "hcc"})
        machines = [
            ClassAd(name="picky", requirements="vo == 'atlas'"),
            ClassAd(name="open", requirements=None),
        ]
        assert match(job, machines).name == "open"

    def test_no_match_returns_none(self):
        job = ClassAd(name="j", requirements="has_cap3")
        machines = [ClassAd(name="m", attributes={"has_cap3": False})]
        assert match(job, machines) is None

    def test_tie_keeps_first(self):
        job = ClassAd(name="j")
        machines = [ClassAd(name="a"), ClassAd(name="b")]
        assert match(job, machines).name == "a"


def attempt(name="j", status=JobStatus.SUCCEEDED, attempt_no=1,
            submit=0.0, setup=10.0, start=20.0, end=120.0):
    return JobAttempt(
        job_name=name,
        transformation="t",
        site="s",
        machine="m",
        attempt=attempt_no,
        submit_time=submit,
        setup_start=setup,
        exec_start=start,
        exec_end=end,
        status=status,
    )


class TestJobAttempt:
    def test_derived_times_match_paper_statistics(self):
        a = attempt()
        assert a.waiting_time == 10.0
        assert a.download_install_time == 10.0
        assert a.kickstart_time == 100.0
        assert a.total_time == 120.0

    def test_ordering_enforced(self):
        with pytest.raises(ValueError, match="ordered"):
            attempt(setup=5.0, start=1.0)

    def test_attempt_number_validated(self):
        with pytest.raises(ValueError):
            attempt(attempt_no=0)

    def test_status_helper(self):
        assert JobStatus.SUCCEEDED.is_success
        assert not JobStatus.EVICTED.is_success
        assert not JobStatus.FAILED.is_success


class TestWorkflowTrace:
    def test_wall_time(self):
        trace = WorkflowTrace()
        trace.add(attempt(name="a", submit=0, setup=0, start=0, end=50))
        trace.add(attempt(name="b", submit=10, setup=10, start=10, end=200))
        assert trace.wall_time() == 200.0

    def test_empty_wall_time(self):
        assert WorkflowTrace().wall_time() == 0.0

    def test_successful_and_failures_partition(self):
        trace = WorkflowTrace()
        trace.add(attempt(name="a", status=JobStatus.FAILED))
        trace.add(attempt(name="a", status=JobStatus.SUCCEEDED, attempt_no=2))
        trace.add(attempt(name="b", status=JobStatus.EVICTED))
        assert len(trace.successful()) == 1
        assert len(trace.failures()) == 2
        assert trace.retry_count == 1

    def test_for_job_sorted_by_attempt(self):
        trace = WorkflowTrace()
        trace.add(attempt(name="a", attempt_no=2, status=JobStatus.SUCCEEDED))
        trace.add(attempt(name="a", attempt_no=1, status=JobStatus.FAILED))
        attempts = trace.by_job()["a"]
        assert [x.attempt for x in attempts] == [1, 2]

    def test_cumulative_kickstart_counts_successes_only(self):
        trace = WorkflowTrace()
        trace.add(attempt(name="a", start=0, setup=0, submit=0, end=100))
        trace.add(
            attempt(name="b", status=JobStatus.FAILED, start=0, setup=0,
                    submit=0, end=999)
        )
        assert trace.cumulative_kickstart() == 100.0
