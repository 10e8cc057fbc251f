"""Property and oracle tests for the dataflow/provenance pass.

The fixpoint in :mod:`repro.lint.dataflow` is cross-checked against a
naive BFS reachability oracle on randomly generated workflows: a job is
runnable iff every transitive input requirement bottoms out in a
replica-backed (or producer-less-but-replicated) file. Hypothesis
drives random DAG shapes through both and they must agree exactly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.lint import lint
from repro.lint.dataflow import (
    availability_fixpoint,
    components,
    reachable_jobs,
)
from repro.lint.registry import LintContext
from repro.wms.catalogs import ReplicaCatalog
from repro.wms.dax import ADag, AbstractJob, File


def _job(jid, inputs=(), outputs=()):
    j = AbstractJob(id=jid, transformation="t")
    for f in inputs:
        j.add_input(File(f))
    for f in outputs:
        j.add_output(File(f))
    return j


def _adag(*jobs):
    adag = ADag(name="fixture")
    for j in jobs:
        adag.add_job(j)
    return adag


def _ctx(adag, replicas):
    return LintContext(adag=adag, replicas=replicas)


def naive_runnable(adag: ADag, replicas: ReplicaCatalog) -> set[str]:
    """Oracle: repeatedly run any job whose inputs are all present."""
    have = set()
    for job in adag.jobs.values():
        for f in job.inputs():
            if replicas.has(f.name):
                have.add(f.name)
        for f in job.outputs():
            if replicas.has(f.name):
                have.add(f.name)
    ran: set[str] = set()
    progress = True
    while progress:
        progress = False
        for job in adag.jobs.values():
            if job.id in ran:
                continue
            if all(f.name in have for f in job.inputs()):
                ran.add(job.id)
                have |= {f.name for f in job.outputs()}
                progress = True
    return ran


# -- random workflow generation -------------------------------------------

#: Small closed world of LFNs so collisions (shared files) are common.
LFNS = [f"f{i}.dat" for i in range(8)]


@st.composite
def random_workflow(draw):
    n_jobs = draw(st.integers(min_value=1, max_value=6))
    adag = ADag(name="random")
    produced: set[str] = set()
    for i in range(n_jobs):
        # draw outputs first, disallowing write-write conflicts (the
        # linter flags those separately; the oracle assumes one producer)
        candidates = [f for f in LFNS if f not in produced]
        outputs = draw(
            st.lists(
                st.sampled_from(candidates) if candidates else st.nothing(),
                max_size=2,
                unique=True,
            )
        ) if candidates else []
        inputs = draw(
            st.lists(st.sampled_from(LFNS), max_size=3, unique=True)
        )
        inputs = [f for f in inputs if f not in outputs]
        produced |= set(outputs)
        adag.add_job(_job(f"j{i}", inputs, outputs))
    replicated = draw(
        st.lists(st.sampled_from(LFNS), max_size=4, unique=True)
    )
    rc = ReplicaCatalog()
    for lfn in replicated:
        rc.add(lfn, f"file:///{lfn}")
    return adag, rc


class TestFixpointAgainstOracle:
    @given(random_workflow())
    @settings(max_examples=120, deadline=None)
    def test_satisfiable_set_matches_naive_reachability(self, wf):
        adag, rc = wf
        ctx = _ctx(adag, rc)
        assert reachable_jobs(ctx) == naive_runnable(adag, rc)

    @given(random_workflow())
    @settings(max_examples=60, deadline=None)
    def test_lint_never_crashes_on_random_workflows(self, wf):
        adag, rc = wf
        report = lint(adag, replicas=rc)
        # every finding references a real rule and a location
        for f in report.findings:
            assert f.rule and f.location

    @given(random_workflow())
    @settings(max_examples=60, deadline=None)
    def test_available_files_are_closed_under_production(self, wf):
        adag, rc = wf
        available, satisfiable = availability_fixpoint(_ctx(adag, rc))
        for job in adag.jobs.values():
            if job.id in satisfiable:
                for f in job.outputs():
                    assert f.name in available
            else:
                # at least one input is unavailable, else monotonicity
                # was violated
                assert any(
                    f.name not in available for f in job.inputs()
                )


class TestComponents:
    def test_single_component(self):
        adag = _adag(
            _job("a", outputs=["x.dat"]), _job("b", inputs=["x.dat"])
        )
        comps = components(_ctx(adag, ReplicaCatalog()))
        assert comps == [{"a", "b"}]

    def test_islands_sorted_largest_first(self):
        adag = _adag(
            _job("a", outputs=["x.dat"]),
            _job("b", inputs=["x.dat"], outputs=["y.dat"]),
            _job("c", inputs=["y.dat"]),
            _job("lone", inputs=["other.dat"]),
        )
        comps = components(_ctx(adag, ReplicaCatalog()))
        assert comps == [{"a", "b", "c"}, {"lone"}]

    @given(random_workflow())
    @settings(max_examples=60, deadline=None)
    def test_components_partition_the_jobs(self, wf):
        adag, rc = wf
        comps = components(_ctx(adag, rc))
        seen: set[str] = set()
        for comp in comps:
            assert not (comp & seen)
            seen |= comp
        assert seen == set(adag.jobs)


class TestFlowRules:
    def test_flow001_names_the_starved_root(self):
        adag = _adag(
            _job("a", inputs=["ghost.txt"], outputs=["x.dat"]),
            _job("b", inputs=["x.dat"], outputs=["y.dat"]),
        )
        report = lint(adag, replicas=ReplicaCatalog())
        flow = report.by_rule("FLOW001")
        assert len(flow) == 1
        assert flow[0].location == "job:b"
        assert "'a'" in flow[0].message

    def test_flow_rules_stand_down_on_cycles(self):
        a = _job("a", inputs=["fb.dat"], outputs=["fa.dat"])
        b = _job("b", inputs=["fa.dat"], outputs=["fb.dat"])
        report = lint(_adag(a, b), replicas=ReplicaCatalog())
        fired = {f.rule for f in report.findings}
        assert "DAX001" in fired
        assert not fired & {"FLOW001", "FLOW002"}

    def test_flow003_names_a_job_whose_outputs_all_have_replicas(self):
        rc = ReplicaCatalog()
        rc.add("raw.txt", "file:///raw.txt")
        rc.add("x.dat", "file:///x.dat")
        adag = _adag(
            _job("a", inputs=["raw.txt"], outputs=["x.dat"]),
            _job("b", inputs=["x.dat"], outputs=["y.dat"]),
        )
        assert [f.location for f in lint(adag, replicas=rc).by_rule("FLOW003")] \
            == ["job:a"]

    def test_flow004_quiet_on_bag_of_tasks(self):
        # independent single-job tasks are a legitimate shape, not islands
        adag = _adag(
            _job("t0", inputs=["a.in"], outputs=["a.out"]),
            _job("t1", inputs=["b.in"], outputs=["b.out"]),
            _job("t2", inputs=["c.in"], outputs=["c.out"]),
        )
        report = lint(adag)
        assert not report.by_rule("FLOW004")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
