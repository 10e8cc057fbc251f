"""Property-based tests: DAGMan invariants over random DAGs, random
failure scripts, and random throttles."""

import json
import tempfile
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.dagman.dag import Dag, DagJob
from repro.dagman.events import JobAttempt, JobStatus
from repro.dagman.scheduler import DagmanScheduler, NodeState
from repro.sim.engine import Simulator
from repro.wms.monitor import read_plan, write_plan


class RecordingEnvironment:
    """Deterministic environment that records submission order and can
    fail scripted (job, attempt) pairs."""

    def __init__(self, failures: set[tuple[str, int]]):
        self.sim = Simulator()
        self.failures = failures
        self.submissions: list[tuple[str, int, float]] = []
        self.completed_at: dict[str, float] = {}

    @property
    def now(self):
        return self.sim.now

    def submit(self, job, on_complete, *, attempt=1):
        self.submissions.append((job.name, attempt, self.now))
        submit_time = self.now

        def finish():
            failed = (job.name, attempt) in self.failures
            if not failed:
                self.completed_at[job.name] = self.now
            on_complete(
                JobAttempt(
                    job_name=job.name,
                    transformation=job.transformation,
                    site="rec",
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


@st.composite
def random_dag_case(draw):
    """A random DAG, a failure script, retries, and a throttle."""
    n = draw(st.integers(min_value=1, max_value=12))
    names = [f"n{i}" for i in range(n)]
    dag = Dag()
    for i, name in enumerate(names):
        runtime = draw(st.integers(min_value=1, max_value=50))
        dag.add_job(DagJob(name=name, transformation="t", runtime=runtime))
    # Edges only i -> j with i < j keeps it acyclic by construction.
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()) and draw(st.integers(0, 3)) == 0:
                dag.add_edge(names[i], names[j])
    retries = draw(st.integers(min_value=0, max_value=2))
    failures = set()
    for name in names:
        for attempt in range(1, retries + 2):
            if draw(st.integers(0, 5)) == 0:
                failures.add((name, attempt))
    max_jobs = draw(st.one_of(st.none(), st.integers(1, 4)))
    return dag, failures, retries, max_jobs


@given(random_dag_case())
@settings(max_examples=120, deadline=None)
def test_dagman_invariants(case):
    dag, failures, retries, max_jobs = case
    env = RecordingEnvironment(failures)
    scheduler = DagmanScheduler(
        dag, env, max_jobs=max_jobs, default_retries=retries
    )
    result = scheduler.run()

    # 1. Every node reaches a terminal state.
    terminal = {NodeState.DONE, NodeState.FAILED, NodeState.UNRUNNABLE}
    assert set(result.states.values()) <= terminal

    # 2. success <=> all nodes DONE.
    assert result.success == all(
        s is NodeState.DONE for s in result.states.values()
    )

    # 3. Attempt counts respect the retry budget and scripted failures.
    for name in dag.jobs:
        attempts = result.trace.for_job(name)
        assert len(attempts) <= retries + 1
        for k, attempt in enumerate(attempts, start=1):
            assert attempt.attempt == k
            scripted_fail = (name, k) in failures
            assert attempt.status.is_success == (not scripted_fail)

    # 4. DONE iff the job's last attempt succeeded; FAILED iff every
    #    allowed attempt was scripted to fail.
    for name, state in result.states.items():
        attempts = result.trace.for_job(name)
        if state is NodeState.DONE:
            assert attempts and attempts[-1].status.is_success
        elif state is NodeState.FAILED:
            assert len(attempts) == retries + 1
            assert all(not a.status.is_success for a in attempts)
        else:  # UNRUNNABLE: never submitted, some ancestor failed
            assert not attempts
            assert _has_failed_ancestor(dag, name, result.states)

    # 5. No job submitted before all its parents completed.
    for name, attempt, submit_time in env.submissions:
        for parent in dag.parents(name):
            assert result.states[parent] is NodeState.DONE
            assert env.completed_at[parent] <= submit_time + 1e-9

    # 6. The throttle was respected at every instant: reconstruct
    #    in-flight counts from the trace.
    if max_jobs is not None:
        events = []
        for a in result.trace:
            events.append((a.submit_time, 1))
            events.append((a.exec_end, -1))
        events.sort(key=lambda e: (e[0], e[1]))
        running = peak = 0
        for _, delta in events:
            running += delta
            peak = max(peak, running)
        assert peak <= max_jobs


def _has_failed_ancestor(dag, name, states):
    stack = list(dag.parents(name))
    seen = set()
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if states[node] is NodeState.FAILED:
            return True
        stack.extend(dag.parents(node))
    return False


@given(random_dag_case())
@settings(max_examples=60, deadline=None)
def test_rescue_resubmission_property(case):
    """After any run, rescuing and re-running with no failures finishes
    the workflow without re-executing DONE jobs."""
    dag, failures, retries, _ = case
    env = RecordingEnvironment(failures)
    scheduler = DagmanScheduler(dag, env, default_retries=retries)
    first = scheduler.run()

    done_jobs = {n for n, s in first.states.items() if s is NodeState.DONE}
    rescue = Dag(name="rescue")
    for job in dag.jobs.values():
        rescue.add_job(job)
    for parent, child in dag.edges():
        rescue.add_edge(parent, child)
    rescue.done = set(done_jobs)

    env2 = RecordingEnvironment(set())  # the transient failures cleared
    second = DagmanScheduler(rescue, env2).run()
    assert second.success
    resubmitted = {name for name, _, _ in env2.submissions}
    assert resubmitted.isdisjoint(done_jobs)
    assert resubmitted == set(dag.jobs) - done_jobs


# -- plan.json: the planned DAG's JSON shape -------------------------------

decorations = st.fixed_dictionaries({
    "needs_setup": st.booleans(),
    "retries": st.integers(0, 20),
    "priority": st.integers(-5, 5),
    "timeout_s": st.none() | st.floats(1.0, 1e6),
    "requirements": st.none() | st.sampled_from(
        ["has_python", 'has_cap3 and site != "x"']
    ),
    "runtime": st.floats(0.0, 1e6),
})


def plan_json_before_the_codec(dag, site, n):
    """The dict literal ``repro-plan`` built inline until ``Dag.to_json``
    took the shape over, kept as the oracle for the file's bytes."""
    return {
        "site": site,
        "n": n,
        "jobs": {
            name: {
                "transformation": job.transformation,
                "runtime": job.runtime,
                "needs_setup": job.needs_setup,
                "retries": job.retries,
                "timeout_s": job.timeout_s,
                "requirements": job.requirements,
                "priority": job.priority,
            }
            for name, job in dag.jobs.items()
        },
        "edges": sorted(dag.edges()),
    }


@given(random_dag_case(), st.data())
@settings(max_examples=80, deadline=None)
def test_plan_json_round_trip(case, data):
    dag = case[0]
    dag.name = data.draw(st.sampled_from(["workflow", "blast2cap3-n7-osg"]))
    for name in dag.jobs:
        dag.jobs[name] = replace(dag.jobs[name], **data.draw(decorations))

    # The bytes: what ``repro-plan`` wrote before there was a codec.
    with tempfile.TemporaryDirectory() as tmp:
        written = write_plan(tmp, dag, site="osg", n=7).read_text()
        site, planned = read_plan(tmp)
    assert written == json.dumps(
        plan_json_before_the_codec(dag, "osg", 7), indent=2
    )

    # The round trip, through text and straight from the dict; DONE
    # marks travel too (as in the .dag file, only when there are any).
    dag.done = set(data.draw(st.lists(st.sampled_from(sorted(dag.jobs)))))
    assert ("done" in dag.to_json()) == bool(dag.done)
    through_text = Dag.from_json(
        json.loads(json.dumps(dag.to_json())), name=dag.name
    )
    for back in (through_text, Dag.from_json(dag.to_json(), name=dag.name)):
        assert back.name == dag.name
        assert list(back.jobs.items()) == list(dag.jobs.items())
        assert list(back.edges()) == list(dag.edges())
        assert back.done == dag.done
    assert site == "osg" and planned.name == "blast2cap3-n7-osg"
    assert planned.jobs == dag.jobs and not planned.done
    assert list(planned.edges()) == list(dag.edges())
