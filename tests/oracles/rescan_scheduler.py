"""The DAGMan loop as it was before the incremental, id-indexed rewrites.

:class:`LegacyRescanScheduler` keeps everything it knows per job in
dicts keyed by job name, rebuilds and re-sorts the entire READY set from
the state map on every completion (``_submit_ready``) and rescans all
parents per child (``_parents_done``). That makes a run O(n² log n) in
the job count — which is why it was replaced — but its *behaviour*
(trace, event stream, tie-break order: priority descending, readiness
FIFO, children released in name order) is the specification
:class:`repro.dagman.scheduler.DagmanScheduler` must match event for
event. Self-contained on purpose: it shares no scheduling code with the
class it judges, only the result and state types.

One consumer: the hypothesis equivalence properties in
``tests/test_scheduler_incremental.py`` (scripted environment and all
three simulated platforms).

Do not "fix" it: bug-for-bug fidelity to the historical implementation
is the whole point. Its ``_submit_ready`` iterates a stale snapshot (a
synchronous ``on_complete`` double-submits), its ``_may_retry`` mutates
the failed-attempt counter as a side effect (harmless here because the
loop calls it exactly once per completion), and it knows nothing of
``restore=``.
"""

from __future__ import annotations

from repro.dagman.events import JobAttempt, JobStatus, WorkflowTrace
from repro.dagman.scheduler import DagmanResult, NodeState
from repro.observe.events import EventKind, RunEvent

__all__ = ["LegacyRescanScheduler"]


class LegacyRescanScheduler:
    """The historical O(n²·log n) rescan implementation (oracle only)."""

    def __init__(self, dag, environment, *, max_jobs=None,
                 default_retries=None, bus=None, tags=None,
                 retry_policy=None) -> None:
        self.dag = dag
        self.environment = environment
        self.max_jobs = max_jobs
        self.default_retries = default_retries
        self.bus = bus
        self._tags = dict(tags) if tags else None
        self.retry_policy = retry_policy
        self.trace = WorkflowTrace()
        self.states: dict[str, NodeState] = {}
        self._retries_left: dict[str, int] = {}
        self._attempt: dict[str, int] = {}
        self._failed_attempts: dict[str, int] = {}
        self._ready_seq: dict[str, int] = {}
        self._seq = 0
        self._in_flight = 0
        self._start_time = 0.0

    def run(self) -> DagmanResult:
        self.start()
        self.environment.run_until_complete()
        result = DagmanResult(
            success=all(s is NodeState.DONE for s in self.states.values()),
            trace=self.trace,
            states=dict(self.states),
            wall_time=self.environment.now - self._start_time,
        )
        self._emit(
            EventKind.WORKFLOW_END,
            detail={
                "success": result.success,
                "wall_time": result.wall_time,
                "jobs": len(self.dag.jobs),
            },
        )
        return result

    def start(self) -> None:
        self._start_time = self.environment.now
        for name, job in self.dag.jobs.items():
            retries = (
                self.default_retries
                if self.default_retries is not None
                else job.retries
            )
            self._retries_left[name] = retries
            self._attempt[name] = 0
            self._failed_attempts[name] = 0
            if name in self.dag.done:
                self.states[name] = NodeState.DONE
            else:
                self.states[name] = NodeState.UNREADY
        self._emit(
            EventKind.WORKFLOW_START,
            detail={"jobs": len(self.dag.jobs), "name": self.dag.name},
        )
        for name in self.dag.jobs:
            if self.states[name] is NodeState.UNREADY and self._parents_done(name):
                self._set_state(name, NodeState.READY)
        self._submit_ready()

    def _emit(self, kind, *, job=None, attempt=None, detail=None) -> None:
        bus = self.bus
        if bus is None or not bus.active:
            return
        if self._tags is not None:
            detail = {**(detail or {}), **self._tags}
        bus.emit(
            RunEvent(
                kind,
                self.environment.now,
                job_name=job.name if job is not None else None,
                transformation=job.transformation if job is not None else None,
                attempt=attempt,
                detail=detail or {},
            )
        )

    def _set_state(self, name, state, *, cause=None) -> None:
        previous = self.states[name]
        self.states[name] = state
        if state is NodeState.READY:
            self._ready_seq[name] = self._seq
            self._seq += 1
        if state is not previous:
            detail = {"from": previous.value, "to": state.value}
            if cause:
                detail.update(cause)
            self._emit(
                EventKind.STATE_CHANGE,
                job=self.dag.jobs[name],
                attempt=self._attempt[name] or None,
                detail=detail,
            )

    def _parents_done(self, name: str) -> bool:
        return all(
            self.states[p] is NodeState.DONE for p in self.dag.parents(name)
        )

    def _submit_ready(self) -> None:
        ready = [
            n for n, s in self.states.items() if s is NodeState.READY
        ]
        # Highest priority first; readiness order (FIFO) breaks ties.
        ready.sort(
            key=lambda n: (
                -self.dag.jobs[n].priority,
                self._ready_seq.get(n, 0),
            )
        )
        for name in ready:
            if self.max_jobs is not None and self._in_flight >= self.max_jobs:
                return
            self._submit(name)

    def _submit(self, name: str) -> None:
        self._set_state(name, NodeState.SUBMITTED)
        self._attempt[name] += 1
        self._in_flight += 1
        job = self.dag.jobs[name]
        self._emit(
            EventKind.SUBMIT,
            job=job,
            attempt=self._attempt[name],
            detail={"expected_s": job.runtime},
        )

        def on_complete(attempt: JobAttempt) -> None:
            self._handle_completion(name, attempt)

        self.environment.submit(job, on_complete, attempt=self._attempt[name])

    def _handle_completion(self, name: str, attempt: JobAttempt) -> None:
        self.trace.add(attempt)
        self._in_flight -= 1
        if attempt.status.is_success:
            self._failed_attempts[name] = 0
            self._set_state(name, NodeState.DONE)
            # Sorted: children() is a set, and readiness order is the
            # FIFO tie-break — iterating in hash order would make run
            # outcomes depend on PYTHONHASHSEED.
            for child in sorted(self.dag.children(name)):
                if (
                    self.states[child] is NodeState.UNREADY
                    and self._parents_done(child)
                ):
                    self._set_state(
                        child,
                        NodeState.READY,
                        cause={
                            "released_by": name,
                            "released_attempt": attempt.attempt,
                        },
                    )
        elif self._may_retry(name, attempt):
            self._requeue(name, attempt)
        else:
            self._set_state(name, NodeState.FAILED)
            self._mark_descendants_unrunnable(name)
        self._submit_ready()

    def _may_retry(self, name: str, attempt: JobAttempt) -> bool:
        policy = self.retry_policy
        self._failed_attempts[name] += 1
        if (
            policy is not None
            and policy.budget is not None
            and self._failed_attempts[name] > policy.budget
        ):
            return False  # runaway guard: total requeues capped
        if self._is_free_requeue(attempt):
            return True
        return self._retries_left[name] > 0

    def _is_free_requeue(self, attempt: JobAttempt) -> bool:
        return (
            attempt.status is JobStatus.EVICTED
            and self.retry_policy is not None
            and not self.retry_policy.charge_evictions
        )

    def _requeue(self, name: str, attempt: JobAttempt) -> None:
        charged = not self._is_free_requeue(attempt)
        if charged:
            self._retries_left[name] -= 1
        policy = self.retry_policy
        delay = (
            policy.delay_s(self._attempt[name]) if policy is not None else 0.0
        )
        call_later = getattr(self.environment, "call_later", None)
        if call_later is None:
            delay = 0.0  # environment cannot park work; requeue now
        self._emit(
            EventKind.RETRY,
            job=self.dag.jobs[name],
            attempt=self._attempt[name],
            detail={
                "retries_left": self._retries_left[name],
                "status": attempt.status.value,
                "charged": charged,
                "delay_s": delay,
            },
        )
        if delay > 0:
            self._emit(
                EventKind.HELD,
                job=self.dag.jobs[name],
                attempt=self._attempt[name],
                detail={
                    "delay_s": delay,
                    "until": self.environment.now + delay,
                },
            )
            self._set_state(name, NodeState.HELD)

            def release() -> None:
                if self.states.get(name) is NodeState.HELD:
                    self._set_state(name, NodeState.READY)
                    self._submit_ready()

            call_later(delay, release)
        else:
            self._set_state(name, NodeState.READY)

    def _mark_descendants_unrunnable(self, name: str) -> None:
        stack = sorted(self.dag.children(name))
        while stack:
            node = stack.pop()
            if self.states[node] in (NodeState.UNREADY, NodeState.READY):
                self._set_state(node, NodeState.UNRUNNABLE)
                stack.extend(sorted(self.dag.children(node)))
