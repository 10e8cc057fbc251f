"""The pre-rewrite full-rescan scheduler, kept as a test oracle.

:class:`LegacyRescanScheduler` is the DAGMan scheduling loop exactly as
it stood before the incremental ready-set rewrite: ``_submit_ready``
rebuilds and re-sorts the entire READY set from the state map on every
completion, and ``_parents_done`` rescans all parents per child. That
makes a run O(n² log n) in the job count — which is why it was
replaced — but its *behaviour* (trace, event stream, tie-break order:
priority descending, readiness FIFO) is the specification the rewrite
must match bit-for-bit.

It exists for two consumers:

* the hypothesis equivalence property in
  ``tests/test_scheduler_incremental.py``, which runs arbitrary
  generated DAGs through both schedulers on scripted environments and
  all three simulated platforms and asserts identical traces, event
  streams, and final states;
* ``benchmarks/bench_engine_throughput.py``, which measures the
  rewrite's jobs/sec speedup against this implementation.

Do not use it for real runs, and do not "fix" it: bug-for-bug fidelity
to the historical implementation is the whole point. (One consequence:
its ``_may_retry`` still mutates the failed-attempt counter as a side
effect — harmless here because the loop calls it exactly once per
completion, but the reason the incremental scheduler moved that
increment into ``_handle_completion``.)
"""

from __future__ import annotations

from repro.dagman.events import JobAttempt
from repro.dagman.scheduler import DagmanScheduler, NodeState
from repro.observe.events import EventKind

__all__ = ["LegacyRescanScheduler"]


class LegacyRescanScheduler(DagmanScheduler):
    """The historical O(n²·log n) rescan implementation (oracle only)."""

    def start(self) -> None:
        """Initialise node states and submit the initial ready set."""
        if self._started:
            raise RuntimeError("scheduler already started")
        self._started = True
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
                    # Same causal stamp as the incremental scheduler:
                    # this completion is what released the child.
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

    def _mark_descendants_unrunnable(self, name: str) -> None:
        stack = sorted(self.dag.children(name))
        while stack:
            node = stack.pop()
            if self.states[node] in (NodeState.UNREADY, NodeState.READY):
                self._set_state(node, NodeState.UNRUNNABLE)
                stack.extend(sorted(self.dag.children(node)))
