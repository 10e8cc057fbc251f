"""The DAGMan scheduling loop.

DAGMan semantics implemented here, driven by callbacks from an
execution environment (real or simulated):

* a job is **ready** when every parent has succeeded;
* ready jobs are submitted highest-priority first, subject to the
  ``max_jobs`` throttle (Condor's ``DAGMAN_MAX_JOBS_SUBMITTED``); ties
  break FIFO by *readiness* time, so a retried job re-enters the queue
  behind equal-priority nodes that have been waiting on the throttle;
* a failed or evicted attempt is retried while the job has retries
  left (``RETRY`` lines), otherwise the job is failed and all of its
  descendants become unrunnable. A
  :class:`~repro.resilience.retry.RetryPolicy` refines *when*: delayed
  retries park the node in the ``HELD`` state and release through the
  environment's ``call_later``, and evictions can requeue without
  consuming a retry (the platform's fault, not the job's);
* when nothing more can run, the run ends; if anything failed, a
  **rescue DAG** (original DAG with ``DONE`` marks) can be written and
  re-submitted later, exactly like ``*.rescue001`` files —
  :func:`repro.resilience.run_with_recovery` automates that loop.

The scheduler is clock-agnostic: it reads time only through the
environment, so the same code runs under the virtual clock and the real
one.

Scale: all per-completion work is incremental. Readiness is tracked
with per-node *pending-parent counters* (decremented as each parent
finishes) instead of rescanning parents, and the submit order comes
from a persistent *ready heap* keyed ``(-priority, ready_seq)`` that a
node is pushed onto exactly once per readiness transition — entries
whose node has since left READY are lazily invalidated at pop time, and
the heap is compacted when stale entries dominate. A completion
therefore costs O(children + log n), not O(n log n), which is what lets
million-job DAGs run in minutes (see ``bench_engine_throughput``). The
pre-rewrite full-rescan implementation survives as
:class:`repro.dagman.legacy.LegacyRescanScheduler`, the equivalence
oracle the property tests pin this rewrite against.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, Protocol

from repro.dagman.dag import Dag, DagJob
from repro.dagman.events import JobAttempt, JobStatus, WorkflowTrace
from repro.observe.bus import EventBus
from repro.observe.events import EventKind, RunEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.retry import RetryPolicy

__all__ = [
    "ExecutionEnvironment",
    "DagmanScheduler",
    "DagmanResult",
    "NodeState",
    "SchedulerRestore",
]


class ExecutionEnvironment(Protocol):
    """What DAGMan needs from a platform (real or simulated)."""

    @property
    def now(self) -> float:
        """Current time on the platform's clock."""
        ...

    def submit(
        self,
        job: DagJob,
        on_complete: Callable[[JobAttempt], None],
        *,
        attempt: int = 1,
    ) -> None:
        """Queue one attempt of a job; invoke ``on_complete`` when it
        finishes (successfully or not). ``attempt`` is 1-based and must
        be echoed into the :class:`JobAttempt`."""
        ...

    def run_until_complete(self) -> None:
        """Drive the platform until no submitted work remains.

        Environments may additionally provide ``call_later(delay_s,
        fn)`` — used for delayed retries; without it, retry delays
        degrade to immediate requeue.
        """
        ...


class NodeState(Enum):
    """DAGMan's view of one node."""

    UNREADY = "unready"
    READY = "ready"
    SUBMITTED = "submitted"
    HELD = "held"  # waiting out a retry-policy delay
    DONE = "done"
    FAILED = "failed"
    UNRUNNABLE = "unrunnable"  # an ancestor failed

    __hash__ = object.__hash__  # singletons; see EventKind


#: States a node never leaves; a workflow is finished when every node
#: has reached one (see :attr:`DagmanScheduler.unfinished`).
_TERMINAL_STATES = frozenset(
    {NodeState.DONE, NodeState.FAILED, NodeState.UNRUNNABLE}
)


@dataclass
class DagmanResult:
    """Final outcome of one DAGMan run."""

    success: bool
    trace: WorkflowTrace
    states: dict[str, NodeState]
    wall_time: float

    @property
    def failed_jobs(self) -> list[str]:
        return sorted(
            n for n, s in self.states.items() if s is NodeState.FAILED
        )

    @property
    def unrunnable_jobs(self) -> list[str]:
        return sorted(
            n for n, s in self.states.items() if s is NodeState.UNRUNNABLE
        )


@dataclass
class SchedulerRestore:
    """Mid-workflow counters recovered from a write-ahead journal.

    ``dag.done`` carries the completed set (rescue-DAG semantics); this
    carries everything DAGMan knows *besides* completion — how many
    attempts each job has consumed, how much ``RETRY`` budget is left,
    which jobs already hard-failed, and which journaled terminal
    attempts never got their retry-or-fail decision journaled before
    the crash (``undecided`` — the scheduler re-decides those at
    ``start()`` with its own, restored policy, so the decision is
    charged exactly once).

    Built by :meth:`repro.resilience.journal.RecoveredState.scheduler_restore`;
    jobs not mentioned keep their fresh-start defaults.
    """

    attempts: dict[str, int] = field(default_factory=dict)
    retries_left: dict[str, int] = field(default_factory=dict)
    failed_attempts: dict[str, int] = field(default_factory=dict)
    failed: frozenset[str] = frozenset()
    undecided: dict[str, JobAttempt] = field(default_factory=dict)


class DagmanScheduler:
    """Execute a :class:`Dag` on an :class:`ExecutionEnvironment`."""

    def __init__(
        self,
        dag: Dag,
        environment: ExecutionEnvironment,
        *,
        max_jobs: int | None = None,
        default_retries: int | None = None,
        bus: EventBus | None = None,
        tags: Mapping[str, object] | None = None,
        retry_policy: "RetryPolicy | None" = None,
        restore: SchedulerRestore | None = None,
    ) -> None:
        """``bus`` receives the full lifecycle event stream (submits,
        retries, node state changes, workflow start/end — see
        :mod:`repro.observe.events`); pass the same bus to the execution
        environment so platform-side events (match, setup, exec, finish)
        interleave on one timeline. ``tags`` are merged into the
        ``detail`` of every event this scheduler builds, after the
        event's own keys — how :mod:`repro.service` puts
        ``tenant``/``workflow`` on a bus many workflows share.

        ``retry_policy`` (see :mod:`repro.resilience.retry`) controls
        the timing and accounting of retries; ``None`` keeps the
        historic behaviour — immediate requeue, every failure charged
        against the ``RETRY`` budget.

        ``restore`` resumes a crashed run: per-job counters and failure
        marks recovered from the write-ahead journal are applied during
        ``start()`` (see :class:`SchedulerRestore`), on top of
        ``dag.done``'s rescue-DAG completion marks."""
        if max_jobs is not None and max_jobs < 1:
            raise ValueError("max_jobs must be >= 1")
        self.dag = dag
        self.environment = environment
        self.max_jobs = max_jobs
        self.default_retries = default_retries
        self.bus = bus
        self._tags = dict(tags) if tags else None
        self.retry_policy = retry_policy
        self.restore = restore
        self.trace = WorkflowTrace()
        self.states: dict[str, NodeState] = {}
        self._retries_left: dict[str, int] = {}
        self._attempt: dict[str, int] = {}
        self._failed_attempts: dict[str, int] = {}
        self._ready_seq: dict[str, int] = {}
        self._seq = 0
        self._in_flight = 0
        self._started = False
        self._start_time = 0.0
        # Nodes not yet in a terminal state (DONE/FAILED/UNRUNNABLE),
        # maintained incrementally so the service layer's "is this
        # workflow finished?" check is O(1), not an O(n) state scan.
        self._unfinished = 0
        # Incremental ready-set state: a node is pushed exactly once per
        # readiness transition; entries for nodes that left READY some
        # other way (unrunnable cascade) are skipped lazily at pop time.
        self._ready_heap: list[tuple[int, int, str]] = []
        self._ready_count = 0
        # Parents not yet DONE, per node; READY fires when this hits 0.
        self._pending_parents: dict[str, int] = {}
        # Children in sorted order, precomputed once at start() — the
        # readiness FIFO tie-break must not depend on set hash order,
        # and sorting per completion would be O(k log k) every time.
        self._children_sorted: dict[str, tuple[str, ...]] = {}

    # -- public API -----------------------------------------------------

    def run(self) -> DagmanResult:
        """Start the DAG and drive the environment to completion."""
        self.start()
        self.environment.run_until_complete()
        return self.finish()

    def finish(self) -> DagmanResult:
        """Snapshot the outcome and emit ``workflow.end``.

        :meth:`run` calls this; drive it yourself only when you split
        ``start()`` / ``run_until_complete()`` manually (e.g. to start
        samplers in between).
        """
        result = self.result()
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
        """Initialise node states and submit the initial ready set."""
        if self._started:
            raise RuntimeError("scheduler already started")
        self._started = True
        self._start_time = self.environment.now
        dag = self.dag
        pre_done = dag.done
        for name, job in dag.jobs.items():
            retries = (
                self.default_retries
                if self.default_retries is not None
                else job.retries
            )
            self._retries_left[name] = retries
            self._attempt[name] = 0
            self._failed_attempts[name] = 0
            if name in pre_done:
                self.states[name] = NodeState.DONE
            else:
                self.states[name] = NodeState.UNREADY
        restore = self.restore
        if restore is not None:
            for name, count in restore.attempts.items():
                if name in self._attempt:
                    self._attempt[name] = count
            for name, left in restore.retries_left.items():
                if name in self._retries_left:
                    self._retries_left[name] = left
            for name, count in restore.failed_attempts.items():
                if name in self._failed_attempts:
                    self._failed_attempts[name] = count
            for name in restore.failed:
                # Journaled hard failures re-enter FAILED silently: their
                # state_change was journaled (and logged) before the
                # crash, so re-emitting would double-count it.
                if self.states.get(name) is NodeState.UNREADY:
                    self.states[name] = NodeState.FAILED
        # Counted after the direct state writes above (pre-done marks,
        # journaled failures); every later transition into a terminal
        # state flows through _set_state and decrements it.
        self._unfinished = sum(
            1
            for s in self.states.values()
            if s not in _TERMINAL_STATES
        )
        states = self.states
        for name in dag.jobs:
            self._children_sorted[name] = tuple(sorted(dag.children(name)))
            self._pending_parents[name] = sum(
                1
                for p in dag.parents(name)
                if states[p] is not NodeState.DONE
            )
        self._emit(
            EventKind.WORKFLOW_START,
            detail={"jobs": len(dag.jobs), "name": dag.name},
        )
        for name in dag.jobs:
            if (
                states[name] is NodeState.UNREADY
                and self._pending_parents[name] == 0
            ):
                self._set_state(name, NodeState.READY)
        if restore is not None:
            for name in sorted(restore.failed):
                if states.get(name) is NodeState.FAILED:
                    self._mark_descendants_unrunnable(name)
            # Terminal attempts whose retry-or-fail decision did not
            # reach the journal before the crash: replay the tail of
            # _handle_completion now, against the restored budgets and
            # the caller's retry policy — the decision (and its RETRY
            # charge) lands exactly once, post-resume.
            for name in sorted(restore.undecided):
                if states.get(name) is not NodeState.READY:
                    continue
                record = restore.undecided[name]
                if self._may_retry(name, record):
                    self._requeue(name, record)
                else:
                    self._set_state(name, NodeState.FAILED)
                    self._mark_descendants_unrunnable(name)
        self._submit_ready()

    def result(self) -> DagmanResult:
        """Snapshot the outcome (valid after the environment drains)."""
        success = all(
            s is NodeState.DONE for s in self.states.values()
        )
        return DagmanResult(
            success=success,
            trace=self.trace,
            states=dict(self.states),
            wall_time=self.environment.now - self._start_time,
        )

    def status_counts(self) -> dict[str, int]:
        """State histogram, the ``pegasus-status`` style summary."""
        counts: dict[str, int] = {}
        for state in self.states.values():
            counts[state.value] = counts.get(state.value, 0) + 1
        return counts

    def write_rescue(self, path: str | Path) -> Path:
        """Write a rescue DAG marking completed nodes DONE."""
        rescue = Dag(name=f"{self.dag.name}.rescue")
        for job in self.dag.jobs.values():
            rescue.add_job(job)
        for parent, child in self.dag.edges():
            rescue.add_edge(parent, child)
        rescue.done = {
            n for n, s in self.states.items() if s is NodeState.DONE
        }
        return rescue.write_dagfile(path)

    # -- internals ------------------------------------------------------

    def _emit(self, kind: EventKind, *, job: DagJob | None = None,
              attempt: int | None = None,
              detail: dict | None = None) -> None:
        bus = self.bus
        if bus is None or not bus.active:
            return  # deaf bus: skip event construction (PR 7 fast path)
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

    def _set_state(
        self, name: str, state: NodeState, *, cause: dict | None = None
    ) -> None:
        """``cause`` adds causal context to the ``state_change`` event
        (e.g. ``released_by``: which parent's completion made a child
        READY) — what the span tracer turns into explicit links."""
        previous = self.states[name]
        self.states[name] = state
        if state in _TERMINAL_STATES and previous not in _TERMINAL_STATES:
            self._unfinished -= 1
        if state is NodeState.READY:
            # Readiness order is the FIFO tie-break within a priority
            # class, so retried jobs queue behind equal-priority nodes
            # already waiting on the max_jobs throttle. Each readiness
            # transition pushes exactly one heap entry; the seq doubles
            # as the entry's validity token.
            seq = self._seq
            self._ready_seq[name] = seq
            self._seq = seq + 1
            self._ready_count += 1
            heapq.heappush(
                self._ready_heap,
                (-self.dag.jobs[name].priority, seq, name),
            )
        if previous is NodeState.READY and state is not NodeState.READY:
            self._ready_count -= 1
        bus = self.bus
        if state is not previous and bus is not None and bus.active:
            # Asked here, not only in _emit: a deaf run pays for no
            # detail dict (engine_layered_100k is nothing but this).
            detail: dict = {"from": previous._value_, "to": state._value_}
            if cause:
                detail.update(cause)
            self._emit(
                EventKind.STATE_CHANGE,
                job=self.dag.jobs[name],
                attempt=self._attempt[name] or None,
                detail=detail,
            )

    def _submit_ready(self) -> None:
        """Submit ready nodes, highest priority first (FIFO in a class).

        Pops the persistent ready heap. Every pop re-checks that the
        node is *still* READY under the seq it was pushed with — a
        reentrant state change during submission (a synchronous
        ``on_complete``, a HELD release) must not double-submit a node
        whose state already moved on, and nodes swept into UNRUNNABLE
        leave stale entries behind by design.
        """
        heap = self._ready_heap
        states = self.states
        ready_seq = self._ready_seq
        max_jobs = self.max_jobs
        while heap:
            if max_jobs is not None and self._in_flight >= max_jobs:
                break
            entry = heap[0]
            name = entry[2]
            if (
                states[name] is not NodeState.READY
                or ready_seq[name] != entry[1]
            ):
                heapq.heappop(heap)  # stale: lazy invalidation
                continue
            heapq.heappop(heap)
            self._submit(name)
        self._compact_ready_heap()

    def _compact_ready_heap(self) -> None:
        """Rebuild the ready heap when stale entries dominate.

        Unrunnable cascades can orphan many entries at once; compaction
        keeps heap size O(ready nodes) amortised. In place, because
        reentrant ``_submit_ready`` frames hold a reference to the list.
        """
        heap = self._ready_heap
        if len(heap) < 64 or len(heap) <= 2 * self._ready_count:
            return
        states = self.states
        ready_seq = self._ready_seq
        heap[:] = [
            entry
            for entry in heap
            if states[entry[2]] is NodeState.READY
            and ready_seq[entry[2]] == entry[1]
        ]
        heapq.heapify(heap)

    def _submit(self, name: str) -> None:
        self._set_state(name, NodeState.SUBMITTED)
        self._attempt[name] += 1
        self._in_flight += 1
        job = self.dag.jobs[name]
        bus = self.bus
        if bus is not None and bus.active:  # as in _set_state
            self._emit(
                EventKind.SUBMIT,
                job=job,
                attempt=self._attempt[name],
                # The planner's expected runtime seeds the straggler
                # detector's per-transformation baseline.
                detail={"expected_s": job.runtime},
            )
        self.environment.submit(
            job, self._make_listener(name), attempt=self._attempt[name]
        )

    def _make_listener(self, name: str) -> Callable[[JobAttempt], None]:
        def on_complete(attempt: JobAttempt) -> None:
            self._handle_completion(name, attempt)

        return on_complete

    def _handle_completion(self, name: str, attempt: JobAttempt) -> None:
        self.trace.add(attempt)
        self._in_flight -= 1
        if attempt.status.is_success:
            self._failed_attempts[name] = 0
            self._set_state(name, NodeState.DONE)
            # Children in sorted order: readiness order is the FIFO
            # tie-break — hash order would make run outcomes depend on
            # PYTHONHASHSEED. A parent finishes (goes DONE) exactly
            # once, so each child's pending counter is decremented
            # exactly once per parent.
            pending = self._pending_parents
            states = self.states
            for child in self._children_sorted[name]:
                remaining = pending[child] - 1
                pending[child] = remaining
                if remaining == 0 and states[child] is NodeState.UNREADY:
                    # This parent's completion is the release edge: it
                    # is by definition the child's latest-finishing
                    # parent, i.e. the critical-path predecessor.
                    self._set_state(
                        child,
                        NodeState.READY,
                        cause={
                            "released_by": name,
                            "released_attempt": attempt.attempt,
                        },
                    )
        else:
            # Accounting happens here, once per completed attempt —
            # never inside _may_retry, which callers must be able to
            # evaluate any number of times without burning retry budget.
            self._failed_attempts[name] += 1
            if self._may_retry(name, attempt):
                self._requeue(name, attempt)
            else:
                self._set_state(name, NodeState.FAILED)
                self._mark_descendants_unrunnable(name)
        self._submit_ready()

    def _may_retry(self, name: str, attempt: JobAttempt) -> bool:
        """Pure predicate: would DAGMan requeue this failed attempt?

        Reads the failure count :meth:`_handle_completion` maintains;
        calling it repeatedly for the same completion returns the same
        answer (regression-pinned — the old version incremented the
        counter as a side effect, so a second call silently burned
        retry-policy budget).
        """
        policy = self.retry_policy
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
        """Evictions are the platform's fault; a policy with
        ``charge_evictions=False`` requeues them without spending a
        ``RETRY``."""
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
        stack = list(self._children_sorted[name])
        while stack:
            node = stack.pop()
            if self.states[node] in (NodeState.UNREADY, NodeState.READY):
                self._set_state(node, NodeState.UNRUNNABLE)
                stack.extend(self._children_sorted[node])

    @property
    def attempt_number(self) -> dict[str, int]:
        """Current attempt count per job (1-based once submitted)."""
        return dict(self._attempt)

    @property
    def unfinished(self) -> int:
        """Nodes not yet terminal (DONE/FAILED/UNRUNNABLE) — O(1).

        Zero means the workflow is over: nothing is running, held, or
        waiting, and :meth:`finish` can be called. Valid once
        :meth:`start` has run.
        """
        return self._unfinished
