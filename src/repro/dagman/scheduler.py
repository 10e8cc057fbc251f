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
million-job DAGs run in minutes (the ``engine_layered_100k`` workload
of ``benchmarks/budget/`` times this loop and little else).

Job ids: inside the scheduler a job is its position in ``dag.jobs``,
and everything known per job sits in parallel lists indexed by it — a
completion touches no name-keyed dict. Names appear only at the
boundary: the events built here, :attr:`DagmanResult.states`, the
``states`` / ``attempt_number`` snapshots, :class:`SchedulerRestore`
lookups. Children are kept as ids **in child-name order**: readiness
order is the FIFO tie-break, and id order is not name order. The
name-keyed full-rescan loop this replaced is the test oracle
``tests/oracles/rescan_scheduler.py``; the property tests hold this
scheduler to it event for event.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
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


# The members as module globals, for the scheduler's own comparisons:
# it makes some twenty per job, and ``NodeState.READY`` is an attribute
# lookup through the enum metaclass where a global is one dict hit —
# measured, a tenth of an engine_layered_100k op.
_UNREADY = NodeState.UNREADY
_READY = NodeState.READY
_SUBMITTED = NodeState.SUBMITTED
_HELD = NodeState.HELD
_DONE = NodeState.DONE
_FAILED = NodeState.FAILED
_UNRUNNABLE = NodeState.UNRUNNABLE

#: States a node never leaves; a workflow is finished when every node
#: has reached one (see :attr:`DagmanScheduler.unfinished`).
_TERMINAL_STATES = frozenset({_DONE, _FAILED, _UNRUNNABLE})


@dataclass
class DagmanResult:
    """Final outcome of one DAGMan run."""

    success: bool
    trace: WorkflowTrace
    states: dict[str, NodeState]
    wall_time: float
    #: the platform the run used (a cloud's cost accounting lives there)
    environment: object = field(default=None, repr=False, compare=False)

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
        # Per-job state, filled by start(): parallel lists indexed by
        # the job's id, its position in ``dag.jobs``.
        self._jobs: list[DagJob] = []
        self._state: list[NodeState] = []
        self._attempt: list[int] = []
        self._retries_left: list[int] = []
        self._failed_attempts: list[int] = []
        self._ready_seq: list[int] = []
        # Parents not yet DONE, per node; READY fires when this hits 0.
        self._pending_parents: list[int] = []
        # Child ids in child-*name* order, sorted once at start(): the
        # readiness FIFO tie-break must depend on neither set hash order
        # nor insertion order.
        self._children: list[tuple[int, ...]] = []
        self._seq = 0
        self._in_flight = 0
        self._started = False
        self._start_time = 0.0
        # Nodes not yet in a terminal state (DONE/FAILED/UNRUNNABLE),
        # maintained incrementally so the service layer's "is this
        # workflow finished?" check is O(1), not an O(n) state scan.
        self._unfinished = 0
        # Incremental ready-set state: a node is pushed exactly once per
        # readiness transition, as ``(-priority, seq, id)``; entries for
        # nodes that left READY some other way (unrunnable cascade) are
        # skipped lazily at pop time.
        self._ready_heap: list[tuple[int, int, int]] = []
        self._ready_count = 0

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
        jobs = self._jobs = list(dag.jobs.values())
        n = len(jobs)
        # The one name → id index; everything below it speaks ids.
        ids = {name: i for i, name in enumerate(dag.jobs)}
        default_retries = self.default_retries
        self._retries_left = (
            [job.retries for job in jobs]
            if default_retries is None
            else [default_retries] * n
        )
        self._attempt = [0] * n
        self._failed_attempts = [0] * n
        self._ready_seq = [0] * n
        state = self._state = [_UNREADY] * n
        # Counted down by the direct state writes below (pre-done marks,
        # journaled failures); every later transition into a terminal
        # state flows through _set_state and decrements it.
        unfinished = n
        for name in dag.done:
            i = ids.get(name)
            if i is not None:
                state[i] = _DONE
                unfinished -= 1
        restore = self.restore
        if restore is not None:
            for restored, mine in (
                (restore.attempts, self._attempt),
                (restore.retries_left, self._retries_left),
                (restore.failed_attempts, self._failed_attempts),
            ):
                for name, value in restored.items():
                    i = ids.get(name)
                    if i is not None:
                        mine[i] = value
            for name in restore.failed:
                # Journaled hard failures re-enter FAILED silently: their
                # state_change was journaled (and logged) before the
                # crash, so re-emitting would double-count it.
                i = ids.get(name)
                if i is not None and state[i] is _UNREADY:
                    state[i] = _FAILED
                    unfinished -= 1
        self._unfinished = unfinished
        # One pass over the edges, from the parent's side: each child
        # set is read once, ordered by name, mapped to ids, and counted
        # into its children's pending-parent counters.
        children: list[tuple[int, ...]] = [()] * n
        pending = self._pending_parents = [0] * n
        for name, kids in dag.child_sets():
            if kids:
                i = ids[name]
                kid_ids = children[i] = tuple([ids[k] for k in sorted(kids)])
                if state[i] is not _DONE:
                    for kid in kid_ids:
                        pending[kid] += 1
        self._children = children
        self._emit(
            EventKind.WORKFLOW_START,
            detail={"jobs": n, "name": dag.name},
        )
        for i in range(n):
            if state[i] is _UNREADY and pending[i] == 0:
                self._set_state(i, _READY)
        if restore is not None:
            for name in sorted(restore.failed):
                i = ids.get(name)
                if i is not None and state[i] is _FAILED:
                    self._mark_descendants_unrunnable(i)
            # Terminal attempts whose retry-or-fail decision did not
            # reach the journal before the crash: replay the tail of
            # _handle_completion now, against the restored budgets and
            # the caller's retry policy — the decision (and its RETRY
            # charge) lands exactly once, post-resume.
            for name in sorted(restore.undecided):
                i = ids.get(name)
                if i is None or state[i] is not _READY:
                    continue
                record = restore.undecided[name]
                if self._may_retry(i, record):
                    self._requeue(i, record)
                else:
                    self._set_state(i, _FAILED)
                    self._mark_descendants_unrunnable(i)
        self._submit_ready()

    def result(self) -> DagmanResult:
        """Snapshot the outcome (valid after the environment drains)."""
        state = self._state
        return DagmanResult(
            success=state.count(_DONE) == len(state),
            trace=self.trace,
            states=self.states,
            wall_time=self.environment.now - self._start_time,
            environment=self.environment,
        )

    @property
    def states(self) -> dict[str, NodeState]:
        """Current state per job name, in ``dag.jobs`` order (empty
        before :meth:`start`). A snapshot built per access — writing to
        it changes nothing in the scheduler."""
        return dict(zip(self.dag.jobs, self._state))

    def status_counts(self) -> dict[str, int]:
        """State histogram, the ``pegasus-status`` style summary."""
        counts: dict[str, int] = {}
        for state in self._state:
            counts[state.value] = counts.get(state.value, 0) + 1
        return counts

    def write_rescue(self, path: str | Path) -> Path:
        """Write a rescue DAG marking completed nodes DONE."""
        done = [
            name
            for name, state in zip(self.dag.jobs, self._state)
            if state is _DONE
        ]
        rescue = self.dag.rescue(done, name=f"{self.dag.name}.rescue")
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
        self,
        i: int,
        state: NodeState,
        released_by: int | None = None,
        released_attempt: int | None = None,
    ) -> None:
        """``released_by`` / ``released_attempt`` add causal context to
        the ``state_change`` event — which parent's completion (job id
        and attempt number) made a child READY; what the span tracer
        turns into explicit links."""
        states = self._state
        previous = states[i]
        states[i] = state
        if state in _TERMINAL_STATES and previous not in _TERMINAL_STATES:
            self._unfinished -= 1
        if state is _READY:
            # Readiness order is the FIFO tie-break within a priority
            # class, so retried jobs queue behind equal-priority nodes
            # already waiting on the max_jobs throttle. Each readiness
            # transition pushes exactly one heap entry; the seq doubles
            # as the entry's validity token.
            seq = self._seq
            self._ready_seq[i] = seq
            self._seq = seq + 1
            self._ready_count += 1
            heapq.heappush(
                self._ready_heap, (-self._jobs[i].priority, seq, i)
            )
        if previous is _READY and state is not _READY:
            self._ready_count -= 1
        bus = self.bus
        if state is not previous and bus is not None and bus.active:
            # Asked here, not only in _emit: a deaf run pays for no
            # detail dict (engine_layered_100k is nothing but this).
            detail: dict = {"from": previous._value_, "to": state._value_}
            if released_by is not None:
                detail["released_by"] = self._jobs[released_by].name
                detail["released_attempt"] = released_attempt
            self._emit(
                EventKind.STATE_CHANGE,
                job=self._jobs[i],
                attempt=self._attempt[i] or None,
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
        state = self._state
        ready_seq = self._ready_seq
        max_jobs = self.max_jobs
        while heap:
            if max_jobs is not None and self._in_flight >= max_jobs:
                break
            _, seq, i = heapq.heappop(heap)
            if state[i] is _READY and ready_seq[i] == seq:
                self._submit(i)
            # else stale: lazy invalidation
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
        state = self._state
        ready_seq = self._ready_seq
        heap[:] = [
            entry
            for entry in heap
            if state[entry[2]] is _READY
            and ready_seq[entry[2]] == entry[1]
        ]
        heapq.heapify(heap)

    def _submit(self, i: int) -> None:
        self._set_state(i, _SUBMITTED)
        attempt = self._attempt[i] + 1
        self._attempt[i] = attempt
        self._in_flight += 1
        job = self._jobs[i]
        bus = self.bus
        if bus is not None and bus.active:  # as in _set_state
            self._emit(
                EventKind.SUBMIT,
                job=job,
                attempt=attempt,
                # The planner's expected runtime seeds the straggler
                # detector's per-transformation baseline.
                detail={"expected_s": job.runtime},
            )
        self.environment.submit(
            job, partial(self._handle_completion, i), attempt=attempt
        )

    def _handle_completion(self, i: int, attempt: JobAttempt) -> None:
        self.trace.add(attempt)
        self._in_flight -= 1
        if attempt.status.is_success:
            self._failed_attempts[i] = 0
            self._set_state(i, _DONE)
            # Children in name order: readiness order is the FIFO
            # tie-break — hash order would make run outcomes depend on
            # PYTHONHASHSEED. A parent finishes (goes DONE) exactly
            # once, so each child's pending counter is decremented
            # exactly once per parent.
            pending = self._pending_parents
            state = self._state
            for child in self._children[i]:
                remaining = pending[child] - 1
                pending[child] = remaining
                if remaining == 0 and state[child] is _UNREADY:
                    # This parent's completion is the release edge: it
                    # is by definition the child's latest-finishing
                    # parent, i.e. the critical-path predecessor.
                    self._set_state(
                        child, _READY, i, attempt.attempt
                    )
        else:
            # Accounting happens here, once per completed attempt —
            # never inside _may_retry, which callers must be able to
            # evaluate any number of times without burning retry budget.
            self._failed_attempts[i] += 1
            if self._may_retry(i, attempt):
                self._requeue(i, attempt)
            else:
                self._set_state(i, _FAILED)
                self._mark_descendants_unrunnable(i)
        self._submit_ready()

    def _may_retry(self, i: int, attempt: JobAttempt) -> bool:
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
            and self._failed_attempts[i] > policy.budget
        ):
            return False  # runaway guard: total requeues capped
        if self._is_free_requeue(attempt):
            return True
        return self._retries_left[i] > 0

    def _is_free_requeue(self, attempt: JobAttempt) -> bool:
        """Evictions are the platform's fault; a policy with
        ``charge_evictions=False`` requeues them without spending a
        ``RETRY``."""
        return (
            attempt.status is JobStatus.EVICTED
            and self.retry_policy is not None
            and not self.retry_policy.charge_evictions
        )

    def _requeue(self, i: int, attempt: JobAttempt) -> None:
        charged = not self._is_free_requeue(attempt)
        if charged:
            self._retries_left[i] -= 1
        job = self._jobs[i]
        attempt_no = self._attempt[i]
        policy = self.retry_policy
        delay = policy.delay_s(attempt_no) if policy is not None else 0.0
        call_later = getattr(self.environment, "call_later", None)
        if call_later is None:
            delay = 0.0  # environment cannot park work; requeue now
        self._emit(
            EventKind.RETRY,
            job=job,
            attempt=attempt_no,
            detail={
                "retries_left": self._retries_left[i],
                "status": attempt.status.value,
                "charged": charged,
                "delay_s": delay,
            },
        )
        if delay > 0:
            self._emit(
                EventKind.HELD,
                job=job,
                attempt=attempt_no,
                detail={
                    "delay_s": delay,
                    "until": self.environment.now + delay,
                },
            )
            self._set_state(i, _HELD)

            def release() -> None:
                if self._state[i] is _HELD:
                    self._set_state(i, _READY)
                    self._submit_ready()

            call_later(delay, release)
        else:
            self._set_state(i, _READY)

    def _mark_descendants_unrunnable(self, i: int) -> None:
        state = self._state
        children = self._children
        stack = list(children[i])
        while stack:
            node = stack.pop()
            if state[node] in (_UNREADY, _READY):
                self._set_state(node, _UNRUNNABLE)
                stack.extend(children[node])

    @property
    def attempt_number(self) -> dict[str, int]:
        """Current attempt count per job (1-based once submitted)."""
        return dict(zip(self.dag.jobs, self._attempt))

    @property
    def unfinished(self) -> int:
        """Nodes not yet terminal (DONE/FAILED/UNRUNNABLE) — O(1).

        Zero means the workflow is over: nothing is running, held, or
        waiting, and :meth:`finish` can be called. Valid once
        :meth:`start` has run.
        """
        return self._unfinished
