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
order is the FIFO tie-break, and id order is not name order. They and
the readiness tokens live in flat machine-integer arrays (every job's
child ids end to end, plus where each job's run starts), so the copy
of the adjacency a run holds costs no Python object per job. The
name-keyed full-rescan loop this replaced is the test oracle
``tests/oracles/rescan_scheduler.py``; the property tests hold this
scheduler to it event for event.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Callable, Mapping, Protocol

from repro.dagman.dag import Dag, DagJob
from repro.dagman.events import JobAttempt, JobStatus, WorkflowTrace
from repro.observe.bus import EventBus
from repro.observe.events import EventKind, RunEvent
from repro.resilience.retry import RetryPolicy

__all__ = [
    "ExecutionEnvironment",
    "DagmanScheduler",
    "DagmanResult",
    "NodeState",
    "SchedulerRestore",
]

#: The default retry policy: immediate requeue, evictions charged, no
#: budget (stateless, so every scheduler can share it).
_IMMEDIATE = RetryPolicy()


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
        fn)`` for delayed retries (without it they requeue at once),
        and ``abandon()``, called when the manager crashes.
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
        retry_policy: RetryPolicy | None = None,
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

        It leaves → submitted and a retry's → ready / → held to the
        ``job.submit``, ``job.retry`` and ``job.held`` it emits beside
        them, tagged as everything it builds. → done is the platform's
        succeeded record to state: untagged, on a platform that shares
        the bus, it leaves that to it too; tagged, or when the platform
        publishes elsewhere, it restates it as a state change (the
        platform's events carry no workflow scope).

        ``retry_policy`` (see :mod:`repro.resilience.retry`) controls
        the timing and accounting of retries; ``None`` is the base
        :class:`RetryPolicy` — immediate requeue, every failure charged
        against the ``RETRY`` budget, no cap.

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
        self._restate_done = self._tags is not None or (
            getattr(environment, "bus", None) is not bus
        )
        self.retry_policy = retry_policy if retry_policy is not None else _IMMEDIATE
        self.restore = restore
        self.trace = WorkflowTrace()
        # Per-job state, filled by start(): parallel lists indexed by
        # the job's id, its position in ``dag.jobs``.
        self._jobs: list[DagJob] = []
        self._state: list[NodeState] = []
        self._attempt: list[int] = []
        self._retries_left: list[int] = []
        self._failed_attempts: list[int] = []
        self._ready_seq = array("q")
        # Parents not yet DONE, per node; READY fires when this hits 0.
        self._pending_parents: list[int] = []
        # Job i's children are ``_child_ids[_child_at[i]:_child_at[i + 1]]``,
        # in child-*name* order, sorted once at start(): the readiness
        # FIFO tie-break must depend on neither set hash order nor
        # insertion order.
        self._child_ids = array("l")
        self._child_at = array("l")
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
        bus = self.bus
        if bus is not None and bus.active:
            self._emit(EventKind.WORKFLOW_END, None, None, {
                "success": result.success,
                "wall_time": result.wall_time,
                "jobs": len(self.dag.jobs),
            })
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
        self._ready_seq = array("q", [0]) * n
        state = self._state = [_UNREADY] * n
        # Counted down by the direct state writes below (pre-done marks,
        # journaled failures); every later transition into a terminal
        # state (_set_state, a success in _handle_completion) does too.
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
        # One pass over the edges, from the parent's side and in id
        # order (``child_sets()`` follows ``dag.jobs``): each job's
        # children are read once, ordered by name, mapped to ids,
        # appended to the flat array and counted into their
        # pending-parent counters.
        child_ids = self._child_ids = array("l")
        child_at = self._child_at = array("l", [0]) * (n + 1)
        pending = self._pending_parents = [0] * n
        for i, (_, kids) in enumerate(dag.child_sets()):
            if kids:
                kid_ids = [ids[k] for k in sorted(kids)]
                child_ids.extend(kid_ids)
                if state[i] is not _DONE:
                    for kid in kid_ids:
                        pending[kid] += 1
            child_at[i + 1] = len(child_ids)
        bus = self.bus
        if bus is not None and bus.active:
            self._emit(
                EventKind.WORKFLOW_START, None, None,
                {"jobs": n, "name": dag.name},
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

    def _emit(self, kind: EventKind, job: DagJob | None,
              attempt: int | None, detail: dict) -> None:
        """Publish one event. The caller has found the bus live — asked
        before it built ``detail``, so a deaf run builds nothing — and
        ``detail`` is a dict it just made: the tags go into it in place,
        after the event's own keys."""
        if self._tags is not None:
            detail.update(self._tags)
        self.bus.emit(  # type: ignore[union-attr]
            RunEvent(
                kind,
                self.environment.now,
                None if job is None else job.name,
                None if job is None else job.transformation,
                None,
                None,
                attempt,
                None,
                detail,
            )
        )

    def _set_state(
        self,
        i: int,
        state: NodeState,
        released_by: int | None = None,
        released_attempt: int | None = None,
    ) -> None:
        """Write and emit a transition no other event states: a live node
        goes READY, FAILED or UNRUNNABLE. ``released_by`` /
        ``released_attempt`` say which parent's completion (job id and
        attempt number) made a child READY; the span tracer links them."""
        states = self._state
        previous = states[i]
        states[i] = state
        if state is _READY:
            self._push_ready(i)
        else:
            self._unfinished -= 1
            if previous is _READY:
                self._ready_count -= 1
        self._emit_change(i, previous, state, released_by, released_attempt)

    def _emit_change(
        self,
        i: int,
        previous: NodeState,
        state: NodeState,
        released_by: int | None = None,
        released_attempt: int | None = None,
    ) -> None:
        """Publish one ``job.state_change``: every one ``_set_state``
        writes, and on a stream that restates → done (see ``__init__``)
        a success written inline."""
        bus = self.bus
        if state is not previous and bus is not None and bus.active:
            # A deaf run pays for no detail dict (engine_layered_100k is
            # nothing but this).
            detail: dict = {"from": previous._value_, "to": state._value_}
            if released_by is not None:
                detail["released_by"] = self._jobs[released_by].name
                detail["released_attempt"] = released_attempt
            self._emit(
                EventKind.STATE_CHANGE, self._jobs[i],
                self._attempt[i] or None, detail,
            )

    def _push_ready(self, i: int) -> None:
        """Queue a node that just became READY: one heap entry per
        readiness transition, its seq the entry's validity token and the
        FIFO tie-break within a priority class (so a retried job queues
        behind equal-priority nodes waiting on the max_jobs throttle)."""
        seq = self._seq
        self._ready_seq[i] = seq
        self._seq = seq + 1
        self._ready_count += 1
        heapq.heappush(self._ready_heap, (-self._jobs[i].priority, seq, i))

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
        # READY → SUBMITTED, which the job.submit below states.
        self._state[i] = _SUBMITTED
        self._ready_count -= 1
        attempt = self._attempt[i] + 1
        self._attempt[i] = attempt
        self._in_flight += 1
        job = self._jobs[i]
        bus = self.bus
        if bus is not None and bus.active:  # as in _set_state
            # The planner's expected runtime seeds the straggler
            # detector's per-transformation baseline.
            self._emit(
                EventKind.SUBMIT, job, attempt, {"expected_s": job.runtime}
            )
        self.environment.submit(
            job, partial(self._handle_completion, i), attempt=attempt
        )

    def _handle_completion(self, i: int, attempt: JobAttempt) -> None:
        self.trace.add(attempt)
        self._in_flight -= 1
        if attempt.status.is_success:
            self._failed_attempts[i] = 0
            # SUBMITTED → DONE, which the succeeded record states.
            self._state[i] = _DONE
            self._unfinished -= 1
            if self._restate_done:
                self._emit_change(i, _SUBMITTED, _DONE)
            # Children in name order: readiness order is the FIFO
            # tie-break — hash order would make run outcomes depend on
            # PYTHONHASHSEED. A parent finishes (goes DONE) exactly
            # once, so each child's pending counter is decremented
            # exactly once per parent.
            pending = self._pending_parents
            state = self._state
            at = self._child_at
            for child in self._child_ids[at[i]:at[i + 1]]:
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
        budget = self.retry_policy.budget
        if budget is not None and self._failed_attempts[i] > budget:
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
            and not self.retry_policy.charge_evictions
        )

    def _requeue(self, i: int, attempt: JobAttempt) -> None:
        charged = not self._is_free_requeue(attempt)
        if charged:
            self._retries_left[i] -= 1
        job = self._jobs[i]
        attempt_no = self._attempt[i]
        delay = self.retry_policy.delay_s(attempt_no)
        call_later = getattr(self.environment, "call_later", None)
        if call_later is None:
            delay = 0.0  # environment cannot park work; requeue now
        bus = self.bus
        if bus is not None and bus.active:
            self._emit(EventKind.RETRY, job, attempt_no, {
                "retries_left": self._retries_left[i],
                "status": attempt.status.value,
                "charged": charged,
                "delay_s": delay,
            })
        # SUBMITTED (READY if replayed at start()) → HELD / READY, which
        # job.held / job.retry state.
        if delay > 0:
            if bus is not None and bus.active:
                self._emit(EventKind.HELD, job, attempt_no, {
                    "delay_s": delay,
                    "until": self.environment.now + delay,
                })
            if self._state[i] is _READY:
                self._ready_count -= 1
            self._state[i] = _HELD

            def release() -> None:
                if self._state[i] is _HELD:
                    self._set_state(i, _READY)
                    self._submit_ready()

            call_later(delay, release)
        else:
            self._state[i] = _READY
            self._push_ready(i)

    def _mark_descendants_unrunnable(self, i: int) -> None:
        state = self._state
        child_ids, at = self._child_ids, self._child_at
        stack = child_ids[at[i]:at[i + 1]].tolist()
        while stack:
            node = stack.pop()
            if state[node] in (_UNREADY, _READY):
                self._set_state(node, _UNRUNNABLE)
                stack.extend(child_ids[at[node]:at[node + 1]])

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
