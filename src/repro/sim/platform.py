"""The platform kernel: one attempt lifecycle, four policies.

Paper §VI explains every Sandhills/OSG difference with the same few
mechanisms: which slots a job may get, how long it waits for one, what
it pays before the payload starts (download/install), and whether the
slot can fail or be taken away. :class:`SimPlatform` is everything
*else* — the ``ExecutionEnvironment`` surface DAGMan drives, the idle
queue (a *wait index*, below) and dispatch loop, the blacklist
redispatch timer, event emission, and the attempt lifecycle::

    match → wait → arrive → native + injected faults → [setup] → exec
          → finish → release → on_complete

and takes those mechanisms as parameters, composed by each platform's
constructor and bound here once so the per-job path stays straight-line:

* **slot source** — subclass methods ``_acquire(attempt)`` /
  ``_release(slot, status)`` (the source owns state: a round-robin
  cursor, a matchmaker, a fleet of instances);
* **wait model** — ``wait(slot)``: seconds from match to arrival;
* **setup cost** — ``setup(job)``: seconds of download/install, or
  ``None`` for a platform with no setup phase at all;
* **hazard** — the two samplers of a ``FailureModel``:
  ``start_failure()`` (dead on arrival?) and ``eviction()`` (seconds
  until the slot is preempted).

**Wait index.** Idle attempts queue per *wait class* — one FIFO for all
the attempts no slot could tell apart, which the slot source hands to
``_enqueue`` — and carry a global submit sequence number. A dispatch
pass merges the heads of the *awake* classes in sequence order, so
slots go out in submit order; a class whose head the source could not
place (``UNMATCHED``) goes *asleep* and is not asked about again, in
this pass or a later one, until the source calls ``_wake``. A source
with one class (cluster, cloud) never sleeps: its pass is plain
head-of-line.

Where the platforms order things differently the difference is kept,
not unified: the event stream, the engine's event count and every named
RNG stream are pinned byte-for-byte by ``tests/test_platform_golden.py``
(see ``eager_release``, ``busy_from_match`` and the hazard-draw comments
below, and the invariant list in ``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush, heapreplace
from typing import TYPE_CHECKING, Any, Callable, Final, Protocol

from repro.dagman.dag import DagJob
from repro.dagman.events import JobAttempt, JobStatus
from repro.observe.bus import EventBus
from repro.observe.events import EventKind, RunEvent
from repro.observe.profile import modelled_profile
from repro.resilience.faults import resolve_exec
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.blacklist import Blacklist
    from repro.resilience.faults import FaultDecision, FaultInjector

__all__ = ["SimPlatform", "Attempt", "Slot", "NoMatch", "UNMATCHED"]

OnComplete = Callable[[JobAttempt], None]


class Slot(Protocol):
    """What the kernel needs to know about the thing a job runs on."""

    @property
    def name(self) -> str: ...

    @property
    def site(self) -> str: ...

    @property
    def speed(self) -> float: ...


@dataclass(slots=True, eq=False)
class Attempt:
    """One try of one job, from submit to its terminal record.

    ``ticket`` is whatever the slot source computed at submit time and
    wants back when it is asked for a slot (the grid's ClassAd);
    ``seq`` is the platform-wide submit order, set by ``_enqueue``.
    """

    job: DagJob
    on_complete: OnComplete
    number: int
    submit_time: float
    ticket: Any = None
    seq: int = 0
    slot: Any = None
    setup_start: float = 0.0
    exec_start: float = 0.0


class NoMatch(enum.Enum):
    UNMATCHED = enum.auto()


#: ``_acquire`` verdict: no free slot fits *this* attempt — nor any
#: other of its wait class, which goes asleep — but other classes may
#: still match. (``None`` means no slot for anyone: the pass is over.)
UNMATCHED: Final = NoMatch.UNMATCHED


class SimPlatform:
    """Discrete-event execution platform (an ``ExecutionEnvironment``).

    Subclasses are the slot source: they implement :meth:`_acquire` and
    :meth:`_release` (and, if matching needs per-pass state,
    ``_begin_pass``; if attempts differ in what can place them, wait
    classes and :meth:`_wake`) and hand the other three policies here.
    """

    #: Optional slot-source hook run at the start of every dispatch
    #: pass; returning False ends the pass before the queue is looked at.
    _begin_pass: Callable[[], bool] | None = None

    #: Platform wording for an eviction (None keeps the generic one).
    eviction_error: str | None = None

    def __init__(
        self,
        simulator: Simulator,
        *,
        bus: EventBus | None,
        injector: "FaultInjector | None",
        blacklist: "Blacklist | None",
        wait: Callable[[Any], float | None],
        setup: Callable[[DagJob], float] | None = None,
        start_failure: Callable[[], bool] | None = None,
        eviction: Callable[[], float] | None = None,
        busy_from_match: bool = False,
        eager_release: bool = False,
    ) -> None:
        """``wait`` may return ``None`` for a slot that is already there
        (the attempt arrives within the dispatch call, no engine event).

        ``busy_from_match`` counts the wait window as occupancy (a batch
        allocation is held from the moment the job is matched);
        otherwise a slot is occupied from arrival, so opportunistic
        waiting and VM boots never inflate ``peak_busy``.

        ``eager_release`` picks the completion order. Default: free the
        slot, emit ``[TIMEOUT?, FINISH|EVICT]`` as one batch, call
        ``on_complete``, redispatch. Eager (the grid): emit ``TIMEOUT``,
        release *and redispatch* — so the ``MATCH`` events of the jobs
        that inherit the slot come next — then ``FINISH|EVICT``, then
        ``on_complete``."""
        self.simulator = simulator
        self.bus = bus
        self.injector = injector
        self.blacklist = blacklist
        self._wait = wait
        self._setup = setup
        self._start_failure = start_failure
        # The eviction clock starts with the payload: after the setup
        # phase where there is one (so a dead-on-arrival attempt draws
        # nothing), otherwise on arrival — ahead of the injector, so the
        # calibrated regime consumes its stream identically with or
        # without a fault plan on top.
        self._eviction_on_arrival = eviction if setup is None else None
        self._eviction_on_exec = eviction if setup is not None else None
        self._busy_from_match = busy_from_match
        self._eager_release = eager_release
        #: The wait index. A class with an idle attempt is in exactly
        #: one of ``_awake`` (a heap keyed by its head's ``seq``) and
        #: ``_asleep``; an empty class is in neither.
        self._line: deque[Attempt] = deque()  # the class of a one-class source
        self._awake: list[tuple[int, deque[Attempt]]] = []
        self._asleep: list[deque[Attempt]] = []
        self._idle = 0
        self._submitted = 0
        self._occupied = 0
        self._redispatch_pending = False
        #: Set by the slot source when the blacklist kept a queued
        #: attempt from a slot this pass (reset by every pass).
        self._blocks_excluded = False
        self.peak_busy = 0
        self.start_failure_count = 0
        self.eviction_count = 0
        self.timeout_count = 0

    # -- ExecutionEnvironment protocol ---------------------------------

    @property
    def now(self) -> float:
        return self.simulator.now

    def submit(
        self, job: DagJob, on_complete: OnComplete, *, attempt: int = 1
    ) -> None:
        self._enqueue(Attempt(job, on_complete, attempt, self.simulator.now))

    def run_until_complete(self) -> None:
        self.simulator.run()

    def call_later(self, delay_s: float, fn: Callable[[], None]) -> None:
        """Virtual-clock deferral (delayed retries park here)."""
        self.simulator.schedule(delay_s, fn)

    def queue_status(self) -> dict[str, int]:
        """``condor_q``-style snapshot: idle (queued) vs running."""
        return {"idle": self._idle, "running": self._occupied}

    # -- slot source (implemented by each platform) ----------------------

    def _acquire(self, a: Attempt) -> "Slot | NoMatch | None":
        """Reserve a slot for ``a``: the slot, :data:`UNMATCHED`, or
        ``None`` when nothing can be acquired until a release."""
        raise NotImplementedError

    def _release(self, slot: Any, status: JobStatus) -> None:
        """Give back the slot of an attempt that ended with ``status``
        (nothing to do for a source that only counts occupancy)."""

    # -- queue and dispatch ---------------------------------------------

    def _enqueue(self, a: Attempt, wait_class: deque | None = None) -> None:
        """Queue ``a`` behind its class and run a dispatch pass. A class
        that is asleep stays asleep: what could not place its head
        cannot place ``a``."""
        fifo = self._line if wait_class is None else wait_class
        a.seq = self._submitted
        self._submitted += 1
        if not fifo:
            heappush(self._awake, (a.seq, fifo))
        fifo.append(a)
        self._idle += 1
        self._dispatch()

    def _wake(self, may_place: Callable[[Attempt], bool] | None = None) -> None:
        """Something happened that could place the head of a sleeping
        class: of every one (``None``), or of those ``may_place`` says."""
        asleep, self._asleep = self._asleep, []
        for fifo in asleep:
            if may_place is None or may_place(fifo[0]):
                heappush(self._awake, (fifo[0].seq, fifo))
            else:
                self._asleep.append(fifo)

    def _dispatch(self) -> None:
        self._blocks_excluded = False
        if self._begin_pass is not None and not self._begin_pass():
            return
        awake = self._awake
        while awake:
            fifo = awake[0][1]
            a = fifo[0]
            slot = self._acquire(a)
            if slot is None:
                break
            if slot is UNMATCHED:
                heappop(awake)
                self._asleep.append(fifo)
                continue
            # The index is settled before anything observable happens:
            # a MATCH subscriber may submit, and that pass nests here.
            fifo.popleft()
            if fifo:
                heapreplace(awake, (fifo[0].seq, fifo))
            else:
                heappop(awake)
            self._idle -= 1
            a.slot = slot
            if self._busy_from_match:
                self._occupy()
            self._emit(EventKind.MATCH, a, {"queue_depth": self._idle})
            wait = self._wait(slot)
            if wait is None:
                self._arrive(a)
            else:
                self.simulator.schedule(wait, lambda a=a: self._arrive(a))
        if self._blocks_excluded and self._idle:
            # Blocks excluded candidates; wake up when the earliest one
            # expires so queued jobs are not stranded until the next
            # completion happens to re-run the dispatch pass.
            self._schedule_redispatch()

    def _schedule_redispatch(self) -> None:
        # Guarded in-method so any caller — the dispatch pass, the
        # service layer's wakeups — can request a redispatch without
        # double-scheduling timers.
        assert self.blacklist is not None
        if self._redispatch_pending:
            return
        expiry = self.blacklist.next_expiry(now=self.now)
        if expiry is None:
            return
        self._redispatch_pending = True

        def fire() -> None:
            self._redispatch_pending = False
            self._dispatch()

        self.simulator.schedule(expiry - self.now, fire)

    def _occupy(self) -> None:
        self._occupied += 1
        if self._occupied > self.peak_busy:
            self.peak_busy = self._occupied

    # -- events and records -----------------------------------------------

    def _event(
        self, kind: EventKind, a: Attempt, detail: dict,
        record: JobAttempt | None = None,
    ) -> RunEvent:
        job = a.job
        slot = a.slot
        return RunEvent(
            kind, self.simulator.now, job.name, job.transformation,
            slot.site, slot.name, a.number, record, detail,
        )

    def _emit(
        self, kind: EventKind, a: Attempt, detail: dict | None = None
    ) -> None:
        bus = self.bus
        if bus is not None and bus.active:  # deaf bus: build no event
            bus.emit(self._event(kind, a, {} if detail is None else detail))

    def _record(
        self, a: Attempt, status: JobStatus, error: str | None
    ) -> JobAttempt:
        now = self.simulator.now
        return JobAttempt(
            job_name=a.job.name,
            transformation=a.job.transformation,
            site=a.slot.site,
            machine=a.slot.name,
            attempt=a.number,
            submit_time=a.submit_time,
            setup_start=a.setup_start,
            exec_start=a.exec_start,
            exec_end=now,
            status=status,
            error=error,
            # Model-derived usage for the realized exec window: evicted
            # or timed-out attempts show the work they burned anyway,
            # attempts that never executed (a 0 s window) carry none.
            profile=modelled_profile(
                a.job.transformation, now - a.exec_start, speed=a.slot.speed
            ),
        )

    def _terminal_event(self, a: Attempt, record: JobAttempt) -> RunEvent:
        status = record.status
        kind = (
            EventKind.EVICT if status is JobStatus.EVICTED else EventKind.FINISH
        )
        return self._event(kind, a, {"status": status.value}, record)

    def _publish(self, a: Attempt, record: JobAttempt) -> None:
        """The terminal event, then the scheduler's callback."""
        bus = self.bus
        if bus is not None and bus.active:
            bus.emit(self._terminal_event(a, record))
        a.on_complete(record)

    # -- attempt lifecycle ------------------------------------------------

    def _arrive(self, a: Attempt) -> None:
        """The job reached its slot: maybe dead on arrival, else the
        setup phase (if the platform has one), then the payload."""
        a.setup_start = a.exec_start = now = self.simulator.now
        slot = a.slot
        if not self._busy_from_match:
            self._occupy()
        # Native draws come FIRST, before the injector is consulted.
        native_doa = (
            self._start_failure is not None and self._start_failure()
        )
        evict_in = math.inf
        if self._eviction_on_arrival is not None:
            evict_in = self._eviction_on_arrival()
        decision: "FaultDecision | None" = None
        if self.injector is not None:
            decision = self.injector.decide(
                a.job,
                site=slot.site,
                machine=slot.name,
                attempt=a.number,
                now=now,
            )
        if native_doa or (decision is not None and decision.dead_on_arrival):
            self.start_failure_count += 1
            if self.blacklist is not None:
                self.blacklist.record_start_failure(
                    slot.name, slot.site, now=now
                )
            error = (
                "node misconfiguration (dead on arrival)"
                if native_doa
                else decision.dead_on_arrival  # type: ignore[union-attr]
            )
            self._finish(a, JobStatus.FAILED, error)
        elif self._setup is None:
            # Software is already there: setup == start, and no engine
            # event separates arrival from the payload.
            self._start_payload(a, decision, evict_in)
        else:
            # A setup event is always scheduled, even for a 0 s setup.
            self._emit(EventKind.SETUP_START, a)
            self.simulator.schedule(
                self._setup(a.job),
                lambda: self._start_payload(a, decision, evict_in),
            )

    def _start_payload(
        self, a: Attempt, decision: "FaultDecision | None", evict_in: float
    ) -> None:
        a.exec_start = self.simulator.now
        self._emit(EventKind.EXEC_START, a)
        duration = a.job.runtime / a.slot.speed
        if self._eviction_on_exec is not None:
            evict_in = self._eviction_on_exec()
        if decision is not None:
            duration *= decision.slowdown_factor
            if decision.hang:
                duration = math.inf
            if decision.evict_after is not None:
                evict_in = min(evict_in, decision.evict_after)
        delay, status, error = resolve_exec(
            duration, evict_after=evict_in, timeout_s=a.job.timeout_s
        )
        if math.isinf(delay):
            # Hung payload, no timeout, no eviction due: the attempt
            # wedges and its slot stays occupied (a cloud instance
            # bills forever) — exactly the scenario ``DagJob.timeout_s``
            # exists to prevent.
            return
        if status is JobStatus.EVICTED:
            self.eviction_count += 1
            error = self.eviction_error or error
        elif status is JobStatus.TIMEOUT:
            self.timeout_count += 1
        self.simulator.schedule(
            delay, lambda: self._finish(a, status, error)
        )

    def _finish(
        self, a: Attempt, status: JobStatus, error: str | None
    ) -> None:
        record = self._record(a, status, error)
        slot = a.slot
        if status is JobStatus.SUCCEEDED and self.blacklist is not None:
            self.blacklist.record_success(slot.name, slot.site)
        bus = self.bus
        live = bus is not None and bus.active
        timed_out = None
        if live and status is JobStatus.TIMEOUT:
            timed_out = self._event(
                EventKind.TIMEOUT, a, {"error": error} if error else {}
            )
        self._occupied -= 1
        if self._eager_release:
            # The timeout goes out before the release: the redispatch a
            # release triggers emits its own MATCH events, and the
            # timeout must precede them on the stream (order is part of
            # the bus contract).
            if timed_out is not None:
                bus.emit(timed_out)  # type: ignore[union-attr]
            self._release(slot, status)
            self._dispatch()
            self._publish(a, record)
            return
        self._release(slot, status)
        if live:
            terminal = self._terminal_event(a, record)
            bus.emit_batch(  # type: ignore[union-attr]
                [terminal] if timed_out is None else [timed_out, terminal]
            )
        a.on_complete(record)
        self._dispatch()
