"""The lifecycle event taxonomy — one vocabulary for every backend.

Where :class:`repro.dagman.events.JobAttempt` is the *post-hoc* record
of one try, a :class:`RunEvent` is the *live* unit of observability: a
timestamped point in a run's life, emitted the moment it happens (in
virtual time on the simulators, in wall time on the local backend).

The taxonomy mirrors pegasus-monitord's netlogger events:

========================  ==============================================
kind                      meaning
========================  ==============================================
``workflow.start``        DAGMan released the initial ready set
``workflow.end``          nothing more can run (success or not)
``job.submit``            DAGMan handed one attempt to the platform
``job.match``             a slot/instance was chosen for the attempt
``job.setup_start``       slot acquired; staging / download-install began
``job.exec_start``        the payload started
``job.finish``            terminal: payload succeeded or failed
``job.evict``             terminal: preempted by the resource owner
``job.retry``             DAGMan re-queued a failed/evicted job
``job.state_change``      a DAGMan node changed state (ready, done, …)
``platform.sample``       periodic utilization sample (busy/idle counts)
``job.timeout``           the attempt exceeded ``DagJob.timeout_s`` and
                          was killed (a ``job.finish`` with a
                          ``timeout`` record follows)
``job.held``              DAGMan parked a retry to wait out a
                          :class:`~repro.resilience.retry.RetryPolicy`
                          delay (``detail`` has delay/until)
``fault.injected``        the chaos layer fired a fault
                          (``detail["fault"]`` names it)
``blacklist.add``         the circuit breaker blocked a machine or site
``rescue.round``          ``run_with_recovery()`` wrote a rescue DAG
                          and is resubmitting
``cache.hit``             a content-addressed result was served from
                          the :mod:`repro.core.cache` store
                          (``detail`` has kind/key)
``cache.miss``            a result was absent (or corrupt) in the store
                          and is being recomputed
``journal.snapshot``      the write-ahead journal compacted its state
                          into ``snapshot.json`` and rotated segments
                          (``detail`` has seq/segment/records)
``journal.resume``        a run is continuing from a recovered journal
                          (``detail`` has replayed/done/torn/clock)
``service.submit``        a tenant handed a DAG to the WaaS front-end
                          (``detail`` has tenant/workflow/jobs)
``service.admit``         admission control accepted the workflow and
                          queued it for fair-share release
``service.reject``        admission control refused the workflow
                          (``detail["reason"]`` says why — infeasible
                          requirements, quota, unknown tenant)
``service.workflow_done`` a tenant workflow finished (``detail`` has
                          tenant/workflow/succeeded plus turnaround_s
                          and queue_wait_s for SLO accounting)
``anomaly.straggler``     an attempt is running far past its
                          per-transformation baseline (``detail`` has
                          elapsed_s/expected_s/factor)
``anomaly.queue_wait``    an attempt waited in queue far longer than
                          the site's rolling baseline (``detail`` has
                          wait_s/baseline_s/queue_depth)
``anomaly.blacklist``     blacklist storm: the circuit breaker fired
                          repeatedly inside a short window (``detail``
                          has count/window_s)
``anomaly.slo_burn``      a tenant is burning its SLO budget: too many
                          recent workflows missed the turnaround
                          target (``detail`` has burn_rate/target_s)
========================  ==============================================

Terminal events (``job.finish`` / ``job.evict``) carry the full
:class:`JobAttempt` in :attr:`RunEvent.record`, so a stream of events is
a strict superset of a :class:`~repro.dagman.events.WorkflowTrace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

from repro.dagman.events import JobAttempt, JobStatus

__all__ = ["EventKind", "RunEvent", "TERMINAL_KINDS", "attempt_events"]


class EventKind(Enum):
    """What happened (see the module docstring for the taxonomy)."""

    WORKFLOW_START = "workflow.start"
    WORKFLOW_END = "workflow.end"
    SUBMIT = "job.submit"
    MATCH = "job.match"
    SETUP_START = "job.setup_start"
    EXEC_START = "job.exec_start"
    FINISH = "job.finish"
    EVICT = "job.evict"
    RETRY = "job.retry"
    STATE_CHANGE = "job.state_change"
    SAMPLE = "platform.sample"
    TIMEOUT = "job.timeout"
    HELD = "job.held"
    FAULT = "fault.injected"
    BLACKLIST = "blacklist.add"
    RESCUE = "rescue.round"
    CACHE_HIT = "cache.hit"
    CACHE_MISS = "cache.miss"
    JOURNAL_SNAPSHOT = "journal.snapshot"
    JOURNAL_RESUME = "journal.resume"
    SERVICE_SUBMIT = "service.submit"
    SERVICE_ADMIT = "service.admit"
    SERVICE_REJECT = "service.reject"
    SERVICE_WORKFLOW_DONE = "service.workflow_done"
    ANOMALY_STRAGGLER = "anomaly.straggler"
    ANOMALY_QUEUE_WAIT = "anomaly.queue_wait"
    ANOMALY_BLACKLIST_STORM = "anomaly.blacklist"
    ANOMALY_SLO_BURN = "anomaly.slo_burn"

    # Members are singletons: identity is a sound hash, and the C slot
    # spares every dict / frozenset probe ``Enum.__hash__``'s
    # Python-level ``hash(self._name_)``.
    __hash__ = object.__hash__


#: Kinds that end one attempt and carry its full :class:`JobAttempt`.
TERMINAL_KINDS = frozenset({EventKind.FINISH, EventKind.EVICT})


@dataclass(frozen=True)
class RunEvent:
    """One timestamped point in a run's life.

    ``time`` is on the emitting backend's clock (virtual seconds for the
    simulators, seconds since environment creation for the local
    backend). Job-scoped kinds fill ``job_name``/``attempt``; terminal
    kinds additionally carry the finished :class:`JobAttempt` in
    ``record``. ``detail`` holds kind-specific extras (state-change
    from/to, sample busy/idle counts, …).
    """

    kind: EventKind
    time: float
    job_name: str | None = None
    transformation: str | None = None
    site: str | None = None
    machine: str | None = None
    attempt: int | None = None
    record: JobAttempt | None = field(default=None, compare=False)
    detail: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind in TERMINAL_KINDS and self.record is None:
            raise ValueError(f"{self.kind.value} events must carry a record")

    @property
    def is_terminal(self) -> bool:
        """True for events that end one attempt (finish/evict)."""
        return self.kind in TERMINAL_KINDS


def attempt_events(record: JobAttempt) -> list[RunEvent]:
    """Reconstruct the lifecycle events of one finished attempt.

    Backends that only learn an attempt's timings at completion (the
    local process/thread pools report through a completion queue) use
    this to emit the same event sequence the simulators emit live —
    each event stamped with the attempt's own timestamps, so exporters
    and metrics see one consistent stream regardless of backend.

    ``job.setup_start`` is emitted only when a distinct setup phase
    exists (``setup_start < exec_start``); platforms with pre-installed
    software go straight from waiting to execution.
    """
    common = dict(
        job_name=record.job_name,
        transformation=record.transformation,
        site=record.site,
        machine=record.machine,
        attempt=record.attempt,
    )
    events = []
    if record.setup_start < record.exec_start:
        events.append(
            RunEvent(EventKind.SETUP_START, record.setup_start, **common)
        )
    events.append(RunEvent(EventKind.EXEC_START, record.exec_start, **common))
    if record.status is JobStatus.TIMEOUT:
        # The watchdog fired at exec_end; the terminal record follows.
        events.append(
            RunEvent(
                EventKind.TIMEOUT,
                record.exec_end,
                detail={"error": record.error} if record.error else {},
                **common,
            )
        )
    terminal = (
        EventKind.EVICT
        if record.status is JobStatus.EVICTED
        else EventKind.FINISH
    )
    events.append(
        RunEvent(
            terminal,
            record.exec_end,
            record=record,
            detail={"status": record.status.value},
            **common,
        )
    )
    return events
