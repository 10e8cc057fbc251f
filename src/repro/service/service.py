"""The Workflow-as-a-Service front-end.

One :class:`WorkflowService` owns one shared simulated platform (the
cluster or the grid, which advertise a ``capacity``) and multiplexes
many tenant workflows onto it:

* :meth:`WorkflowService.submit` runs **admission control** — the
  tenant must exist, its ``max_active_workflows`` quota must have
  headroom, and every distinct requirements expression in the DAG must
  be satisfiable by some modeled pool (the PR 6 feasibility preflight,
  :func:`repro.lint.feasibility.never_matchable`), so a workflow that
  could only idle to its unmatched timeout is refused up front;
* each admitted workflow gets its own
  :class:`~repro.dagman.scheduler.DagmanScheduler` driving a private
  **gate**: an ``ExecutionEnvironment`` facade whose ``submit`` parks
  the job in the service's central queue instead of reaching the
  platform;
* the **fair-share pump** releases parked jobs to the platform
  whenever slots free up, picking the next tenant by stride scheduling
  (weights, :mod:`repro.service.fairshare`) among tenants with parked
  work and ``max_running_jobs`` headroom, never more at once than the
  platform's ``capacity`` — so the *platform's* FIFO queue never holds
  more than the service released, and cross-tenant ordering is the
  service's decision, not the platform's;
* every workflow's scheduler emits straight onto the service bus and
  stamps ``tenant``/``workflow`` into ``detail`` where it builds the
  event (``DagmanScheduler(tags=...)``) — one tagged timeline for all
  tenants, feeding :func:`repro.observe.metrics.instrument` and
  ``repro-report``, each event built and emitted once, and none built
  at all while nobody listens. Platform-side events
  (match/exec/finish) belong to the shared environment and are not
  tagged; the scheduler-side stream (submit, state changes, retries,
  workflow start/end) plus the ``service.*`` kinds carry the tenant
  dimension.

Turnaround and queue-wait are measured on the platform clock:
*turnaround* from submission to the workflow's terminal event,
*queue wait* from submission to the first job released to the
platform. Per-tenant distributions are kept in
:class:`~repro.observe.metrics.Histogram` and exported by
:meth:`WorkflowService.slo_report` (p95s are the service's SLO
numbers).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Callable, Mapping

from repro.dagman.dag import Dag, DagJob
from repro.dagman.events import JobAttempt
from repro.dagman.scheduler import DagmanResult, DagmanScheduler
from repro.lint.feasibility import (
    SitePool,
    closest_missing_capability,
    default_pools,
    never_matchable,
)
from repro.observe.bus import EventBus
from repro.observe.events import EventKind, RunEvent
from repro.observe.metrics import Histogram
from repro.service.fairshare import StrideScheduler
from repro.service.tenants import TenantAccount, TenantConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.cluster import CampusCluster
    from repro.sim.grid import OpportunisticGrid

__all__ = [
    "WorkflowState",
    "WorkflowHandle",
    "WorkflowService",
]


class WorkflowState(Enum):
    """Service-side lifecycle of one submitted workflow."""

    REJECTED = "rejected"
    RUNNING = "running"
    DONE = "done"


@dataclass
class WorkflowHandle:
    """What a tenant holds after ``submit``."""

    tenant: str
    name: str
    dag: Dag
    state: WorkflowState
    submit_time: float
    #: why admission refused it (REJECTED only)
    reject_reason: str | None = None
    #: platform time of the first job released (queue-wait mark)
    first_dispatch_time: float | None = None
    #: platform time the workflow turned terminal
    done_time: float | None = None
    #: final outcome (DONE only)
    result: DagmanResult | None = None
    scheduler: DagmanScheduler | None = field(default=None, repr=False)

    @property
    def turnaround_s(self) -> float | None:
        if self.done_time is None:
            return None
        return self.done_time - self.submit_time

    @property
    def queue_wait_s(self) -> float | None:
        if self.first_dispatch_time is None:
            return None
        return self.first_dispatch_time - self.submit_time


@dataclass
class _ParkedJob:
    """One job attempt waiting in the service's fair-share queue."""

    handle: WorkflowHandle
    job: DagJob
    on_complete: Callable[[JobAttempt], None]
    attempt: int


class _Gate:
    """Per-workflow ``ExecutionEnvironment`` facade.

    DAGMan drives it exactly like a platform; ``submit`` parks the job
    with the service instead. Time and deferral pass straight through
    to the shared environment, so retry delays and clocks are the
    platform's.
    """

    def __init__(self, service: "WorkflowService", handle: WorkflowHandle):
        self._service = service
        self._handle = handle

    @property
    def now(self) -> float:
        return self._service.environment.now

    def submit(
        self,
        job: DagJob,
        on_complete: Callable[[JobAttempt], None],
        *,
        attempt: int = 1,
    ) -> None:
        self._service._park(self._handle, job, on_complete, attempt)

    def run_until_complete(self) -> None:  # pragma: no cover - unused
        self._service.environment.run_until_complete()


class WorkflowService:
    """Multi-tenant submission front-end over one shared platform."""

    def __init__(
        self,
        environment: "CampusCluster | OpportunisticGrid",
        *,
        bus: EventBus | None = None,
        pools: Mapping[str, SitePool] | None = None,
    ) -> None:
        """``bus`` receives the tagged multi-tenant stream (pass the
        same bus to ``instrument`` for tenant-labelled metrics);
        ``pools`` overrides the feasibility descriptors admission
        checks against (defaults to the modeled platforms'). At most the
        platform's ``capacity`` jobs are released at once: releasing
        more than the pool can run would just rebuild the platform-side
        queue the service exists to own."""
        self.environment = environment
        self.bus = bus if bus is not None else EventBus()
        self._pools: Mapping[str, SitePool] = (
            pools if pools is not None else default_pools()
        )
        self._max_in_flight = environment.capacity
        self._in_flight = 0
        self._tenants: dict[str, TenantConfig] = {}
        self._accounts: dict[str, TenantAccount] = {}
        self._fairshare = StrideScheduler()
        #: per-tenant FIFO of parked jobs (FIFO preserves each
        #: workflow's DAGMan priority order across the gate)
        self._parked: dict[str, deque[_ParkedJob]] = {}
        self._handles: list[WorkflowHandle] = []
        self._workflow_seq = 0
        self._turnaround: dict[str, Histogram] = {}
        self._queue_wait: dict[str, Histogram] = {}
        self.jobs_released = 0

    # -- tenants ---------------------------------------------------------

    def add_tenant(self, tenant: TenantConfig) -> None:
        if tenant.name in self._tenants:
            raise ValueError(f"duplicate tenant: {tenant.name}")
        self._tenants[tenant.name] = tenant
        self._accounts[tenant.name] = TenantAccount()
        self._fairshare.register(tenant.name, tenant.weight)
        self._parked[tenant.name] = deque()
        self._turnaround[tenant.name] = Histogram()
        self._queue_wait[tenant.name] = Histogram()

    def account(self, tenant: str) -> TenantAccount:
        return self._accounts[tenant]

    @property
    def in_flight(self) -> int:
        """Jobs currently released to the platform."""
        return self._in_flight

    @property
    def parked_jobs(self) -> int:
        """Jobs waiting in the fair-share queue."""
        return sum(len(q) for q in self._parked.values())

    # -- submission ------------------------------------------------------

    def submit(
        self,
        tenant: str,
        dag: Dag,
        *,
        name: str | None = None,
        max_jobs: int | None = None,
        default_retries: int | None = None,
    ) -> WorkflowHandle:
        """Submit one DAG on behalf of ``tenant``.

        Returns a handle whose ``state`` is ``REJECTED`` (with a
        ``reject_reason``) when admission control refuses it, else
        ``RUNNING`` — drive the environment (``run()``) and the handle
        flips to ``DONE`` with a :class:`DagmanResult`.

        ``max_jobs``/``default_retries`` pass through to the
        workflow's private :class:`DagmanScheduler`.
        """
        now = self.environment.now
        self._workflow_seq += 1
        wf_name = name or f"{tenant}-wf{self._workflow_seq}"
        handle = WorkflowHandle(
            tenant=tenant,
            name=wf_name,
            dag=dag,
            state=WorkflowState.RUNNING,
            submit_time=now,
        )
        self._handles.append(handle)
        self._emit_service(
            EventKind.SERVICE_SUBMIT,
            tenant=tenant,
            workflow=wf_name,
            extra={"jobs": len(dag.jobs)},
        )
        account = self._accounts.get(tenant)
        if account is not None:
            account.workflows_submitted += 1
        reason = self._admission_reason(tenant, dag)
        if reason is not None:
            handle.state = WorkflowState.REJECTED
            handle.reject_reason = reason
            if account is not None:
                account.workflows_rejected += 1
            self._emit_service(
                EventKind.SERVICE_REJECT,
                tenant=tenant,
                workflow=wf_name,
                extra={"reason": reason},
            )
            return handle
        assert account is not None  # unknown tenants were rejected above
        account.workflows_admitted += 1
        account.active_workflows += 1
        self._emit_service(
            EventKind.SERVICE_ADMIT,
            tenant=tenant,
            workflow=wf_name,
            extra={"jobs": len(dag.jobs)},
        )
        scheduler = DagmanScheduler(
            dag,
            _Gate(self, handle),
            bus=self.bus,
            tags={"tenant": tenant, "workflow": wf_name},
            max_jobs=max_jobs,
            default_retries=default_retries,
        )
        handle.scheduler = scheduler
        scheduler.start()
        # A DAG whose every node was pre-done (rescue resubmission of a
        # finished run) is terminal immediately — no completion callback
        # will ever fire for it.
        self._maybe_finish(handle)
        return handle

    def _admission_reason(self, tenant: str, dag: Dag) -> str | None:
        if tenant not in self._tenants:
            return f"unknown tenant {tenant!r}"
        quota = self._tenants[tenant].quota
        account = self._accounts[tenant]
        if (
            quota.max_active_workflows is not None
            and account.active_workflows >= quota.max_active_workflows
        ):
            return (
                f"tenant {tenant!r} at max_active_workflows="
                f"{quota.max_active_workflows}"
            )
        # Feasibility preflight: one verdict per distinct expression
        # (PR 6's RES001, scoped to what this service's pools offer).
        checked: set[str] = set()
        for job_name in sorted(dag.jobs):
            req = dag.jobs[job_name].requirements
            if not req or req in checked:
                continue
            checked.add(req)
            if never_matchable(req, self._pools):
                missing = closest_missing_capability(req, self._pools)
                hint = (
                    f"; closest missing capability: {missing}"
                    if missing is not None
                    else ""
                )
                return (
                    f"requirements {req!r} (job {job_name!r}) match no "
                    f"machine in any pool{hint}"
                )
        return None

    # -- event plumbing --------------------------------------------------

    def _emit_service(
        self,
        kind: EventKind,
        *,
        tenant: str,
        workflow: str,
        extra: dict[str, object] | None = None,
    ) -> None:
        bus = self.bus
        if not bus.active:
            return
        detail: dict[str, object] = {"tenant": tenant, "workflow": workflow}
        if extra:
            detail.update(extra)
        bus.emit(RunEvent(kind, self.environment.now, detail=detail))

    # -- the fair-share pump ---------------------------------------------

    def _park(
        self,
        handle: WorkflowHandle,
        job: DagJob,
        on_complete: Callable[[JobAttempt], None],
        attempt: int,
    ) -> None:
        self._parked[handle.tenant].append(
            _ParkedJob(handle, job, on_complete, attempt)
        )
        self._pump()

    def _eligible(self) -> list[str]:
        out = []
        for name, queue in self._parked.items():
            if not queue:
                continue
            quota = self._tenants[name].quota
            if (
                quota.max_running_jobs is not None
                and self._accounts[name].running_jobs
                >= quota.max_running_jobs
            ):
                continue
            out.append(name)
        return out

    def _pump(self) -> None:
        """Release parked jobs while the platform has headroom."""
        while self._in_flight < self._max_in_flight:
            tenant = self._fairshare.select(self._eligible())
            if tenant is None:
                return
            parked = self._parked[tenant].popleft()
            self._fairshare.charge(tenant)
            account = self._accounts[tenant]
            account.running_jobs += 1
            account.jobs_dispatched += 1
            self._in_flight += 1
            self.jobs_released += 1
            handle = parked.handle
            if handle.first_dispatch_time is None:
                handle.first_dispatch_time = self.environment.now
                self._queue_wait[tenant].observe(
                    handle.first_dispatch_time - handle.submit_time
                )
            self.environment.submit(
                parked.job,
                self._completion_listener(parked),
                attempt=parked.attempt,
            )

    def _completion_listener(
        self, parked: _ParkedJob
    ) -> Callable[[JobAttempt], None]:
        def on_complete(record: JobAttempt) -> None:
            handle = parked.handle
            account = self._accounts[handle.tenant]
            # Free the slot before DAGMan reacts: a retry or a newly
            # ready child submitted inside the callback can be released
            # immediately into the slot this completion vacated.
            self._in_flight -= 1
            account.running_jobs -= 1
            account.jobs_completed += 1
            account.busy_seconds += record.exec_end - record.setup_start
            parked.on_complete(record)
            self._maybe_finish(handle)
            self._pump()

        return on_complete

    def _maybe_finish(self, handle: WorkflowHandle) -> None:
        scheduler = handle.scheduler
        if (
            scheduler is None
            or handle.state is not WorkflowState.RUNNING
            or scheduler.unfinished > 0
        ):
            return
        handle.state = WorkflowState.DONE
        handle.done_time = self.environment.now
        handle.result = scheduler.finish()  # emits workflow.end (tagged)
        account = self._accounts[handle.tenant]
        account.active_workflows -= 1
        account.workflows_completed += 1
        if handle.result.success:
            account.workflows_succeeded += 1
        turnaround = handle.done_time - handle.submit_time
        self._turnaround[handle.tenant].observe(turnaround)
        self._emit_service(
            EventKind.SERVICE_WORKFLOW_DONE,
            tenant=handle.tenant,
            workflow=handle.name,
            extra={
                "succeeded": handle.result.success,
                "turnaround_s": turnaround,
                "queue_wait_s": handle.queue_wait_s or 0.0,
            },
        )

    # -- driving and reporting -------------------------------------------

    def run(self) -> list[WorkflowHandle]:
        """Drive the shared environment until every admitted workflow
        is terminal; returns all handles (rejected ones included)."""
        self.environment.run_until_complete()
        unfinished = [
            h for h in self._handles if h.state is WorkflowState.RUNNING
        ]
        if unfinished:  # pragma: no cover - defensive
            names = ", ".join(h.name for h in unfinished[:5])
            raise RuntimeError(
                f"environment drained with {len(unfinished)} workflow(s) "
                f"still running ({names}, …)"
            )
        return list(self._handles)

    def slo_report(self) -> dict[str, dict[str, object]]:
        """Per-tenant SLO + accounting snapshot (JSON-able).

        ``turnaround_s``/``queue_wait_s`` are histogram summaries —
        their ``p95`` entries are the service's SLO numbers.
        """
        report: dict[str, dict[str, object]] = {}
        for name in sorted(self._tenants):
            report[name] = {
                "weight": self._tenants[name].weight,
                "account": self._accounts[name].snapshot(),
                "turnaround_s": self._turnaround[name].summary(),
                "queue_wait_s": self._queue_wait[name].summary(),
            }
        return report
