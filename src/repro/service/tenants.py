"""Tenant identity, quotas, and accounting.

A *tenant* is one user/group sharing the service's pool. Its
:class:`TenantConfig` carries the scheduling knobs (fair-share weight,
quotas); its :class:`TenantAccount` carries the
live counters the service maintains — what was submitted, admitted,
rejected, completed, and how much machine time the tenant consumed —
the ``condor_userprio``-style ledger multi-tenant operators bill from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["TenantQuota", "TenantConfig", "TenantAccount"]


@dataclass(frozen=True)
class TenantQuota:
    """Hard per-tenant ceilings (``None`` = unlimited).

    ``max_running_jobs`` caps how many of the tenant's jobs occupy the
    shared pool at once (fair-share decides *order*, the quota decides
    *amount*); ``max_active_workflows`` caps admitted-but-unfinished
    workflows — submissions beyond it are rejected at admission, the
    service's back-pressure valve.
    """

    max_running_jobs: int | None = None
    max_active_workflows: int | None = None

    def __post_init__(self) -> None:
        if self.max_running_jobs is not None and self.max_running_jobs < 1:
            raise ValueError("max_running_jobs must be >= 1 (or None)")
        if (
            self.max_active_workflows is not None
            and self.max_active_workflows < 1
        ):
            raise ValueError("max_active_workflows must be >= 1 (or None)")


@dataclass(frozen=True)
class TenantConfig:
    """One tenant's scheduling contract.

    ``weight`` is the fair-share share: in steady state with everyone
    backlogged, a tenant holds ``weight / total_weight`` of the slots
    the service releases.
    """

    name: str
    weight: float = 1.0
    quota: TenantQuota = field(default_factory=TenantQuota)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.weight <= 0:
            raise ValueError("weight must be positive")


@dataclass
class TenantAccount:
    """Live usage ledger for one tenant (maintained by the service)."""

    #: workflows handed to ``submit`` (admitted or not)
    workflows_submitted: int = 0
    #: workflows past admission control
    workflows_admitted: int = 0
    #: workflows refused at admission (infeasible, quota)
    workflows_rejected: int = 0
    #: admitted workflows that reached a terminal state
    workflows_completed: int = 0
    #: of those, how many fully succeeded
    workflows_succeeded: int = 0
    #: job attempts the service released to the platform
    jobs_dispatched: int = 0
    #: job attempts that came back (any status)
    jobs_completed: int = 0
    #: platform-clock seconds the tenant's attempts occupied a slot
    #: doing work (setup-to-end per attempt — what a billing report
    #: charges; the opportunistic-wait window is idle, not billed)
    busy_seconds: float = 0.0
    #: jobs on the platform right now
    running_jobs: int = 0
    #: admitted, unfinished workflows right now
    active_workflows: int = 0

    def snapshot(self) -> dict[str, float]:
        """JSON-able copy (the accounting export)."""
        return {
            "workflows_submitted": self.workflows_submitted,
            "workflows_admitted": self.workflows_admitted,
            "workflows_rejected": self.workflows_rejected,
            "workflows_completed": self.workflows_completed,
            "workflows_succeeded": self.workflows_succeeded,
            "jobs_dispatched": self.jobs_dispatched,
            "jobs_completed": self.jobs_completed,
            "busy_seconds": round(self.busy_seconds, 6),
            "running_jobs": self.running_jobs,
            "active_workflows": self.active_workflows,
        }
