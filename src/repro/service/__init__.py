"""Multi-tenant Workflow-as-a-Service layer.

The paper runs one blast2cap3 workflow at a time; the ROADMAP
north-star is a service that runs thousands of them concurrently for
many users. This package is that front-end over the existing engine
stack: tenants submit DAGs to a :class:`WorkflowService`, admission
control proves them feasible against the modeled pools (the PR 6
preflight), and a weighted fair-share scheduler releases their jobs to
one shared :class:`~repro.dagman.scheduler.ExecutionEnvironment` under
per-tenant quotas, with per-tenant SLO distributions flowing through
the event bus into ``repro-report``.

Layering: ``service`` sits above ``dagman`` (one private
:class:`DagmanScheduler` per workflow) and above ``sim`` (one shared
platform); it never reaches into either's internals — jobs cross the
boundary through the same ``ExecutionEnvironment`` protocol DAGMan
already uses, via a per-workflow gate that parks submissions in the
service's fair-share queue.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.fairshare import StrideScheduler
    from repro.service.loadgen import LoadSpec, generate_workflow, run_load
    from repro.service.service import (
        ServiceConfig,
        WorkflowHandle,
        WorkflowService,
        WorkflowState,
    )
    from repro.service.tenants import TenantAccount, TenantConfig, TenantQuota

_EXPORTS = {
    "StrideScheduler": ("repro.service.fairshare", "StrideScheduler"),
    "LoadSpec": ("repro.service.loadgen", "LoadSpec"),
    "generate_workflow": ("repro.service.loadgen", "generate_workflow"),
    "run_load": ("repro.service.loadgen", "run_load"),
    "ServiceConfig": ("repro.service.service", "ServiceConfig"),
    "WorkflowHandle": ("repro.service.service", "WorkflowHandle"),
    "WorkflowService": ("repro.service.service", "WorkflowService"),
    "WorkflowState": ("repro.service.service", "WorkflowState"),
    "TenantAccount": ("repro.service.tenants", "TenantAccount"),
    "TenantConfig": ("repro.service.tenants", "TenantConfig"),
    "TenantQuota": ("repro.service.tenants", "TenantQuota"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "LoadSpec",
    "ServiceConfig",
    "StrideScheduler",
    "TenantAccount",
    "TenantConfig",
    "TenantQuota",
    "WorkflowHandle",
    "WorkflowService",
    "WorkflowState",
    "generate_workflow",
    "run_load",
]
