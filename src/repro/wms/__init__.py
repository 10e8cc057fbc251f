"""A Pegasus-like workflow management system.

Pegasus maps *abstract* workflows (DAX: jobs, logical files, dependency
edges) onto *executable* DAGs for a concrete site, then hands those to
DAGMan. This package mirrors that architecture:

* :mod:`repro.wms.dax` — the abstract workflow model and DAX XML I/O,
* :mod:`repro.wms.catalogs` — replica, transformation, and site catalogs,
* :mod:`repro.wms.planner` — the mapper: site selection, stage-in/out
  and cleanup jobs, task clustering, OSG setup decoration,
* :mod:`repro.wms.statistics` — ``pegasus-statistics`` equivalents
  (Workflow Wall Time, per-task Kickstart/Waiting/Download-Install),
* :mod:`repro.wms.analyzer` — ``pegasus-analyzer``-style failure reports,
* :mod:`repro.wms.monitor` — the submit directory's files and codecs,
* :mod:`repro.wms.cli` — ``pegasus-plan/run/status/statistics/analyzer``
  style command-line entry points.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.wms.dax import ADag, AbstractJob, File, LinkType
    from repro.wms.catalogs import (
        ReplicaCatalog,
        SiteCatalog,
        SiteEntry,
        TransformationCatalog,
        TransformationEntry,
    )
    from repro.wms.planner import PlannerOptions, plan
    from repro.wms.statistics import WorkflowStatistics, summarize

_EXPORTS = {
    "ADag": ("repro.wms.dax", "ADag"),
    "AbstractJob": ("repro.wms.dax", "AbstractJob"),
    "File": ("repro.wms.dax", "File"),
    "LinkType": ("repro.wms.dax", "LinkType"),
    "ReplicaCatalog": ("repro.wms.catalogs", "ReplicaCatalog"),
    "SiteCatalog": ("repro.wms.catalogs", "SiteCatalog"),
    "SiteEntry": ("repro.wms.catalogs", "SiteEntry"),
    "TransformationCatalog": ("repro.wms.catalogs", "TransformationCatalog"),
    "TransformationEntry": ("repro.wms.catalogs", "TransformationEntry"),
    "PlannerOptions": ("repro.wms.planner", "PlannerOptions"),
    "plan": ("repro.wms.planner", "plan"),
    "WorkflowStatistics": ("repro.wms.statistics", "WorkflowStatistics"),
    "summarize": ("repro.wms.statistics", "summarize"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "ADag",
    "AbstractJob",
    "File",
    "LinkType",
    "ReplicaCatalog",
    "SiteCatalog",
    "SiteEntry",
    "TransformationCatalog",
    "TransformationEntry",
    "PlannerOptions",
    "plan",
    "WorkflowStatistics",
    "summarize",
]
