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
