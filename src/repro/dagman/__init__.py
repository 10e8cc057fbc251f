"""A DAGMan/Condor-like meta-scheduling layer.

Pegasus plans workflows into a DAG that Condor's DAGMan executes:
jobs are released when their parents finish, failures are retried a
configured number of times, and an aborted run leaves a *rescue DAG*
marking completed work. This package implements those semantics:

* :mod:`repro.dagman.dag` — the DAG model and ``.dag`` file round-trip,
* :mod:`repro.dagman.events` — per-attempt job records (the trace schema
  shared by the simulator and the real local executor),
* :mod:`repro.dagman.scheduler` — the DAGMan loop with throttles,
  retries, priorities, and rescue generation (incremental ready-heap
  hot paths over dense job ids, sized for million-job DAGs; the
  name-keyed full-rescan loop it replaced is the test oracle
  ``tests/oracles/rescan_scheduler.py``),
* :mod:`repro.dagman.condor` — ClassAd-style matchmaking used by the
  platform models to pair jobs with heterogeneous machines.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dagman.dag import Dag, DagJob
    from repro.dagman.events import JobAttempt, JobStatus, WorkflowTrace
    from repro.dagman.scheduler import DagmanScheduler, DagmanResult

_EXPORTS = {
    "Dag": ("repro.dagman.dag", "Dag"),
    "DagJob": ("repro.dagman.dag", "DagJob"),
    "JobAttempt": ("repro.dagman.events", "JobAttempt"),
    "JobStatus": ("repro.dagman.events", "JobStatus"),
    "WorkflowTrace": ("repro.dagman.events", "WorkflowTrace"),
    "DagmanScheduler": ("repro.dagman.scheduler", "DagmanScheduler"),
    "DagmanResult": ("repro.dagman.scheduler", "DagmanResult"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "Dag",
    "DagJob",
    "JobAttempt",
    "JobStatus",
    "WorkflowTrace",
    "DagmanScheduler",
    "DagmanResult",
]
