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
