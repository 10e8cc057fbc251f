"""A planned DAG as the dict ``plan.json`` holds.

:func:`repro.wms.monitor.write_plan` prints ``plan.json`` straight from
the DAG and :meth:`repro.dagman.dag.Dag.from_json` reads it back; this
is the document both are held to (``tests/test_plan_render.py``,
``tests/test_dagman_properties.py``).
"""

from __future__ import annotations

from repro.dagman.dag import PLAN_JOB_KEYS, Dag

__all__ = ["dag_to_json"]


def dag_to_json(dag: Dag) -> dict:
    """What the ``.dag`` file cannot carry (runtimes, setup marks,
    requirements) beside what it can. The name stays out, as it stays
    out of the ``.dag`` grammar, and ``done`` is written only when there
    are marks."""
    data: dict = {
        "jobs": {
            name: {key: getattr(job, key) for key in PLAN_JOB_KEYS}
            for name, job in dag.jobs.items()
        },
        "edges": sorted(dag.edges()),
    }
    if dag.done:
        data["done"] = sorted(dag.done)
    return data
