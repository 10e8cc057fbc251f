"""repro — reproduction of Pavlovikj et al., IPDPSW 2014.

*A Comparison of a Campus Cluster and Open Science Grid Platforms for
Protein-Guided Assembly using Pegasus Workflow Management System.*

The most-used entry points, re-exported for convenience; see the
subpackages for the full APIs:

* :mod:`repro.core` — blast2cap3 and the workflow factory,
* :mod:`repro.wms` / :mod:`repro.dagman` — the workflow system,
* :mod:`repro.sim` — the platform simulators,
* :mod:`repro.bio` / :mod:`repro.blast` / :mod:`repro.cap3` — the
  bioinformatics substrates,
* :mod:`repro.datagen` / :mod:`repro.perfmodel` /
  :mod:`repro.experiments` — data, calibration and sweeps.
"""

__version__ = "1.0.0"

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.blast2cap3 import Blast2Cap3Result, blast2cap3_parallel
    from repro.core.workflow_factory import (
        build_blast2cap3_adag,
        run_local,
        simulate_paper_run,
        simulate_paper_run_with_recovery,
    )
    from repro.datagen.workload import generate_blast2cap3_workload
    from repro.resilience import run_with_recovery
    from repro.wms.statistics import render_report, summarize

_EXPORTS = {
    "Blast2Cap3Result": ("repro.core.blast2cap3", "Blast2Cap3Result"),
    "blast2cap3_parallel": ("repro.core.blast2cap3", "blast2cap3_parallel"),
    "build_blast2cap3_adag": ("repro.core.workflow_factory", "build_blast2cap3_adag"),
    "run_local": ("repro.core.workflow_factory", "run_local"),
    "simulate_paper_run": ("repro.core.workflow_factory", "simulate_paper_run"),
    "simulate_paper_run_with_recovery": (
        "repro.core.workflow_factory",
        "simulate_paper_run_with_recovery",
    ),
    "generate_blast2cap3_workload": ("repro.datagen.workload", "generate_blast2cap3_workload"),
    "run_with_recovery": ("repro.resilience", "run_with_recovery"),
    "render_report": ("repro.wms.statistics", "render_report"),
    "summarize": ("repro.wms.statistics", "summarize"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "__version__",
    "Blast2Cap3Result",
    "blast2cap3_parallel",
    "build_blast2cap3_adag",
    "run_local",
    "simulate_paper_run",
    "simulate_paper_run_with_recovery",
    "run_with_recovery",
    "generate_blast2cap3_workload",
    "summarize",
    "render_report",
]
