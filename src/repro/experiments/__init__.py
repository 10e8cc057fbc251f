"""Experiment orchestration: multi-seed sweeps over platforms and n.

The paper cautions that "the running time for the both platforms and
the optimal number of used clusters of transcripts may vary for every
new run due to the availability of the current resources" (§VI-A).
:mod:`repro.experiments.sweep` makes that variability first-class:
run a configuration across seeds, get distribution statistics, and
compare platforms on equal footing.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.sweep import (
        RunStats,
        SweepResult,
        run_config,
        run_sweep,
        sweep_table,
    )

_EXPORTS = {
    "RunStats": ("repro.experiments.sweep", "RunStats"),
    "SweepResult": ("repro.experiments.sweep", "SweepResult"),
    "run_config": ("repro.experiments.sweep", "run_config"),
    "run_sweep": ("repro.experiments.sweep", "run_sweep"),
    "sweep_table": ("repro.experiments.sweep", "sweep_table"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "RunStats",
    "SweepResult",
    "run_config",
    "run_sweep",
    "sweep_table",
]
