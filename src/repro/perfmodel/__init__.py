"""Task runtime models calibrated to the paper's reported numbers.

The evaluation figures (wall times at paper scale) cannot be recomputed
on a laptop — the serial run alone is 100 CPU-hours. Instead, the
discrete-event simulator executes the same DAGs with *modelled* task
runtimes. This package holds those models and the calibration anchors
they are fitted to (:mod:`repro.perfmodel.calibration`), with the fit
itself asserted by tests and the calibration benchmark.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.perfmodel.calibration import CalibrationAnchors, anchors
    from repro.perfmodel.task_models import PaperTaskModel

_EXPORTS = {
    "CalibrationAnchors": ("repro.perfmodel.calibration", "CalibrationAnchors"),
    "anchors": ("repro.perfmodel.calibration", "anchors"),
    "PaperTaskModel": ("repro.perfmodel.task_models", "PaperTaskModel"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = ["CalibrationAnchors", "anchors", "PaperTaskModel"]
