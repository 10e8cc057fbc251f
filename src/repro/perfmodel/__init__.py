"""Task runtime models calibrated to the paper's reported numbers.

The evaluation figures (wall times at paper scale) cannot be recomputed
on a laptop — the serial run alone is 100 CPU-hours. Instead, the
discrete-event simulator executes the same DAGs with *modelled* task
runtimes. This package holds those models
(:mod:`repro.perfmodel.task_models`) and the calibration anchors they
are fitted to (:mod:`repro.perfmodel.calibration`), with the fit
itself asserted by tests and the calibration benchmark.
"""
