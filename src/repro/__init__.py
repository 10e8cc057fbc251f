"""repro — reproduction of Pavlovikj et al., IPDPSW 2014.

*A Comparison of a Campus Cluster and Open Science Grid Platforms for
Protein-Guided Assembly using Pegasus Workflow Management System.*

Import what you use from the module that defines it; the subpackages:

* :mod:`repro.core` — blast2cap3 and the workflow factory,
* :mod:`repro.wms` / :mod:`repro.dagman` — the workflow system,
* :mod:`repro.sim` — the platform simulators,
* :mod:`repro.bio` / :mod:`repro.blast` / :mod:`repro.cap3` — the
  bioinformatics substrates,
* :mod:`repro.datagen` / :mod:`repro.perfmodel` /
  :mod:`repro.experiments` — data, calibration and sweeps.
"""

__version__ = "1.0.0"
