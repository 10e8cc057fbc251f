"""A BLASTX-like translated protein search engine.

blast2cap3 consumes the *tabular output* of BLASTX (transcripts aligned
against a close-relative protein database). This package implements the
same algorithmic family from scratch:

* :mod:`repro.blast.database` — an indexed protein database,
* :mod:`repro.blast.seeds` — neighborhood-word seeding (two-hit heuristic),
* :mod:`repro.blast.extend` — ungapped X-drop and gapped extension,
* :mod:`repro.blast.blastx` — the six-frame translated search driver,
* :mod:`repro.blast.tabular` — BLAST ``-outfmt 6`` records and I/O.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

# Shares its name with the submodule, which the import system binds
# under that name without ever asking __getattr__: stays eager.
from repro.blast.blastx import blastx

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.blast.database import ProteinDatabase
    from repro.blast.blastx import BlastXParams, blastx_many
    from repro.blast.filter import mask_low_complexity
    from repro.blast.tabular import TabularHit, read_tabular, write_tabular

_EXPORTS = {
    "ProteinDatabase": ("repro.blast.database", "ProteinDatabase"),
    "BlastXParams": ("repro.blast.blastx", "BlastXParams"),
    "blastx_many": ("repro.blast.blastx", "blastx_many"),
    "mask_low_complexity": ("repro.blast.filter", "mask_low_complexity"),
    "TabularHit": ("repro.blast.tabular", "TabularHit"),
    "read_tabular": ("repro.blast.tabular", "read_tabular"),
    "write_tabular": ("repro.blast.tabular", "write_tabular"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "ProteinDatabase",
    "BlastXParams",
    "blastx",
    "blastx_many",
    "mask_low_complexity",
    "TabularHit",
    "read_tabular",
    "write_tabular",
]
