"""A CAP3-like overlap–layout–consensus assembler.

blast2cap3 hands each cluster of transcripts to CAP3 and collects the
merged contigs plus the unmerged "singlets". This package implements the
same contract from scratch:

* :mod:`repro.cap3.overlap` — candidate detection (shared k-mers) and
  dovetail/containment overlap alignment,
* :mod:`repro.cap3.graph` — the overlap graph and greedy layout,
* :mod:`repro.cap3.consensus` — per-column majority consensus calling,
* :mod:`repro.cap3.assembler` — the public :func:`assemble` API.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cap3.assembler import AssemblyResult, Cap3Params, Contig, assemble
    from repro.cap3.report import format_ace, format_info, write_ace

_EXPORTS = {
    "AssemblyResult": ("repro.cap3.assembler", "AssemblyResult"),
    "Cap3Params": ("repro.cap3.assembler", "Cap3Params"),
    "Contig": ("repro.cap3.assembler", "Contig"),
    "assemble": ("repro.cap3.assembler", "assemble"),
    "format_ace": ("repro.cap3.report", "format_ace"),
    "format_info": ("repro.cap3.report", "format_info"),
    "write_ace": ("repro.cap3.report", "write_ace"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "assemble",
    "AssemblyResult",
    "Cap3Params",
    "Contig",
    "format_ace",
    "format_info",
    "write_ace",
]
