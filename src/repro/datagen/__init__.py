"""Synthetic data generation.

Replaces the paper's Triticum urartu dataset (NCBI PRJNA191053) with
laptop-scale synthetic equivalents that preserve the statistical
structure blast2cap3 depends on: transcripts arrive as redundant,
fragmented, error-bearing pieces of genes whose proteins are in the
reference database, and cluster sizes are right-skewed.

* :mod:`repro.datagen.proteins` — random protein databases,
* :mod:`repro.datagen.transcripts` — transcript fragments per gene,
* :mod:`repro.datagen.reads` — Illumina-like paired FASTQ reads,
* :mod:`repro.datagen.workload` — bundled workloads (generate both
  inputs of blast2cap3, plus the paper-scale descriptor used by the
  performance models).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.datagen.proteins import random_protein, random_protein_db
    from repro.datagen.transcripts import TranscriptomeSpec, generate_transcriptome
    from repro.datagen.workload import (
        Blast2Cap3Workload,
        PaperScale,
        generate_blast2cap3_workload,
        paper_scale,
    )

_EXPORTS = {
    "random_protein": ("repro.datagen.proteins", "random_protein"),
    "random_protein_db": ("repro.datagen.proteins", "random_protein_db"),
    "TranscriptomeSpec": ("repro.datagen.transcripts", "TranscriptomeSpec"),
    "generate_transcriptome": ("repro.datagen.transcripts", "generate_transcriptome"),
    "Blast2Cap3Workload": ("repro.datagen.workload", "Blast2Cap3Workload"),
    "PaperScale": ("repro.datagen.workload", "PaperScale"),
    "generate_blast2cap3_workload": ("repro.datagen.workload", "generate_blast2cap3_workload"),
    "paper_scale": ("repro.datagen.workload", "paper_scale"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "random_protein",
    "random_protein_db",
    "TranscriptomeSpec",
    "generate_transcriptome",
    "Blast2Cap3Workload",
    "PaperScale",
    "paper_scale",
    "generate_blast2cap3_workload",
]
