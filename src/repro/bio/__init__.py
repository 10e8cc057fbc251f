"""Sequence substrate: the Biopython-equivalent layer blast2cap3 needs.

Provides DNA/protein sequence primitives (:mod:`repro.bio.seq`),
FASTA/FASTQ I/O (:mod:`repro.bio.fasta`, :mod:`repro.bio.fastq`),
read quality processing for the preprocessing pipeline stage
(:mod:`repro.bio.quality`), substitution matrices
(:mod:`repro.bio.matrices`), pairwise alignment kernels
(:mod:`repro.bio.alignment`), k-mer indexing (:mod:`repro.bio.kmer`),
and Karlin–Altschul alignment statistics (:mod:`repro.bio.stats`).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bio.seq import (
        CODON_TABLE,
        reverse_complement,
        six_frame_translations,
        translate,
    )
    from repro.bio.fasta import FastaRecord, read_fasta, write_fasta
    from repro.bio.fastq import FastqRecord, read_fastq, write_fastq
    from repro.bio.alignment import global_align, local_align, overlap_align
    from repro.bio.affine import affine_global, affine_local, affine_overlap
    from repro.bio.orf import find_orfs, longest_orf

_EXPORTS = {
    "CODON_TABLE": ("repro.bio.seq", "CODON_TABLE"),
    "reverse_complement": ("repro.bio.seq", "reverse_complement"),
    "six_frame_translations": ("repro.bio.seq", "six_frame_translations"),
    "translate": ("repro.bio.seq", "translate"),
    "FastaRecord": ("repro.bio.fasta", "FastaRecord"),
    "read_fasta": ("repro.bio.fasta", "read_fasta"),
    "write_fasta": ("repro.bio.fasta", "write_fasta"),
    "FastqRecord": ("repro.bio.fastq", "FastqRecord"),
    "read_fastq": ("repro.bio.fastq", "read_fastq"),
    "write_fastq": ("repro.bio.fastq", "write_fastq"),
    "global_align": ("repro.bio.alignment", "global_align"),
    "local_align": ("repro.bio.alignment", "local_align"),
    "overlap_align": ("repro.bio.alignment", "overlap_align"),
    "affine_global": ("repro.bio.affine", "affine_global"),
    "affine_local": ("repro.bio.affine", "affine_local"),
    "affine_overlap": ("repro.bio.affine", "affine_overlap"),
    "find_orfs": ("repro.bio.orf", "find_orfs"),
    "longest_orf": ("repro.bio.orf", "longest_orf"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "CODON_TABLE",
    "reverse_complement",
    "translate",
    "six_frame_translations",
    "FastaRecord",
    "read_fasta",
    "write_fasta",
    "FastqRecord",
    "read_fastq",
    "write_fastq",
    "global_align",
    "local_align",
    "overlap_align",
    "affine_global",
    "affine_local",
    "affine_overlap",
    "find_orfs",
    "longest_orf",
]
