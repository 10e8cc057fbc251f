"""Sequence substrate: the Biopython-equivalent layer blast2cap3 needs.

Provides DNA/protein sequence primitives (:mod:`repro.bio.seq`),
FASTA I/O (:mod:`repro.bio.fasta`), FASTQ records
(:mod:`repro.bio.fastq`),
read quality processing for the preprocessing pipeline stage
(:mod:`repro.bio.quality`), substitution matrices
(:mod:`repro.bio.matrices`), pairwise alignment kernels
(:mod:`repro.bio.alignment`), k-mer indexing (:mod:`repro.bio.kmer`),
and Karlin–Altschul alignment statistics (:mod:`repro.bio.stats`).
"""
