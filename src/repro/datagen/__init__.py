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
