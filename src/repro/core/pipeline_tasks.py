"""File-level tasks for the Fig. 1 pipeline workflow.

Like :mod:`repro.core.tasks` (the blast2cap3 ovals), these wrap the
pipeline stages as read-files/write-files functions so the same
callables run under the local DAGMan backend. Each function returns a
small count for logging/assertions.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from repro.bio.fasta import FastaRecord, read_fasta, write_fasta
from repro.bio.fastq import read_fastq, write_fastq
from repro.bio.quality import QualityReport, TrimParams, quality_filter
from repro.blast.blastx import BlastXParams, blastx_many
from repro.blast.database import ProteinDatabase
from repro.blast.tabular import read_tabular, write_tabular
from repro.cap3.assembler import Cap3Params, assemble
from repro.core.blast2cap3 import ExecutorKind, blast2cap3_parallel
from repro.core.cache import ResultCache

__all__ = [
    "trim_reads",
    "assemble_reads",
    "reduce_redundancy",
    "blastx_align",
    "blast2cap3_merge",
]


def trim_reads(
    reads_fastq: str | Path,
    out_fastq: str | Path,
    *,
    trim_params: TrimParams = TrimParams(),
) -> int:
    """Preprocessing: quality-trim and filter one read file."""
    report = QualityReport()
    survivors = list(
        quality_filter(read_fastq(reads_fastq), trim_params, report=report)
    )
    write_fastq(out_fastq, survivors)
    return report.passed


def assemble_reads(
    reads_fastq_files: Sequence[str | Path],
    out_fasta: str | Path,
    *,
    cap3_params: Cap3Params = Cap3Params(min_overlap_length=30),
) -> int:
    """Assembly: overlap-assemble the cleaned reads into transcripts."""
    records = []
    for idx, path in enumerate(reads_fastq_files):
        for i, read in enumerate(read_fastq(path)):
            records.append(
                FastaRecord(
                    id=f"f{idx}_r{i}_{read.id.replace('/', '_')}",
                    seq=read.seq,
                )
            )
    result = assemble(records, cap3_params, contig_prefix="asm")
    return write_fasta(out_fasta, result.output_records)


def reduce_redundancy(
    transcripts_fasta: str | Path,
    out_fasta: str | Path,
    *,
    cap3_params: Cap3Params = Cap3Params(),
) -> int:
    """Post-processing: merge redundant transcripts."""
    records = list(read_fasta(transcripts_fasta))
    result = assemble(records, cap3_params, contig_prefix="rr")
    return write_fasta(out_fasta, result.output_records)


def blastx_align(
    transcripts_fasta: str | Path,
    proteins_fasta: str | Path,
    out_tabular: str | Path,
    *,
    blast_params: BlastXParams = BlastXParams(),
) -> int:
    """Alignment: the real BLASTX-like translated search."""
    database = ProteinDatabase.from_fasta(proteins_fasta)
    hits = list(
        blastx_many(read_fasta(transcripts_fasta), database, blast_params)
    )
    return write_tabular(out_tabular, hits)


def blast2cap3_merge(
    transcripts_fasta: str | Path,
    alignments_tabular: str | Path,
    out_fasta: str | Path,
    *,
    cap3_params: Cap3Params = Cap3Params(),
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    executor: ExecutorKind = "process",
) -> int:
    """Post-processing: protein-guided merging (blast2cap3).

    ``jobs`` > 1 fans the per-cluster CAP3 merges out over a process
    pool (``executor="thread"`` for deterministic in-process testing);
    ``cache_dir`` persists per-cluster results content-addressed, so a
    rescue-resubmitted or re-planned task recomputes only what changed.
    Output is identical for every ``jobs``/``cache_dir`` combination.
    """
    result = blast2cap3_parallel(
        read_fasta(transcripts_fasta),
        read_tabular(alignments_tabular),
        jobs=jobs,
        cap3_params=cap3_params,
        cache=ResultCache(cache_dir) if cache_dir is not None else None,
        executor=executor,
    )
    return write_fasta(out_fasta, result.output_records)
