"""Bundled blast2cap3 workloads and the paper-scale descriptor.

``generate_blast2cap3_workload`` produces the two inputs the paper's
workflow consumes — a transcript set and a BLASTX tabular alignment
file — at laptop scale. Alignments can come from actually running the
:mod:`repro.blast` search ("blastx" mode, exercises the whole stack) or
be synthesised from the generator's ground truth ("oracle" mode, fast;
used where the test subject is downstream of BLAST).

``paper_scale`` records the sizes of the original inputs so the
performance models and benchmarks can reason about the real workload
without recomputing 100 CPU-hours.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Literal

from repro.bio.fasta import FastaRecord
from repro.blast.blastx import BlastXParams, blastx_many
from repro.blast.database import ProteinDatabase
from repro.blast.tabular import TabularHit
from repro.datagen.proteins import random_protein_db
from repro.datagen.transcripts import (
    Transcriptome,
    TranscriptomeSpec,
    generate_transcriptome,
)

__all__ = [
    "Blast2Cap3Workload",
    "generate_blast2cap3_workload",
    "PaperScale",
    "paper_scale",
]


@dataclass
class Blast2Cap3Workload:
    """Everything a blast2cap3 run needs, plus ground truth."""

    proteins: list[FastaRecord]
    transcriptome: Transcriptome
    hits: list[TabularHit]

    @property
    def transcripts(self) -> list[FastaRecord]:
        return self.transcriptome.transcripts


def _oracle_hits(
    transcriptome: Transcriptome,
    proteins: list[FastaRecord],
    *,
    seed: int,
) -> list[TabularHit]:
    """Synthesise plausible tabular hits from the generator ground truth."""
    rng = random.Random(seed ^ 0x5EED)
    by_id = {p.id: p for p in proteins}
    hits = []
    for record in transcriptome.transcripts:
        protein_id = transcriptome.origin.get(record.id)
        if protein_id is None:
            continue  # noise transcript: no hit
        protein = by_id[protein_id]
        aln_len = max(30, len(record.seq) // 3 - rng.randint(0, 10))
        aln_len = min(aln_len, len(protein.seq))
        sstart = rng.randint(1, max(1, len(protein.seq) - aln_len + 1))
        pident = 100.0 - rng.uniform(0.0, 3.0)
        mismatch = int(aln_len * (100.0 - pident) / 100.0)
        bitscore = 2.0 * aln_len - mismatch
        hits.append(
            TabularHit(
                qseqid=record.id,
                sseqid=protein_id,
                pident=pident,
                length=aln_len,
                mismatch=mismatch,
                gapopen=0,
                qstart=1,
                qend=3 * aln_len,
                sstart=sstart,
                send=sstart + aln_len - 1,
                evalue=10.0 ** -rng.uniform(20, 120),
                bitscore=bitscore,
            )
        )
    return hits


def generate_blast2cap3_workload(
    *,
    n_proteins: int = 20,
    spec: TranscriptomeSpec = TranscriptomeSpec(),
    seed: int = 0,
    alignments: Literal["oracle", "blastx"] = "oracle",
    blast_params: BlastXParams | None = None,
) -> Blast2Cap3Workload:
    """Generate a complete laptop-scale blast2cap3 workload."""
    proteins = random_protein_db(n_proteins, seed=seed)
    transcriptome = generate_transcriptome(proteins, spec, seed=seed + 1)

    if alignments == "oracle":
        hits = _oracle_hits(transcriptome, proteins, seed=seed)
    elif alignments == "blastx":
        database = ProteinDatabase(records=proteins)
        params = blast_params or BlastXParams()
        hits = list(blastx_many(transcriptome.transcripts, database, params))
    else:
        raise ValueError(f"unknown alignments mode: {alignments!r}")
    return Blast2Cap3Workload(
        proteins=proteins, transcriptome=transcriptome, hits=hits
    )


@dataclass(frozen=True)
class PaperScale:
    """The original experiment's input scale (paper §V-A/§V-B)."""

    transcripts: int = 236_529
    transcripts_bytes: int = 404_000_000
    alignment_hits: int = 1_717_454
    alignments_bytes: int = 155_000_000
    serial_walltime_s: float = 360_000.0  # "the running time was 100 hours"
    cluster_counts: tuple[int, ...] = (10, 100, 300, 500)


def paper_scale() -> PaperScale:
    """The paper's workload descriptor (a singleton value object)."""
    return PaperScale()
