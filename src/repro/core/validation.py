"""Assembly validation — the Fig. 1 pipeline's final checkpoint.

Quantifies an assembly along the axes transcriptome papers report:

* **contiguity** — sequence count, total bases, N50, length stats;
* **coding potential** — fraction of sequences carrying a long ORF;
* **reference recovery** — fraction of the reference proteins covered
  by some transcript's BLASTX hit (needs a protein database).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean
from typing import Sequence

from repro.bio.fasta import FastaRecord
from repro.bio.orf import longest_orf
from repro.blast.blastx import BlastXParams, blastx_many
from repro.blast.database import ProteinDatabase
from repro.core.pipeline import n50
from repro.util.tables import Table

__all__ = ["ValidationReport", "validate_assembly", "render_validation"]


@dataclass
class ValidationReport:
    """The per-assembly scorecard."""

    sequence_count: int
    total_bases: int
    n50: int
    mean_length: float
    max_length: int
    orf_fraction: float = 0.0
    #: protein id -> best coverage fraction achieved by any transcript
    reference_coverage: dict[str, float] = field(default_factory=dict)
    reference_recovered: float = 0.0

    @property
    def references_hit(self) -> int:
        return sum(1 for c in self.reference_coverage.values() if c > 0)


def validate_assembly(
    transcripts: Sequence[FastaRecord],
    *,
    protein_db: Sequence[FastaRecord] | None = None,
    min_orf_aa: int = 50,
    recovery_coverage: float = 0.7,
    blast_params: BlastXParams = BlastXParams(),
) -> ValidationReport:
    """Score an assembly; all arguments beyond the transcripts are
    optional refinements."""
    if not transcripts:
        return ValidationReport(
            sequence_count=0, total_bases=0, n50=0, mean_length=0.0,
            max_length=0,
        )
    lengths = [len(t) for t in transcripts]
    report = ValidationReport(
        sequence_count=len(transcripts),
        total_bases=sum(lengths),
        n50=n50(lengths),
        mean_length=mean(lengths),
        max_length=max(lengths),
    )

    with_orf = sum(
        1
        for t in transcripts
        if longest_orf(t.seq, min_length_aa=min_orf_aa, require_start=False)
        is not None
    )
    report.orf_fraction = with_orf / len(transcripts)

    if protein_db:
        database = ProteinDatabase(records=list(protein_db))
        coverage = {p.id: 0.0 for p in protein_db}
        for hit in blastx_many(transcripts, database, blast_params):
            span = abs(hit.send - hit.sstart) + 1
            protein_len = len(database[hit.sseqid].seq)
            coverage[hit.sseqid] = max(
                coverage[hit.sseqid], span / protein_len
            )
        report.reference_coverage = coverage
        report.reference_recovered = sum(
            1 for c in coverage.values() if c >= recovery_coverage
        ) / len(coverage)
    return report


def render_validation(report: ValidationReport, *, title: str = "assembly") -> str:
    """Monospace scorecard."""
    table = Table(["metric", "value"], title=f"Validation — {title}")
    table.add_row("sequences", report.sequence_count)
    table.add_row("total bases", report.total_bases)
    table.add_row("N50 (bp)", report.n50)
    table.add_row("mean length (bp)", round(report.mean_length, 1))
    table.add_row("max length (bp)", report.max_length)
    table.add_row("with ORF", f"{100 * report.orf_fraction:.1f}%")
    if report.reference_coverage:
        table.add_row(
            "reference proteins hit",
            f"{report.references_hit}/{len(report.reference_coverage)}",
        )
        table.add_row(
            "reference recovered (>=70% cov)",
            f"{100 * report.reference_recovered:.1f}%",
        )
    return table.render()
