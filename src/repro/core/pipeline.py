"""The general transcriptome assembly pipeline of the paper's Fig. 1.

Preprocessing (cleaning/filtering) → assembly → post-processing
(redundancy reduction, protein-guided merging, validation). Tool
substitutions, per DESIGN.md: quality trimming stands in for
Sickle/Scythe, our OLC assembler for the de-novo assembler, and
blast2cap3 (with our BLASTX + CAP3) for the post-processing merge.

Each stage reports its input/output counts and duration, which is what
``benchmarks/bench_fig1_pipeline.py`` prints as the figure's table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.bio.fasta import FastaRecord
from repro.bio.fastq import FastqRecord
from repro.bio.quality import QualityReport, TrimParams, quality_filter
from repro.blast.blastx import BlastXParams
from repro.blast.database import ProteinDatabase
from repro.cap3.assembler import Cap3Params, assemble
from repro.core.blast2cap3 import Blast2Cap3Result, ExecutorKind, blast2cap3_parallel
from repro.core.cache import ResultCache, cached_blastx_hits

__all__ = [
    "PipelineConfig",
    "StageReport",
    "PipelineResult",
    "n50",
    "run_transcriptome_pipeline",
]


def n50(lengths: Iterable[int]) -> int:
    """The standard assembly contiguity statistic.

    >>> n50([2, 2, 2, 3, 3, 4, 8, 8])
    8
    """
    sizes = sorted(lengths, reverse=True)
    total = sum(sizes)
    if total == 0:
        return 0
    running = 0
    for size in sizes:
        running += size
        if 2 * running >= total:
            return size
    return sizes[-1]  # pragma: no cover - loop always returns


@dataclass(frozen=True)
class PipelineConfig:
    """Per-stage knobs.

    ``jobs`` is the protein-guided merge's worker count
    (:func:`~repro.core.blast2cap3.blast2cap3_parallel`; 1 is the
    original serial script); ``cache`` threads a content-addressed
    result store under both the BLASTX stage (hit batches) and the CAP3
    merges, so a re-run over unchanged inputs recomputes nothing.
    """

    trim: TrimParams = TrimParams()
    assembly: Cap3Params = Cap3Params(min_overlap_length=30)
    merge: Cap3Params = Cap3Params()
    blast: BlastXParams = BlastXParams()
    protein_guided: bool = True
    jobs: int = 1
    executor: ExecutorKind = "process"
    cache: ResultCache | None = None


@dataclass(frozen=True)
class StageReport:
    """One pipeline stage's accounting."""

    name: str
    input_count: int
    output_count: int
    seconds: float

    def __post_init__(self) -> None:
        if self.input_count < 0 or self.output_count < 0:
            raise ValueError("counts must be >= 0")


@dataclass
class PipelineResult:
    """Final transcripts plus the per-stage report."""

    transcripts: list[FastaRecord]
    stages: list[StageReport] = field(default_factory=list)
    quality: QualityReport | None = None
    blast2cap3: Blast2Cap3Result | None = None

    @property
    def n50(self) -> int:
        return n50(len(t) for t in self.transcripts)


def run_transcriptome_pipeline(
    reads: Sequence[FastqRecord],
    protein_db: Sequence[FastaRecord] | None = None,
    config: PipelineConfig = PipelineConfig(),
) -> PipelineResult:
    """Run the Fig. 1 pipeline end to end at laptop scale.

    ``protein_db`` enables the protein-guided post-processing stage;
    without it the pipeline stops after redundancy reduction.
    """
    stages: list[StageReport] = []

    # -- preprocessing: data cleaning and filtering ----------------------
    t0 = time.perf_counter()
    quality = QualityReport()
    cleaned = list(quality_filter(reads, config.trim, report=quality))
    stages.append(
        StageReport(
            name="preprocess(quality-trim+filter)",
            input_count=len(reads),
            output_count=len(cleaned),
            seconds=time.perf_counter() - t0,
        )
    )

    # -- assembly: overlap assembly of the cleaned reads ------------------
    t0 = time.perf_counter()
    read_records = [
        FastaRecord(id=f"r{i}_{r.id.replace('/', '_')}", seq=r.seq)
        for i, r in enumerate(cleaned)
    ]
    assembly = assemble(read_records, config.assembly, contig_prefix="asm")
    transcripts = assembly.output_records
    stages.append(
        StageReport(
            name="assemble(overlap-layout-consensus)",
            input_count=len(read_records),
            output_count=len(transcripts),
            seconds=time.perf_counter() - t0,
        )
    )

    # -- post-processing: redundancy reduction ----------------------------
    t0 = time.perf_counter()
    reduced = assemble(transcripts, config.merge, contig_prefix="rr")
    transcripts = reduced.output_records
    stages.append(
        StageReport(
            name="postprocess(redundancy-reduction)",
            input_count=stages[-1].output_count,
            output_count=len(transcripts),
            seconds=time.perf_counter() - t0,
        )
    )

    b2c3_result: Blast2Cap3Result | None = None
    if config.protein_guided and protein_db:
        # -- post-processing: protein-guided merging (blast2cap3) --------
        t0 = time.perf_counter()
        database = ProteinDatabase(records=list(protein_db))
        hits = cached_blastx_hits(
            config.cache, transcripts, database, config.blast
        )
        b2c3_result = blast2cap3_parallel(
            transcripts,
            hits,
            jobs=config.jobs,
            executor=config.executor,
            cache=config.cache,
        )
        transcripts = b2c3_result.output_records
        stages.append(
            StageReport(
                name="postprocess(blast2cap3)",
                input_count=b2c3_result.input_count,
                output_count=len(transcripts),
                seconds=time.perf_counter() - t0,
            )
        )

    return PipelineResult(
        transcripts=transcripts,
        stages=stages,
        quality=quality,
        blast2cap3=b2c3_result,
    )
