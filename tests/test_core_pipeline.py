"""Tests for the Fig. 1 transcriptome assembly pipeline."""

import zlib

import pytest

from repro.cap3.assembler import Cap3Params
from repro.core import pipeline as pipeline_module
from repro.core.pipeline import (
    PipelineConfig,
    StageReport,
    n50,
    run_transcriptome_pipeline,
)
from repro.datagen.proteins import random_protein_db
from repro.datagen.reads import ReadSimSpec, simulate_paired_reads
from repro.datagen.transcripts import TranscriptomeSpec, generate_transcriptome


class TestN50:
    def test_known_value(self):
        assert n50([2, 2, 2, 3, 3, 4, 8, 8]) == 8

    def test_single(self):
        assert n50([100]) == 100

    def test_empty(self):
        assert n50([]) == 0

    def test_uniform(self):
        assert n50([5, 5, 5, 5]) == 5


@pytest.fixture(scope="module")
def pipeline_inputs():
    proteins = random_protein_db(3, seed=21, min_length=150, max_length=200)
    transcriptome = generate_transcriptome(
        proteins,
        TranscriptomeSpec(mean_fragments_per_gene=1.0, sigma_fragments=0.0,
                          error_rate=0.0, reverse_fraction=0.0,
                          utr_length=0,
                          fragment_min_fraction=1.0,
                          fragment_max_fraction=1.0),
        seed=22,
    )
    reads = []
    for record in transcriptome.transcripts:
        for r1, r2 in simulate_paired_reads(
            record.seq,
            ReadSimSpec(coverage=12.0, fragment_mean=250, fragment_sd=15),
            seed=zlib.crc32(record.id.encode()),
            id_prefix=record.id,
        ):
            reads.extend((r1, r2))
    return proteins, transcriptome, reads


@pytest.fixture(scope="module")
def shared_assembly():
    """Each distinct input is assembled once for the whole module: the
    three pipeline runs here (with and without the protein-guided
    stage) clean the same reads and reduce the same contigs, and each
    assembly of them otherwise costs seconds. Every run still cleans,
    dispatches and reports every stage; an input or parameter set not
    seen before is assembled for real."""
    runs: dict = {}
    real = pipeline_module.assemble

    def assemble(records, params=Cap3Params(), *, contig_prefix="Contig"):
        records = list(records)
        key = (tuple((r.id, r.seq) for r in records), params, contig_prefix)
        if key not in runs:
            runs[key] = real(records, params, contig_prefix=contig_prefix)
        return runs[key]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline_module, "assemble", assemble)
        yield runs


@pytest.fixture(scope="module")
def pipeline_result(pipeline_inputs, shared_assembly):
    """The default-configuration run the read-only tests share."""
    proteins, _, reads = pipeline_inputs
    return run_transcriptome_pipeline(reads, proteins)


class TestPipeline:
    def test_stage_sequence(self, pipeline_result):
        names = [s.name for s in pipeline_result.stages]
        assert names == [
            "preprocess(quality-trim+filter)",
            "assemble(overlap-layout-consensus)",
            "postprocess(redundancy-reduction)",
            "postprocess(blast2cap3)",
        ]

    def test_assembly_reduces_sequence_count(self, pipeline_result):
        assemble_stage = pipeline_result.stages[1]
        assert assemble_stage.output_count < assemble_stage.input_count

    def test_contigs_longer_than_reads(self, pipeline_result):
        assert pipeline_result.n50 > 100  # reads are 100 bp

    def test_quality_report_populated(self, pipeline_inputs, pipeline_result):
        _, _, reads = pipeline_inputs
        assert pipeline_result.quality is not None
        assert pipeline_result.quality.total == len(reads)
        assert pipeline_result.quality.passed > 0

    def test_without_proteins_skips_blast2cap3(self, pipeline_inputs, shared_assembly):
        _, _, reads = pipeline_inputs
        result = run_transcriptome_pipeline(reads, protein_db=None)
        assert len(result.stages) == 3
        assert result.blast2cap3 is None

    def test_protein_guided_flag(self, pipeline_inputs, shared_assembly):
        proteins, _, reads = pipeline_inputs
        config = PipelineConfig(protein_guided=False)
        result = run_transcriptome_pipeline(reads, proteins, config)
        assert len(result.stages) == 3

    def test_stage_report_validation(self):
        with pytest.raises(ValueError):
            StageReport(name="x", input_count=-1, output_count=0, seconds=0.0)

    def test_final_transcripts_nonempty(self, pipeline_result):
        assert pipeline_result.transcripts
        assert all(len(t.seq) > 0 for t in pipeline_result.transcripts)
