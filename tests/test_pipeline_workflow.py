"""Tests for the Fig. 1 pipeline-as-a-workflow."""

import pytest

from repro.bio.fasta import read_fasta, write_fasta
from repro.bio.fastq import write_fastq
from repro.core.pipeline_workflow import (
    PIPELINE_FINAL_LFN,
    build_pipeline_adag,
    run_pipeline_local,
)
from repro.datagen.proteins import random_protein_db
from repro.datagen.reads import ReadSimSpec, simulate_paired_reads
from repro.datagen.transcripts import TranscriptomeSpec, generate_transcriptome
from repro.lint import lint


class TestPipelineAdag:
    def test_structure(self):
        adag = build_pipeline_adag(4)
        assert len(adag) == 4 + 4  # 4 trims + 4 downstream stages
        edges = adag.edges()
        for lane in range(1, 5):
            assert (f"trim_{lane}", "assemble") in edges
        assert ("assemble", "reduce_redundancy") in edges
        assert ("reduce_redundancy", "blastx_align") in edges
        assert ("reduce_redundancy", "blast2cap3_merge") in edges
        assert ("blastx_align", "blast2cap3_merge") in edges

    def test_external_inputs(self):
        adag = build_pipeline_adag(2)
        externals = {f.name for f in adag.external_inputs()}
        assert externals == {"reads_1.fastq", "reads_2.fastq",
                             "proteins.fasta"}

    def test_final_output(self):
        adag = build_pipeline_adag(2)
        assert [f.name for f in adag.final_outputs()] == [PIPELINE_FINAL_LFN]

    def test_validates_clean(self):
        assert lint(build_pipeline_adag(3)).findings == []

    def test_invalid_lanes(self):
        with pytest.raises(ValueError):
            build_pipeline_adag(0)

    def test_runtime_annotations(self):
        adag = build_pipeline_adag(2, runtimes={"trim_reads": 120.0})
        assert adag.jobs["trim_1"].runtime == 120.0


@pytest.fixture(scope="module")
def staged_pipeline(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipeline")
    proteins = random_protein_db(3, seed=71, min_length=140, max_length=180)
    transcriptome = generate_transcriptome(
        proteins,
        TranscriptomeSpec(
            mean_fragments_per_gene=1.0, sigma_fragments=0.0,
            fragment_min_fraction=1.0, fragment_max_fraction=1.0,
            utr_length=0, error_rate=0.0, reverse_fraction=0.0,
        ),
        seed=72,
    )
    lanes = []
    for lane, record in enumerate(transcriptome.transcripts, start=1):
        reads = []
        for r1, r2 in simulate_paired_reads(
            record.seq,
            ReadSimSpec(coverage=10.0, fragment_mean=250, fragment_sd=15),
            seed=lane,
            id_prefix=f"L{lane}",
        ):
            reads.extend((r1, r2))
        path = tmp / f"lane_{lane}.fastq"
        write_fastq(path, reads)
        lanes.append(path)
    proteins_path = tmp / "proteins.fasta"
    write_fasta(proteins_path, proteins)
    return tmp, lanes, proteins_path, proteins, transcriptome


class TestPipelineLocalRun:
    def test_end_to_end(self, staged_pipeline, tmp_path):
        tmp, lanes, proteins_path, proteins, transcriptome = staged_pipeline
        result = run_pipeline_local(
            lanes, proteins_path, tmp_path / "work", max_workers=2
        )
        assert result.dagman.success, result.dagman.failed_jobs
        finals = list(read_fasta(result.final_output))
        assert finals
        # A well-behaved run recovers roughly one sequence per gene.
        assert len(finals) <= 2 * len(transcriptome.transcripts)

    def test_trims_ran_in_parallel_under_dagman(self, staged_pipeline,
                                                tmp_path):
        tmp, lanes, proteins_path, *_ = staged_pipeline
        result = run_pipeline_local(
            lanes, proteins_path, tmp_path / "work2", max_workers=2
        )
        trims = [
            a for a in result.dagman.trace.successful()
            if a.transformation == "trim_reads"
        ]
        assert len(trims) == len(lanes)
        # At least two trims overlapped in time.
        trims.sort(key=lambda a: a.exec_start)
        assert any(
            trims[i + 1].exec_start < trims[i].exec_end
            for i in range(len(trims) - 1)
        )

    def test_intermediate_artifacts_exist(self, staged_pipeline, tmp_path):
        tmp, lanes, proteins_path, *_ = staged_pipeline
        work = tmp_path / "work3"
        result = run_pipeline_local(lanes, proteins_path, work,
                                    max_workers=2)
        assert result.dagman.success
        assert (work / "transcripts.fasta").exists()
        assert (work / "alignments.out").exists()
