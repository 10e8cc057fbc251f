"""Fig. 1 — the general transcriptome assembly pipeline, for real.

Fig. 1 is structural (preprocess → assemble → post-process); its
reproduction is the pipeline executing end to end with each stage doing
its job: preprocessing drops bad reads, assembly collapses reads into
transcript-length contigs, post-processing removes redundancy.
"""

import random
import zlib

import pytest

from conftest import write_result

from repro.bio.fastq import FastqRecord, phred_to_quality
from repro.core.pipeline import run_transcriptome_pipeline
from repro.datagen.proteins import random_protein_db
from repro.datagen.reads import ReadSimSpec, simulate_paired_reads
from repro.datagen.transcripts import TranscriptomeSpec, generate_transcriptome
from repro.util.tables import Table


@pytest.fixture(scope="module")
def pipeline_run():
    proteins = random_protein_db(3, seed=31, min_length=150, max_length=200)
    transcriptome = generate_transcriptome(
        proteins,
        TranscriptomeSpec(
            mean_fragments_per_gene=1.0, sigma_fragments=0.0,
            fragment_min_fraction=1.0, fragment_max_fraction=1.0,
            utr_length=0, error_rate=0.0, reverse_fraction=0.0,
        ),
        seed=32,
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
    # Add junk reads the preprocessing stage must reject.
    rng = random.Random(33)
    for i in range(20):
        seq = "".join(rng.choice("ACGT") for _ in range(100))
        reads.append(
            FastqRecord(
                id=f"junk{i}",
                seq=seq,
                quality=phred_to_quality([3] * 100),
            )
        )
    result = run_transcriptome_pipeline(reads, proteins)
    return proteins, transcriptome, reads, result


def test_fig1_pipeline_stages(pipeline_run, benchmark):
    proteins, transcriptome, reads, result = pipeline_run

    table = Table(
        ["stage", "in", "out", "seconds"],
        title="Fig. 1 — pipeline stage accounting (real execution)",
    )
    for stage in result.stages:
        table.add_row(stage.name, stage.input_count, stage.output_count,
                      round(stage.seconds, 2))
    write_result("fig1_pipeline", table.render())

    # Preprocessing rejected the junk.
    assert result.quality.dropped >= 20
    # Assembly collapsed reads dramatically.
    assemble_stage = result.stages[1]
    assert assemble_stage.output_count < 0.2 * assemble_stage.input_count
    # Contigs reach transcript scale.
    assert result.n50 > 300
    # Post-processing never increases the sequence count.
    for stage in result.stages[2:]:
        assert stage.output_count <= stage.input_count

    # benchmark: preprocessing throughput (the stage every read passes).
    from repro.bio.quality import quality_filter

    benchmark(lambda: sum(1 for _ in quality_filter(reads)))
