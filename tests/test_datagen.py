"""Tests for the synthetic data generators."""

import random

import pytest

from repro.bio.fastq import quality_to_phred
from repro.bio.seq import is_dna, is_protein, translate
from repro.datagen.proteins import random_protein, random_protein_db
from repro.datagen.reads import ReadSimSpec, simulate_paired_reads
from repro.datagen.transcripts import TranscriptomeSpec, generate_transcriptome
from repro.datagen.workload import generate_blast2cap3_workload, paper_scale


class TestProteins:
    def test_reproducible(self):
        assert random_protein_db(5, seed=3) == random_protein_db(5, seed=3)

    def test_different_seeds_differ(self):
        assert random_protein_db(5, seed=3) != random_protein_db(5, seed=4)

    def test_valid_proteins(self):
        for record in random_protein_db(10, seed=1):
            assert is_protein(record.seq)
            assert "*" not in record.seq

    def test_length_bounds(self):
        for record in random_protein_db(20, seed=2, min_length=50, max_length=60):
            assert 50 <= len(record) <= 60

    def test_validation(self):
        with pytest.raises(ValueError):
            random_protein_db(-1)
        with pytest.raises(ValueError):
            random_protein_db(1, min_length=10, max_length=5)
        with pytest.raises(ValueError):
            random_protein(random.Random(0), 0)


class TestTranscriptome:
    @pytest.fixture(scope="class")
    def generated(self):
        proteins = random_protein_db(8, seed=5)
        spec = TranscriptomeSpec(
            mean_fragments_per_gene=3.0, noise_transcripts=5
        )
        return proteins, generate_transcriptome(proteins, spec, seed=9)

    def test_every_gene_has_fragments(self, generated):
        proteins, result = generated
        assert set(result.cluster_sizes) == {p.id for p in proteins}
        assert all(n >= 1 for n in result.cluster_sizes.values())

    def test_noise_count(self, generated):
        _, result = generated
        noise = [t for t in result.transcripts if t.id.startswith("tr_noise")]
        assert len(noise) == 5

    def test_sequences_are_dna(self, generated):
        _, result = generated
        assert all(is_dna(t.seq) for t in result.transcripts)

    def test_cdna_translates_back_to_protein(self, generated):
        proteins, result = generated
        for protein in proteins:
            assert translate(result.gene_cdna[protein.id]) == protein.seq

    def test_reproducible(self):
        proteins = random_protein_db(4, seed=5)
        a = generate_transcriptome(proteins, seed=1)
        b = generate_transcriptome(proteins, seed=1)
        assert [t.seq for t in a.transcripts] == [t.seq for t in b.transcripts]

    def test_skew_produces_variation(self):
        proteins = random_protein_db(40, seed=6)
        spec = TranscriptomeSpec(mean_fragments_per_gene=4.0, sigma_fragments=0.9)
        result = generate_transcriptome(proteins, spec, seed=11)
        sizes = list(result.cluster_sizes.values())
        assert max(sizes) >= 2 * min(sizes)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TranscriptomeSpec(mean_fragments_per_gene=0)
        with pytest.raises(ValueError):
            TranscriptomeSpec(error_rate=0.9)
        with pytest.raises(ValueError):
            TranscriptomeSpec(fragment_min_fraction=0.9, fragment_max_fraction=0.5)


class TestWorkload:
    def test_oracle_hits_cover_non_noise(self):
        wl = generate_blast2cap3_workload(
            n_proteins=6,
            spec=TranscriptomeSpec(noise_transcripts=3),
            seed=2,
        )
        hit_queries = {h.qseqid for h in wl.hits}
        for t in wl.transcripts:
            if t.id.startswith("tr_noise"):
                assert t.id not in hit_queries
            else:
                assert t.id in hit_queries

    def test_oracle_hits_point_to_origin(self):
        wl = generate_blast2cap3_workload(n_proteins=6, seed=2)
        for h in wl.hits:
            assert wl.transcriptome.origin[h.qseqid] == h.sseqid

    def test_blastx_mode_finds_origins(self):
        wl = generate_blast2cap3_workload(
            n_proteins=4,
            spec=TranscriptomeSpec(
                mean_fragments_per_gene=2.0, error_rate=0.001
            ),
            seed=3,
            alignments="blastx",
        )
        assert wl.hits, "real BLASTX search found nothing"
        # Best hit per transcript should be its true origin almost always.
        best = {}
        for h in wl.hits:
            if h.qseqid not in best or h.evalue < best[h.qseqid].evalue:
                best[h.qseqid] = h
        correct = sum(
            1
            for q, h in best.items()
            if wl.transcriptome.origin.get(q) == h.sseqid
        )
        assert correct / len(best) > 0.9

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown alignments mode"):
            generate_blast2cap3_workload(alignments="psychic")

    def test_paper_scale_constants(self):
        scale = paper_scale()
        assert scale.transcripts == 236_529
        assert scale.alignment_hits == 1_717_454
        assert scale.serial_walltime_s == 360_000.0


class TestReads:
    def test_pair_properties(self):
        template = "".join(
            random.Random(1).choice("ACGT") for _ in range(2000)
        )
        pairs = list(simulate_paired_reads(template, seed=4))
        assert pairs
        for r1, r2 in pairs:
            assert len(r1) == 100 and len(r2) == 100
            assert r1.id.endswith("/1") and r2.id.endswith("/2")

    def test_quality_declines(self):
        template = "".join(
            random.Random(2).choice("ACGT") for _ in range(1500)
        )
        (r1, _), *_ = simulate_paired_reads(template, seed=5)
        scores = quality_to_phred(r1.quality)
        first, last = sum(scores[:20]) / 20, sum(scores[-20:]) / 20
        assert first > last

    def test_coverage_scales_pair_count(self):
        template = "".join(
            random.Random(3).choice("ACGT") for _ in range(3000)
        )
        low = list(simulate_paired_reads(template, ReadSimSpec(coverage=5), seed=6))
        high = list(simulate_paired_reads(template, ReadSimSpec(coverage=20), seed=6))
        assert len(high) > 2 * len(low)

    def test_template_too_short(self):
        with pytest.raises(ValueError, match="shorter"):
            list(simulate_paired_reads("ACGT" * 10))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ReadSimSpec(read_length=5)
        with pytest.raises(ValueError):
            ReadSimSpec(coverage=0)
        with pytest.raises(ValueError):
            ReadSimSpec(fragment_mean=50, read_length=100)
