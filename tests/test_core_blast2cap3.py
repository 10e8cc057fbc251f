"""Tests for the blast2cap3 driver at ``jobs=1`` — the original serial
script — on synthetic workloads."""

from dataclasses import replace

import pytest

from repro.core.blast2cap3 import blast2cap3_parallel, merge_cluster
from repro.core.clusters import ProteinCluster
from repro.datagen.transcripts import TranscriptomeSpec
from repro.datagen.workload import generate_blast2cap3_workload


@pytest.fixture(scope="module")
def workload():
    return generate_blast2cap3_workload(
        n_proteins=12,
        spec=TranscriptomeSpec(
            mean_fragments_per_gene=3.0,
            noise_transcripts=4,
            error_rate=0.002,
        ),
        seed=101,
    )


@pytest.fixture(scope="module")
def result(workload):
    return blast2cap3_parallel(workload.transcripts, workload.hits, jobs=1)


class TestSerialBlast2Cap3:
    def test_reduces_transcript_count(self, workload, result):
        # The paper's §II claim: protein-guided merging reduces the
        # sequence count (8-9 % on wheat; our synthetic redundancy is
        # higher, so the reduction is at least a few percent).
        assert result.output_count < result.input_count
        assert result.reduction_fraction > 0.05

    def test_every_input_accounted_exactly_once(self, workload, result):
        input_ids = {t.id for t in workload.transcripts}
        unjoined_ids = {t.id for t in result.unjoined}
        # Members absorbed into contigs:
        merged = input_ids - unjoined_ids
        assert unjoined_ids <= input_ids
        assert result.merged_transcript_count == len(merged)
        assert merged | unjoined_ids == input_ids

    def test_noise_transcripts_pass_through(self, workload, result):
        unjoined_ids = {t.id for t in result.unjoined}
        noise = {t.id for t in workload.transcripts if t.id.startswith("tr_noise")}
        assert noise <= unjoined_ids

    def test_contigs_are_namespaced_by_protein(self, result):
        for contig in result.joined:
            assert ".Contig" in contig.id

    def test_merged_fragments_come_from_same_gene(self, workload, result):
        # No artificially fused sequences: each contig's members all
        # originate from a single gene.
        origin = workload.transcriptome.origin
        for contig in result.joined:
            protein_id = contig.id.split(".Contig")[0]
            # contig ids embed the cluster's protein
            assert protein_id in {p.id for p in workload.proteins}

    def test_cluster_counts_recorded(self, workload, result):
        assert result.cluster_count >= result.mergeable_cluster_count
        assert result.mergeable_cluster_count > 0

    def test_duplicate_transcripts_rejected(self, workload):
        doubled = workload.transcripts + workload.transcripts[:1]
        with pytest.raises(ValueError, match="duplicate"):
            blast2cap3_parallel(doubled, workload.hits, jobs=1)

    def test_empty_inputs(self):
        result = blast2cap3_parallel([], [], jobs=1)
        assert result.output_count == 0
        assert result.reduction_fraction == 0.0


    @pytest.mark.parametrize("mergeable", [True, False])
    def test_alignment_naming_a_missing_transcript_is_one_value_error(
        self, workload, mergeable
    ):
        """Checked once, before clustering: a mergeable cluster used to
        end in ``merge_cluster``'s ``KeyError``, a one-member cluster in
        a bare ``KeyError`` out of the reassembly."""
        first = workload.hits[0].qseqid
        transcripts = [t for t in workload.transcripts if t.id != first]
        hits = list(workload.hits)
        if not mergeable:
            transcripts = workload.transcripts
            hits.append(replace(hits[0], qseqid="ghost", sseqid="lonely"))
        with pytest.raises(ValueError) as info:
            blast2cap3_parallel(transcripts, hits, jobs=1)
        missing = first if mergeable else "ghost"
        assert str(info.value) == (
            f"alignments name transcript {missing!r}, "
            "which is not among the transcripts"
        )

class TestMergeCluster:
    def test_unknown_transcript_raises(self, workload):
        cluster = ProteinCluster("pX", ("missing_a", "missing_b"))
        with pytest.raises(KeyError, match="unknown"):
            merge_cluster(cluster, {t.id: t for t in workload.transcripts})

    def test_fragments_of_one_gene_merge(self, workload):
        # Pick a protein with >= 2 fragments from ground truth.
        sizes = workload.transcriptome.cluster_sizes
        protein_id = next(p for p, n in sizes.items() if n >= 2)
        members = tuple(
            tid
            for tid, origin in workload.transcriptome.origin.items()
            if origin == protein_id
        )
        cluster = ProteinCluster(protein_id, members)
        by_id = {t.id: t for t in workload.transcripts}
        contigs, singlets, merged = merge_cluster(cluster, by_id)
        assert len(contigs) + len(singlets) <= len(members)
        if contigs:
            assert merged
            assert all(c.id.startswith(f"{protein_id}.Contig") for c in contigs)
