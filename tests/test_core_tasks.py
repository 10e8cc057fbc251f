"""Tests for the file-level workflow tasks, including parity between the
serial driver and the decomposed task pipeline (the workflow's whole
correctness claim: same output, different execution structure)."""

import pytest

from repro.bio.fasta import read_fasta, write_fasta
from repro.blast.tabular import read_tabular, write_tabular
from repro.core.blast2cap3 import blast2cap3_parallel
from repro.core.tasks import (
    TASK_REGISTRY,
    concat_final,
    create_alignment_list,
    create_transcript_list,
    merge_joined,
    merge_unjoined,
    run_cap3,
    split_alignments,
)
from repro.datagen.transcripts import TranscriptomeSpec
from repro.datagen.workload import generate_blast2cap3_workload


@pytest.fixture(scope="module")
def workload():
    return generate_blast2cap3_workload(
        n_proteins=10,
        spec=TranscriptomeSpec(
            mean_fragments_per_gene=3.0, noise_transcripts=3, error_rate=0.002
        ),
        seed=77,
    )


@pytest.fixture()
def staged(tmp_path, workload):
    transcripts = tmp_path / "transcripts.fasta"
    alignments = tmp_path / "alignments.out"
    write_fasta(transcripts, workload.transcripts)
    write_tabular(alignments, workload.hits)
    return tmp_path, transcripts, alignments


def run_pipeline(tmp_path, transcripts, alignments, n):
    """Execute the Fig. 2 DAG's tasks in dependency order, by hand."""
    tdict = tmp_path / "transcripts_dict.txt"
    alist = tmp_path / "alignments.list"
    create_transcript_list(transcripts, tdict)
    create_alignment_list(alignments, alist)

    parts = [tmp_path / f"protein_{i + 1}.txt" for i in range(n)]
    split_alignments(alignments, parts)

    joined_parts, merged_parts = [], []
    for i, part in enumerate(parts):
        joined = tmp_path / f"joined_{i + 1}.fasta"
        merged = tmp_path / f"merged_{i + 1}.txt"
        run_cap3(tdict, part, joined, merged)
        joined_parts.append(joined)
        merged_parts.append(merged)

    joined_all = tmp_path / "joined.fasta"
    unjoined_all = tmp_path / "unjoined.fasta"
    final = tmp_path / "merged_transcriptome.fasta"
    merge_joined(joined_parts, joined_all)
    merge_unjoined(tdict, merged_parts, unjoined_all)
    concat_final(joined_all, unjoined_all, final)
    return final


class TestIndividualTasks:
    def test_create_transcript_list_roundtrips(self, staged, workload):
        tmp_path, transcripts, _ = staged
        out = tmp_path / "transcripts_dict.txt"
        n = create_transcript_list(transcripts, out)
        assert n == len(workload.transcripts)
        assert {r.id for r in read_fasta(out)} == {
            t.id for t in workload.transcripts
        }

    def test_create_alignment_list_unique_ids(self, staged, workload):
        tmp_path, _, alignments = staged
        out = tmp_path / "alignments.list"
        n = create_alignment_list(alignments, out)
        ids = out.read_text().split()
        assert len(ids) == n == len(set(ids))
        assert set(ids) == {h.qseqid for h in workload.hits}

    def test_split_produces_n_valid_tabular_files(self, staged):
        tmp_path, _, alignments = staged
        parts = [tmp_path / f"p{i}.txt" for i in range(4)]
        counts = split_alignments(alignments, parts)
        assert len(counts) == 4
        for part in parts:
            list(read_tabular(part))  # must parse cleanly

    def test_split_keeps_clusters_whole(self, staged):
        tmp_path, _, alignments = staged
        parts = [tmp_path / f"p{i}.txt" for i in range(5)]
        split_alignments(alignments, parts)
        protein_to_part = {}
        for i, part in enumerate(parts):
            for hit in read_tabular(part):
                previous = protein_to_part.setdefault(hit.sseqid, i)
                assert previous == i, "cluster split across partitions"

    def test_run_cap3_merges_something(self, staged):
        tmp_path, transcripts, alignments = staged
        tdict = tmp_path / "tdict.txt"
        create_transcript_list(transcripts, tdict)
        part = tmp_path / "p0.txt"
        split_alignments(alignments, [part])  # everything in one part
        joined = tmp_path / "joined.fasta"
        merged = tmp_path / "merged.txt"
        n_contigs, n_merged = run_cap3(tdict, part, joined, merged)
        assert n_contigs > 0
        assert n_merged >= 2 * n_contigs  # each contig absorbed >= 2 reads

    def test_registry_complete(self):
        assert set(TASK_REGISTRY) == {
            "create_transcript_list",
            "create_alignment_list",
            "split_alignments",
            "run_cap3",
            "merge_joined",
            "merge_unjoined",
            "concat_final",
        }


class TestPipelineParity:
    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_workflow_output_matches_serial(self, staged, workload, n):
        """The decomposed pipeline must produce the same final assembly
        as the serial script, for any partition count n — this is the
        invariant that makes the paper's parallelisation valid."""
        tmp_path, transcripts, alignments = staged
        final = run_pipeline(tmp_path, transcripts, alignments, n)
        workflow_records = {
            (r.id, r.seq) for r in read_fasta(final)
        }
        serial = blast2cap3_parallel(workload.transcripts, workload.hits, jobs=1)
        serial_records = {(r.id, r.seq) for r in serial.output_records}
        assert workflow_records == serial_records

    def test_output_count_independent_of_n(self, staged):
        tmp_path, transcripts, alignments = staged
        counts = []
        for n in (2, 5):
            sub = tmp_path / f"n{n}"
            sub.mkdir()
            final = run_pipeline(sub, transcripts, alignments, n)
            counts.append(sum(1 for _ in read_fasta(final)))
        assert counts[0] == counts[1]
