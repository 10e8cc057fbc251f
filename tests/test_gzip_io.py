"""Tests for transparent gzip support across the sequence I/O layer."""

import gzip

from repro.bio.fasta import FastaRecord, read_fasta, write_fasta
from repro.bio.fastq import FastqRecord, read_fastq, write_fastq
from repro.blast.tabular import TabularHit, read_tabular, write_tabular
from repro.util.iolib import open_text_auto, write_text_auto


class TestAutoGzip:
    def test_plain_roundtrip(self, tmp_path):
        p = tmp_path / "x.txt"
        write_text_auto(p, "hello")
        with open_text_auto(p) as fh:
            assert fh.read() == "hello"

    def test_gz_roundtrip(self, tmp_path):
        p = tmp_path / "x.txt.gz"
        write_text_auto(p, "compressed hello")
        raw = p.read_bytes()
        assert raw[:2] == b"\x1f\x8b"  # gzip magic
        with open_text_auto(p) as fh:
            assert fh.read() == "compressed hello"

    def test_gz_actually_compresses(self, tmp_path):
        p = tmp_path / "big.txt.gz"
        write_text_auto(p, "A" * 100_000)
        assert p.stat().st_size < 10_000


class TestSequenceFormats:
    def test_fasta_gz_roundtrip(self, tmp_path):
        records = [FastaRecord(id=f"t{i}", seq="ACGT" * 50) for i in range(5)]
        path = tmp_path / "transcripts.fasta.gz"
        assert write_fasta(path, records) == 5
        back = list(read_fasta(path))
        assert [(r.id, r.seq) for r in back] == [
            (r.id, r.seq) for r in records
        ]

    def test_fastq_gz_roundtrip(self, tmp_path):
        records = [
            FastqRecord(id=f"r{i}", seq="ACGT", quality="IIII")
            for i in range(3)
        ]
        path = tmp_path / "reads.fastq.gz"
        assert write_fastq(path, records) == 3
        assert [r.id for r in read_fastq(path)] == ["r0", "r1", "r2"]

    def test_tabular_gz_roundtrip(self, tmp_path):
        hits = [
            TabularHit(
                qseqid=f"t{i}", sseqid="p", pident=99.0, length=100,
                mismatch=1, gapopen=0, qstart=1, qend=300, sstart=1,
                send=100, evalue=1e-30, bitscore=200.0,
            )
            for i in range(4)
        ]
        path = tmp_path / "alignments.out.gz"
        assert write_tabular(path, hits) == 4
        assert list(read_tabular(path)) == hits

    def test_external_gzip_readable(self, tmp_path):
        # A file gzipped by other tooling parses fine.
        path = tmp_path / "ext.fasta.gz"
        with gzip.open(path, "wt") as fh:
            fh.write(">a\nACGT\n")
        (record,) = read_fasta(path)
        assert record.seq == "ACGT"

    def test_blast2cap3_pipeline_on_gz_inputs(self, tmp_path):
        # The whole serial path accepts .gz inputs end to end.
        from repro.blast.tabular import read_tabular as rt
        from repro.core.blast2cap3 import blast2cap3_parallel
        from repro.datagen.workload import generate_blast2cap3_workload

        wl = generate_blast2cap3_workload(n_proteins=4, seed=1)
        t_path = tmp_path / "t.fasta.gz"
        a_path = tmp_path / "a.out.gz"
        write_fasta(t_path, wl.transcripts)
        write_tabular(a_path, wl.hits)
        result = blast2cap3_parallel(read_fasta(t_path), rt(a_path), jobs=1)
        assert result.output_count > 0
