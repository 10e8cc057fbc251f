"""Tests for FASTA I/O round-trips and error handling, and FASTQ records."""

import io

import pytest
from hypothesis import given, strategies as st

from repro.bio.fasta import FastaRecord, read_fasta, write_fasta
from repro.bio.fastq import FastqRecord, phred_to_quality, quality_to_phred

ids = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
    min_size=1,
    max_size=12,
)
dna = st.text(alphabet="ACGTN", max_size=300)


class TestFastaRecord:
    def test_basic(self):
        r = FastaRecord(id="t1", seq="ACGT", description="t1 wheat contig")
        assert len(r) == 4

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            FastaRecord(id="", seq="ACGT")

    def test_whitespace_id_rejected(self):
        with pytest.raises(ValueError):
            FastaRecord(id="a b", seq="ACGT")

    def test_format_wraps_long_sequences(self):
        r = FastaRecord(id="t", seq="A" * 150)
        lines = r.format().splitlines()
        assert lines[0] == ">t"
        assert len(lines[1]) == 70
        assert "".join(lines[1:]) == "A" * 150


class TestFastaIO:
    def test_read_simple(self):
        text = ">t1 first\nACGT\nACGT\n>t2\nGGGG\n"
        records = list(read_fasta(io.StringIO(text)))
        assert [r.id for r in records] == ["t1", "t2"]
        assert records[0].seq == "ACGTACGT"
        assert records[0].description == "t1 first"

    def test_blank_lines_ignored(self):
        text = "\n>t1\nAC\n\nGT\n\n"
        (record,) = read_fasta(io.StringIO(text))
        assert record.seq == "ACGT"

    def test_body_before_header_rejected(self):
        with pytest.raises(ValueError, match="before any FASTA header"):
            list(read_fasta(io.StringIO("ACGT\n>t1\nAC\n")))

    def test_empty_header_rejected(self):
        with pytest.raises(ValueError, match="empty FASTA header"):
            list(read_fasta(io.StringIO(">\nACGT\n")))

    def test_empty_file(self):
        assert list(read_fasta(io.StringIO(""))) == []

    def test_write_to_path_atomic(self, tmp_path):
        path = tmp_path / "out.fasta"
        n = write_fasta(path, [FastaRecord(id="a", seq="ACGT")])
        assert n == 1
        assert path.read_text().startswith(">a\n")

    @given(st.lists(st.tuples(ids, dna), max_size=20, unique_by=lambda t: t[0]))
    def test_roundtrip(self, items):
        records = [FastaRecord(id=i, seq=s) for i, s in items]
        buf = io.StringIO()
        write_fasta(buf, records)
        buf.seek(0)
        back = list(read_fasta(buf))
        assert [(r.id, r.seq) for r in back] == [(r.id, r.seq) for r in records]

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "t.fasta"
        records = [FastaRecord(id=f"t{i}", seq="ACGT" * i) for i in range(1, 5)]
        write_fasta(path, records)
        assert [r.id for r in read_fasta(path)] == ["t1", "t2", "t3", "t4"]


class TestPhred:
    def test_roundtrip_known(self):
        assert phred_to_quality([0, 40]) == "!I"
        assert quality_to_phred("!I") == [0, 40]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            phred_to_quality([94])
        with pytest.raises(ValueError):
            quality_to_phred(" ")  # ord 32 < offset 33

    @given(st.lists(st.integers(min_value=0, max_value=93), max_size=100))
    def test_roundtrip(self, scores):
        assert quality_to_phred(phred_to_quality(scores)) == scores


class TestFastqIO:
    def test_record_validates_lengths(self):
        with pytest.raises(ValueError, match="mismatch"):
            FastqRecord(id="r", seq="ACGT", quality="II")

    def test_mean_quality(self):
        r = FastqRecord(id="r", seq="AC", quality=phred_to_quality([10, 30]))
        assert r.mean_quality() == 20.0
