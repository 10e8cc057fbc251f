"""Tests for matrices, k-mer index, Karlin-Altschul stats, and quality
trimming."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bio.fastq import FastqRecord, phred_to_quality
from repro.bio.kmer import KmerIndex, kmers
from repro.bio.matrices import DNA_ORDER, PROTEIN_ORDER, blosum62, dna_matrix
from repro.bio.quality import QualityReport, TrimParams, quality_filter, trim_record
from repro.bio.stats import (
    GAPPED_BLOSUM62,
    UNGAPPED_BLOSUM62,
    bit_score,
    effective_lengths,
    evalue,
)


class TestBlosum62:
    def test_known_entries(self):
        m = blosum62()
        assert m.score("W", "W") == 11
        assert m.score("A", "A") == 4
        assert m.score("E", "K") == 1
        assert m.score("W", "C") == -2
        assert m.score("*", "*") == 1

    def test_symmetric(self):
        m = blosum62().matrix
        assert np.array_equal(m, m.T)

    def test_case_insensitive(self):
        assert blosum62().score("w", "w") == 11

    def test_unknown_residue_maps_to_x(self):
        m = blosum62()
        assert m.score("J", "A") == m.score("X", "A")

    def test_encode_shape(self):
        m = blosum62()
        codes = m.encode("MEDLKV")
        assert codes.shape == (6,)
        assert PROTEIN_ORDER[codes[0]] == "M"


class TestDnaMatrix:
    def test_defaults(self):
        m = dna_matrix()
        assert m.score("A", "A") == 2
        assert m.score("A", "C") == -5
        assert m.score("N", "A") == 0

    def test_custom(self):
        m = dna_matrix(match=1, mismatch=-1)
        assert m.score("G", "G") == 1
        assert m.score("G", "T") == -1

    def test_alphabet(self):
        assert dna_matrix().alphabet == DNA_ORDER


class TestKmers:
    def test_enumeration(self):
        assert list(kmers("ACGT", 3)) == [(0, "ACG"), (1, "CGT")]

    def test_k_longer_than_seq(self):
        assert list(kmers("AC", 3)) == []

    def test_bad_k(self):
        with pytest.raises(ValueError):
            list(kmers("ACGT", 0))


class TestKmerIndex:
    def test_add_and_lookup(self):
        idx = KmerIndex(k=3)
        idx.add("t1", "ACGTACG")
        assert ("t1", 0) in idx.lookup("ACG")
        assert ("t1", 4) in idx.lookup("ACG")

    def test_ambiguous_skipped(self):
        idx = KmerIndex(k=3)
        idx.add("t1", "ACNGT")
        assert not any(idx.lookup(w) for w in ("ACN", "CNG", "NGT"))

    def test_ambiguous_kept_when_disabled(self):
        idx = KmerIndex(k=3, skip_ambiguous=False)
        idx.add("t1", "ACNGT")
        assert [idx.lookup(w) for w in ("ACN", "CNG", "NGT")] == [
            [("t1", 0)], [("t1", 1)], [("t1", 2)]]

    def test_lookup_wrong_length(self):
        idx = KmerIndex(k=3)
        with pytest.raises(ValueError):
            idx.lookup("ACGT")

    def test_contains_and_distinct(self):
        idx = KmerIndex(k=2)
        idx.add("a", "ACAC")
        idx.add("b", "ACGT")
        assert idx.lookup("AC") and not idx.lookup("GG")
        # four distinct k-mers over six occurrences
        assert all(idx.lookup(word) for word in ("CA", "CG", "GT"))
        assert idx.lookup("AC") == [("a", 0), ("a", 2), ("b", 0)]

    def test_case_insensitive(self):
        idx = KmerIndex(k=2)
        idx.add("a", "acgt")
        assert idx.lookup("AC") == [("a", 0)]

    @given(st.text(alphabet="ACGT", min_size=5, max_size=50))
    @settings(max_examples=30)
    def test_every_kmer_of_indexed_seq_found(self, seq):
        idx = KmerIndex(k=5)
        idx.add("s", seq)
        for off, word in kmers(seq, 5):
            assert ("s", off) in idx.lookup(word)


class TestKarlinAltschul:
    def test_bit_score_monotone(self):
        assert bit_score(100, GAPPED_BLOSUM62) > bit_score(50, GAPPED_BLOSUM62)

    def test_known_bit_score(self):
        # S=100 with gapped BLOSUM62: (0.267*100 - ln 0.041)/ln 2
        expected = (0.267 * 100 - math.log(0.041)) / math.log(2)
        assert math.isclose(bit_score(100, GAPPED_BLOSUM62), expected)

    def test_evalue_decreases_with_score(self):
        e1 = evalue(50, 300, 10**6)
        e2 = evalue(100, 300, 10**6)
        assert e2 < e1

    def test_evalue_grows_with_database(self):
        assert evalue(60, 300, 10**8) > evalue(60, 300, 10**6)

    def test_effective_lengths_floor(self):
        m_eff, n_eff = effective_lengths(10, 50, 5, UNGAPPED_BLOSUM62)
        assert m_eff >= 1 and n_eff >= 1

    def test_effective_shorter_than_actual(self):
        m_eff, n_eff = effective_lengths(500, 10**6, 100, GAPPED_BLOSUM62)
        assert m_eff < 500
        assert n_eff < 10**6

    def test_invalid_lengths(self):
        with pytest.raises(ValueError):
            effective_lengths(0, 10, 1, GAPPED_BLOSUM62)


def _read(seq, scores, rid="r1"):
    return FastqRecord(id=rid, seq=seq, quality=phred_to_quality(scores))


class TestQualityTrim:
    def test_high_quality_untouched(self):
        r = _read("ACGTACGT", [40] * 8)
        assert trim_record(r).seq == "ACGTACGT"

    def test_low_quality_tail_cut(self):
        r = _read("ACGTACGTAAAA", [40] * 8 + [2] * 4)
        t = trim_record(r, TrimParams(window=4, min_window_mean=20))
        assert len(t) <= 8

    def test_terminal_base_clip(self):
        r = _read("AACGTACGTA", [1] + [40] * 8 + [1])
        t = trim_record(r, TrimParams(min_base_quality=3, window=4))
        assert t.seq == "ACGTACGT"

    def test_all_bad_read_empties(self):
        r = _read("ACGT", [1, 1, 1, 1])
        assert len(trim_record(r)) == 0

    def test_filter_drops_short(self):
        report = QualityReport()
        reads = [_read("ACGT", [40] * 4)]
        out = list(
            quality_filter(reads, TrimParams(min_length=50), report=report)
        )
        assert out == []
        assert report.too_short == 1
        assert report.dropped == 1

    def test_filter_drops_n_rich(self):
        report = QualityReport()
        reads = [_read("N" * 30 + "ACGT" * 10, [40] * 70)]
        params = TrimParams(min_length=10, max_n_fraction=0.1)
        assert list(quality_filter(reads, params, report=report)) == []
        assert report.too_many_n == 1

    def test_filter_passes_good(self):
        report = QualityReport()
        reads = [_read("ACGT" * 20, [38] * 80)]
        out = list(quality_filter(reads, report=report))
        assert len(out) == 1
        assert report.passed == 1

    def test_params_validation(self):
        with pytest.raises(ValueError):
            TrimParams(window=0)
        with pytest.raises(ValueError):
            TrimParams(max_n_fraction=1.5)

    @given(st.lists(st.integers(min_value=0, max_value=41), min_size=1, max_size=150))
    @settings(max_examples=30)
    def test_trim_never_lengthens(self, scores):
        r = _read("A" * len(scores), scores)
        assert len(trim_record(r)) <= len(r)
