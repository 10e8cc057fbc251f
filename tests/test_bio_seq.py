"""Tests for repro.bio.seq: complementation, translation, six frames."""

import pytest
from hypothesis import given, strategies as st

from repro.bio.seq import (
    CODON_TABLE,
    complement,
    is_dna,
    is_protein,
    reverse_complement,
    six_frame_translations,
    translate,
)

dna = st.text(alphabet="ACGT", max_size=200)


class TestComplement:
    def test_basic(self):
        assert complement("ACGTN") == "TGCAN"

    def test_case_preserved(self):
        assert complement("acgt") == "tgca"

    def test_reverse_complement(self):
        assert reverse_complement("ATGC") == "GCAT"

    @given(dna)
    def test_involution(self, seq):
        assert reverse_complement(reverse_complement(seq)) == seq

    @given(dna)
    def test_length_preserved(self, seq):
        assert len(reverse_complement(seq)) == len(seq)


class TestCodonTable:
    def test_has_64_codons(self):
        assert len(CODON_TABLE) == 64

    def test_three_stops(self):
        stops = [c for c, aa in CODON_TABLE.items() if aa == "*"]
        assert sorted(stops) == ["TAA", "TAG", "TGA"]

    def test_met_start(self):
        assert CODON_TABLE["ATG"] == "M"

    def test_twenty_amino_acids(self):
        aas = set(CODON_TABLE.values()) - {"*"}
        assert len(aas) == 20


class TestTranslate:
    def test_simple(self):
        assert translate("ATGGCC") == "MA"

    def test_frames(self):
        assert translate("AATGGCC", frame=1) == "MA"

    def test_to_stop(self):
        assert translate("ATGTAAGGG", to_stop=True) == "M"
        assert translate("ATGTAAGGG") == "M*G"

    def test_partial_codon_ignored(self):
        assert translate("ATGGC") == "M"

    def test_n_gives_x(self):
        assert translate("ATGNNN") == "MX"

    def test_lowercase(self):
        assert translate("atggcc") == "MA"

    def test_bad_frame(self):
        with pytest.raises(ValueError, match="frame"):
            translate("ATG", frame=3)

    @given(dna)
    def test_length(self, seq):
        assert len(translate(seq)) == len(seq) // 3


class TestSixFrames:
    def test_frame_labels(self):
        frames = dict(six_frame_translations("ATGGCCTAA"))
        assert set(frames) == {1, 2, 3, -1, -2, -3}

    def test_forward_frame1(self):
        frames = dict(six_frame_translations("ATGGCC"))
        assert frames[1] == "MA"

    def test_reverse_frame_is_translation_of_revcomp(self):
        seq = "ATGGCCTAACGA"
        frames = dict(six_frame_translations(seq))
        assert frames[-1] == translate(reverse_complement(seq))

    @given(dna.filter(lambda s: len(s) >= 3))
    def test_every_frame_nonoverlapping_lengths(self, seq):
        frames = dict(six_frame_translations(seq))
        for offset in range(3):
            expected = (len(seq) - offset) // 3
            assert len(frames[offset + 1]) == expected
            assert len(frames[-(offset + 1)]) == expected

    def test_orf_recoverable_from_reverse_strand(self):
        # Put a known peptide on the reverse strand and find it in
        # one of the minus frames.
        from repro.bio.seq import reverse_complement as rc

        forward_orf = "ATGGAAGATCTT"  # MEDL
        seq = "CC" + rc(forward_orf) + "G"
        frames = dict(six_frame_translations(seq))
        assert any("MEDL" in p for f, p in frames.items() if f < 0)


class TestValidators:
    def test_is_dna(self):
        assert is_dna("ACGTNacgt")
        assert not is_dna("ACGU")
        assert is_dna("")

    def test_is_protein(self):
        assert is_protein("MEDLKVX*")
        assert not is_protein("MEDL1")
