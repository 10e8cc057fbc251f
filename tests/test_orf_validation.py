"""Tests for ORF finding and assembly validation."""

import pytest

from repro.bio.orf import Orf, find_orfs, longest_orf
from repro.bio.seq import reverse_complement, translate
from repro.core.validation import render_validation, validate_assembly
from repro.datagen.proteins import random_protein_db
from repro.datagen.transcripts import TranscriptomeSpec, generate_transcriptome


def coding_dna(protein: str) -> str:
    table = {
        "A": "GCT", "R": "CGT", "N": "AAT", "D": "GAT", "C": "TGT",
        "Q": "CAA", "E": "GAA", "G": "GGT", "H": "CAT", "I": "ATT",
        "L": "CTT", "K": "AAA", "M": "ATG", "F": "TTT", "P": "CCT",
        "S": "TCT", "T": "ACT", "W": "TGG", "Y": "TAT", "V": "GTT",
    }
    return "".join(table[aa] for aa in protein)


class TestFindOrfs:
    def test_simple_forward_orf(self):
        protein = "M" + "K" * 40
        dna = "CCC" + coding_dna(protein) + "TAA" + "GGG"
        orfs = find_orfs(dna, min_length_aa=30)
        assert orfs
        best = orfs[0]
        assert best.protein == protein
        assert best.has_stop
        assert best.frame == 1
        assert best.start == 4
        assert best.end == 3 + 3 * (len(protein) + 1)

    def test_coordinates_translate_back(self):
        protein = "M" + "ADKLV" * 10
        dna = "GG" + coding_dna(protein) + "TGA"
        (orf, *_) = find_orfs(dna, min_length_aa=20)
        coding = dna[orf.start - 1 : orf.end]
        assert translate(coding, to_stop=True) == protein

    def test_reverse_strand_orf(self):
        protein = "M" + "DE" * 25
        fwd = "AT" + coding_dna(protein) + "TAATT"
        dna = reverse_complement(fwd)
        orfs = find_orfs(dna, min_length_aa=30)
        # The planted ORF must be found on a minus frame (the reverse
        # complement of the repeat may host its own plus-strand ORFs).
        minus = [o for o in orfs if o.frame < 0 and o.protein == protein]
        assert minus
        assert minus[0].start > minus[0].end

    def test_require_start_toggle(self):
        # A stop-to-stop frame with no ATG.
        dna = coding_dna("K" * 50) + "TAA"
        assert find_orfs(dna, min_length_aa=30) == []
        orfs = find_orfs(dna, min_length_aa=30, require_start=False)
        assert any(o.protein == "K" * 50 and o.has_stop for o in orfs)

    def test_open_ended_orf_no_stop(self):
        dna = coding_dna("M" + "R" * 40)
        (orf, *_) = find_orfs(dna, min_length_aa=30)
        assert not orf.has_stop

    def test_min_length_filter(self):
        dna = "CCC" + coding_dna("M" + "K" * 10) + "TAA"
        assert find_orfs(dna, min_length_aa=30) == []
        assert find_orfs(dna, min_length_aa=5)

    def test_longest_orf_helper(self):
        assert longest_orf("ACGTACGT") is None
        dna = coding_dna("M" + "W" * 35) + "TAA"
        assert len(longest_orf(dna)) == 36

    def test_validation(self):
        with pytest.raises(ValueError):
            find_orfs("ACGT", min_length_aa=0)
        with pytest.raises(ValueError):
            Orf(frame=0, start=1, end=3, protein="M", has_stop=True)
        with pytest.raises(ValueError):
            Orf(frame=1, start=1, end=3, protein="", has_stop=True)

    def test_sorted_longest_first(self):
        dna = ("C" + coding_dna("M" + "K" * 60) + "TAA"
               + coding_dna("M" + "R" * 35) + "TAA")
        orfs = find_orfs(dna, min_length_aa=30)
        assert len(orfs[0]) >= len(orfs[-1])


@pytest.fixture(scope="module")
def synthetic_assembly():
    proteins = random_protein_db(5, seed=61, min_length=120, max_length=160)
    t = generate_transcriptome(
        proteins,
        TranscriptomeSpec(
            mean_fragments_per_gene=1.0, sigma_fragments=0.0,
            fragment_min_fraction=1.0, fragment_max_fraction=1.0,
            utr_length=10, error_rate=0.0, reverse_fraction=0.3,
        ),
        seed=62,
    )
    return proteins, t


class TestValidateAssembly:
    def test_contiguity_metrics(self, synthetic_assembly):
        _, t = synthetic_assembly
        report = validate_assembly(t.transcripts)
        assert report.sequence_count == len(t.transcripts)
        assert report.n50 > 300
        assert report.max_length >= report.n50

    def test_orf_fraction_high_for_coding_transcripts(self, synthetic_assembly):
        _, t = synthetic_assembly
        report = validate_assembly(t.transcripts)
        assert report.orf_fraction >= 0.8

    def test_reference_recovery(self, synthetic_assembly):
        proteins, t = synthetic_assembly
        report = validate_assembly(t.transcripts, protein_db=proteins)
        assert report.references_hit == len(proteins)
        assert report.reference_recovered >= 0.8

    def test_empty_assembly(self):
        report = validate_assembly([])
        assert report.sequence_count == 0
        assert report.n50 == 0

    def test_render(self, synthetic_assembly):
        proteins, t = synthetic_assembly
        report = validate_assembly(t.transcripts, protein_db=proteins)
        text = render_validation(report, title="synthetic")
        assert "N50" in text
        assert "reference recovered" in text
