"""Tests for the protein database index and seeding stage."""

import numpy as np
import pytest

from repro.bio.fasta import FastaRecord
from repro.bio.matrices import blosum62
from repro.blast.database import ProteinDatabase
from repro.blast.seeds import SeedHit, find_seed_hits, two_hit_filter


def db_of(*seqs: str, **kwargs) -> ProteinDatabase:
    records = [FastaRecord(id=f"p{i}", seq=s) for i, s in enumerate(seqs)]
    return ProteinDatabase(records=records, **kwargs)


class TestProteinDatabase:
    def test_basic_properties(self):
        db = db_of("MEDLKV", "ACDEFGH")
        assert len(db) == 2
        assert db.total_residues == 13
        assert db["p0"].seq == "MEDLKV"
        assert db["p1"].seq == "ACDEFGH"

    def test_duplicate_ids_rejected(self):
        records = [FastaRecord(id="p", seq="MEDL"), FastaRecord(id="p", seq="KVW")]
        with pytest.raises(ValueError, match="duplicate"):
            ProteinDatabase(records=records)

    def test_non_protein_rejected(self):
        with pytest.raises(ValueError, match="not a protein"):
            db_of("MEDL1")

    def test_word_size_validation(self):
        with pytest.raises(ValueError):
            db_of("MEDL", word_size=1)

    def test_word_index_counts(self):
        db = db_of("MEDLK")  # words MED, EDL, DLK
        assert len(db.word_occurrences) == 3

    def test_repeated_word_has_two_occurrences(self):
        db = db_of("MEDMED")  # MED at 0 and 3
        med = blosum62().encode("MED").tobytes()
        idx = [w.tobytes() for w in db.word_codes].index(med)
        assert db.word_occurrences[idx] == [(0, 0), (0, 3)]

    def test_empty_database(self):
        db = ProteinDatabase(records=[])
        assert len(db.word_occurrences) == 0
        assert db.total_residues == 0


class TestSeeding:
    def test_exact_word_found(self):
        db = db_of("AAAMEDLKVAAA")
        q = blosum62().encode("MEDLKV")
        hits = list(find_seed_hits(q, db, threshold=11))
        # The exact word MED scores 5+5+6=16 >= 11 against itself.
        assert SeedHit(0, 0, 3) in hits

    def test_neighborhood_word_found(self):
        # Query word MEE vs subject MED: 5+5+2=12 >= 11 -> still seeds.
        db = db_of("AAAMEDAAA")
        q = blosum62().encode("MEE")
        hits = list(find_seed_hits(q, db, threshold=11))
        assert SeedHit(0, 0, 3) in hits

    def test_threshold_excludes_weak_words(self):
        db = db_of("AAAMEDAAA")
        q = blosum62().encode("MEE")
        hits = list(find_seed_hits(q, db, threshold=13))
        assert SeedHit(0, 0, 3) not in hits

    def test_short_query_yields_nothing(self):
        db = db_of("MEDLKV")
        q = blosum62().encode("ME")
        assert list(find_seed_hits(q, db)) == []

    def test_diagonal_property(self):
        assert SeedHit(4, 0, 10).diagonal == 6


class TestTwoHitFilter:
    def test_pair_on_same_diagonal_confirms_second(self):
        hits = [SeedHit(0, 0, 0), SeedHit(10, 0, 10)]
        out = two_hit_filter(hits, word_size=3, window=40)
        assert out == [SeedHit(10, 0, 10)]

    def test_overlapping_hits_do_not_confirm(self):
        hits = [SeedHit(0, 0, 0), SeedHit(1, 0, 1)]
        assert two_hit_filter(hits, word_size=3, window=40) == []

    def test_far_hits_do_not_confirm(self):
        hits = [SeedHit(0, 0, 0), SeedHit(100, 0, 100)]
        assert two_hit_filter(hits, word_size=3, window=40) == []

    def test_different_diagonals_independent(self):
        hits = [SeedHit(0, 0, 0), SeedHit(10, 0, 15)]
        assert two_hit_filter(hits, word_size=3, window=40) == []

    def test_different_subjects_independent(self):
        hits = [SeedHit(0, 0, 0), SeedHit(10, 1, 10)]
        assert two_hit_filter(hits, word_size=3, window=40) == []

    def test_chain_confirms_each_following_hit(self):
        # Three evenly spaced hits: each non-first hit is within the
        # window of its predecessor and is confirmed.
        hits = [SeedHit(0, 0, 0), SeedHit(10, 0, 10), SeedHit(20, 0, 20)]
        out = two_hit_filter(hits, word_size=3, window=40)
        assert out == [SeedHit(10, 0, 10), SeedHit(20, 0, 20)]

    def test_overlap_then_confirming_hit(self):
        # Dense overlapping hits (exact-match diagonals look like this):
        # the first non-overlapping hit confirms.
        hits = [SeedHit(i, 0, i) for i in range(6)]
        out = two_hit_filter(hits, word_size=3, window=40)
        assert out == [SeedHit(3, 0, 3)]
