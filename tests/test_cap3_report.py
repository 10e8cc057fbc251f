"""Tests for contig placements."""

import random

import pytest

from repro.bio.fasta import FastaRecord
from repro.cap3.assembler import Contig, assemble


def random_dna(rng, n):
    return "".join(rng.choice("ACGT") for _ in range(n))


@pytest.fixture(scope="module")
def assembly():
    rng = random.Random(21)
    genome = random_dna(rng, 600)
    reads = [
        FastaRecord(id="r0", seq=genome[:250]),
        FastaRecord(id="r1", seq=genome[150:400]),
        FastaRecord(id="r2", seq=genome[350:]),
        FastaRecord(id="inner", seq=genome[180:280]),  # contained in r1
        FastaRecord(id="lone", seq=random_dna(rng, 300)),
    ]
    result = assemble(reads)
    return result, {r.id: r.seq for r in reads}


class TestPlacements:
    def test_every_member_placed(self, assembly):
        result, _ = assembly
        for contig in result.contigs:
            placed = {p[0] for p in contig.placements}
            assert placed == set(contig.members)

    def test_offsets_monotone_for_chain(self, assembly):
        result, _ = assembly
        contig = result.contigs[0]
        offsets = {p[0]: p[1] for p in contig.placements}
        assert offsets["r0"] < offsets["r1"] < offsets["r2"]

    def test_contained_read_inherits_container_offset(self, assembly):
        result, _ = assembly
        contig = result.contigs[0]
        offsets = {p[0]: p[1] for p in contig.placements}
        assert offsets["inner"] == offsets["r1"]

    def test_placement_validation(self):
        with pytest.raises(ValueError, match="cover exactly"):
            Contig(
                id="c", seq="ACGT", members=("a", "b"),
                placements=(("a", 0, False),),
            )
