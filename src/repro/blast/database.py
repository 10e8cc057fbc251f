"""Indexed protein database for translated search.

The database holds the subject protein sequences (the "closely related
protein datasets" the paper aligns wheat transcripts against) together
with a word index used by the seeding stage. Words are stored as encoded
integer triples in a dense NumPy table so that neighborhood scoring in
:mod:`repro.blast.seeds` is a vectorised matrix lookup rather than a
per-word Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.bio.fasta import FastaRecord
from repro.bio.matrices import ScoringMatrix, blosum62
from repro.bio.seq import is_protein

__all__ = ["ProteinDatabase"]


@dataclass
class ProteinDatabase:
    """A searchable collection of protein sequences.

    Parameters
    ----------
    records:
        The subject proteins. Ids must be unique.
    word_size:
        Seed word length; BLASTX's default of 3 is also ours.
    matrix:
        Scoring matrix used to encode sequences (BLOSUM62 by default).
    """

    records: Sequence[FastaRecord]
    word_size: int = 3
    matrix: ScoringMatrix = field(default_factory=blosum62)

    def __post_init__(self) -> None:
        if self.word_size < 2:
            raise ValueError("word_size must be >= 2")
        ids = [r.id for r in self.records]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate protein ids in database")
        for r in self.records:
            if not is_protein(r.seq):
                raise ValueError(f"record {r.id!r} is not a protein sequence")
        self._by_id = {r.id: r for r in self.records}
        self._build_index()

    def _build_index(self) -> None:
        """Collect every length-``word_size`` window of every subject.

        Produces three parallel arrays:

        * ``word_codes`` — ``(W, word_size)`` distinct encoded words,
        * ``word_occurrences`` — for each distinct word, the list of
          ``(subject_index, offset)`` pairs where it occurs.
        """
        k = self.word_size
        occurrences: dict[bytes, list[tuple[int, int]]] = {}
        for subject_idx, record in enumerate(self.records):
            codes = self.matrix.encode(record.seq)
            for offset in range(len(codes) - k + 1):
                word = codes[offset : offset + k].tobytes()
                occurrences.setdefault(word, []).append((subject_idx, offset))
        words = list(occurrences)
        if words:
            self.word_codes = np.frombuffer(
                b"".join(words), dtype=np.int8
            ).reshape(len(words), k)
        else:
            self.word_codes = np.empty((0, k), dtype=np.int8)
        self.word_occurrences: list[list[tuple[int, int]]] = [
            occurrences[w] for w in words
        ]

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, subject_id: str) -> FastaRecord:
        return self._by_id[subject_id]

    @property
    def total_residues(self) -> int:
        """Sum of subject lengths (the BLAST "database length" n)."""
        return sum(len(r) for r in self.records)


    def subject(self, index: int) -> FastaRecord:
        """Subject record by integer index (as stored in occurrences)."""
        return self.records[index]

    def encoded_subjects(self) -> Iterable[np.ndarray]:
        """Encoded code arrays for all subjects, in index order."""
        for record in self.records:
            yield self.matrix.encode(record.seq)
