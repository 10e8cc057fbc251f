"""Substitution matrices for protein and nucleotide alignment.

Ships BLOSUM62 (the BLASTX default) parsed from its canonical NCBI text
form, and simple match/mismatch matrices for DNA overlap alignment (CAP3
scores nucleotide overlaps this way). Matrices are exposed both as
dict-of-pairs (convenient for tests and scripting) and as dense NumPy
arrays over an encoded alphabet (what the alignment kernels consume).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "ScoringMatrix",
    "blosum62",
    "dna_matrix",
    "PROTEIN_ORDER",
    "DNA_ORDER",
]

#: Residue order used to encode protein sequences into integer arrays.
PROTEIN_ORDER = "ARNDCQEGHILKMFPSTWYVBZX*"

#: Base order used to encode DNA sequences into integer arrays.
DNA_ORDER = "ACGTN"

# Canonical NCBI BLOSUM62, row/column order as in PROTEIN_ORDER.
_BLOSUM62_TEXT = """\
 4 -1 -2 -2  0 -1 -1  0 -2 -1 -1 -1 -1 -2 -1  1  0 -3 -2  0 -2 -1  0 -4
-1  5  0 -2 -3  1  0 -2  0 -3 -2  2 -1 -3 -2 -1 -1 -3 -2 -3 -1  0 -1 -4
-2  0  6  1 -3  0  0  0  1 -3 -3  0 -2 -3 -2  1  0 -4 -2 -3  3  0 -1 -4
-2 -2  1  6 -3  0  2 -1 -1 -3 -4 -1 -3 -3 -1  0 -1 -4 -3 -3  4  1 -1 -4
 0 -3 -3 -3  9 -3 -4 -3 -3 -1 -1 -3 -1 -2 -3 -1 -1 -2 -2 -1 -3 -3 -2 -4
-1  1  0  0 -3  5  2 -2  0 -3 -2  1  0 -3 -1  0 -1 -2 -1 -2  0  3 -1 -4
-1  0  0  2 -4  2  5 -2  0 -3 -3  1 -2 -3 -1  0 -1 -3 -2 -2  1  4 -1 -4
 0 -2  0 -1 -3 -2 -2  6 -2 -4 -4 -2 -3 -3 -2  0 -2 -2 -3 -3 -1 -2 -1 -4
-2  0  1 -1 -3  0  0 -2  8 -3 -3 -1 -2 -1 -2 -1 -2 -2  2 -3  0  0 -1 -4
-1 -3 -3 -3 -1 -3 -3 -4 -3  4  2 -3  1  0 -3 -2 -1 -3 -1  3 -3 -3 -1 -4
-1 -2 -3 -4 -1 -2 -3 -4 -3  2  4 -2  2  0 -3 -2 -1 -2 -1  1 -4 -3 -1 -4
-1  2  0 -1 -3  1  1 -2 -1 -3 -2  5 -1 -3 -1  0 -1 -3 -2 -2  0  1 -1 -4
-1 -1 -2 -3 -1  0 -2 -3 -2  1  2 -1  5  0 -2 -1 -1 -1 -1  1 -3 -1 -1 -4
-2 -3 -3 -3 -2 -3 -3 -3 -1  0  0 -3  0  6 -4 -2 -2  1  3 -1 -3 -3 -1 -4
-1 -2 -2 -1 -3 -1 -1 -2 -2 -3 -3 -1 -2 -4  7 -1 -1 -4 -3 -2 -2 -1 -2 -4
 1 -1  1  0 -1  0  0  0 -1 -2 -2  0 -1 -2 -1  4  1 -3 -2 -2  0  0  0 -4
 0 -1  0 -1 -1 -1 -1 -2 -2 -1 -1 -1 -1 -2 -1  1  5 -2 -2  0 -1 -1  0 -4
-3 -3 -4 -4 -2 -2 -3 -2 -2 -3 -2 -3 -1  1 -4 -3 -2 11  2 -3 -4 -3 -2 -4
-2 -2 -2 -3 -2 -1 -2 -3  2 -1 -1 -2 -1  3 -3 -2 -2  2  7 -1 -3 -2 -1 -4
 0 -3 -3 -3 -1 -2 -2 -3 -3  3  1 -2  1 -1 -2 -2  0 -3 -1  4 -3 -2 -1 -4
-2 -1  3  4 -3  0  1 -1  0 -3 -4  0 -3 -3 -2  0 -1 -4 -3 -3  4  1 -1 -4
-1  0  0  1 -3  3  4 -2  0 -3 -3  1 -1 -3 -1  0 -1 -3 -2 -2  1  4 -1 -4
 0 -1 -1 -1 -2 -1 -1 -1 -1 -1 -1 -1 -1 -1 -2  0  0 -2 -1 -1 -1 -1 -1 -4
-4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4  1
"""


@dataclass(frozen=True)
class ScoringMatrix:
    """A substitution matrix over a fixed residue alphabet.

    ``alphabet`` gives the residue-to-code mapping; ``matrix`` is a dense
    ``(len(alphabet), len(alphabet))`` int array. Unknown residues are
    encoded as the alphabet's designated wildcard (``X`` for protein,
    ``N`` for DNA).
    """

    name: str
    alphabet: str
    matrix: np.ndarray
    wildcard: str

    def __post_init__(self) -> None:
        n = len(self.alphabet)
        if self.matrix.shape != (n, n):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match "
                f"alphabet of length {n}"
            )
        if self.wildcard not in self.alphabet:
            raise ValueError("wildcard must be in the alphabet")

    def score(self, a: str, b: str) -> int:
        """Score a residue pair (case-insensitive; unknowns -> wildcard)."""
        return int(self.matrix[self.encode(a)[0], self.encode(b)[0]])

    @property
    def _codes(self) -> np.ndarray:
        return _encode_table(self.alphabet, self.wildcard)

    def encode(self, seq: str) -> np.ndarray:
        """Encode a residue string into an int8 code array."""
        raw = np.frombuffer(seq.upper().encode("ascii"), dtype=np.uint8)
        return self._codes[raw]


@lru_cache(maxsize=None)
def _encode_table(alphabet: str, wildcard: str) -> np.ndarray:
    table = np.full(256, alphabet.index(wildcard), dtype=np.int8)
    for i, ch in enumerate(alphabet):
        table[ord(ch)] = i
    return table


@lru_cache(maxsize=1)
def blosum62() -> ScoringMatrix:
    """The BLOSUM62 matrix in BLAST's residue order."""
    rows = [
        [int(v) for v in line.split()]
        for line in _BLOSUM62_TEXT.strip().splitlines()
    ]
    matrix = np.array(rows, dtype=np.int16)
    if not np.array_equal(matrix, matrix.T):
        raise AssertionError("BLOSUM62 must be symmetric")
    return ScoringMatrix(
        name="BLOSUM62", alphabet=PROTEIN_ORDER, matrix=matrix, wildcard="X"
    )


@lru_cache(maxsize=None)
def dna_matrix(match: int = 2, mismatch: int = -5, n_score: int = 0) -> ScoringMatrix:
    """Match/mismatch matrix for DNA; ``N`` scores ``n_score`` vs anything.

    The defaults (+2/-5) are close to CAP3's overlap scoring, which
    penalises mismatches heavily because transcript overlaps should be
    near-identical.
    """
    n = len(DNA_ORDER)
    matrix = np.full((n, n), mismatch, dtype=np.int16)
    np.fill_diagonal(matrix, match)
    n_idx = DNA_ORDER.index("N")
    matrix[n_idx, :] = n_score
    matrix[:, n_idx] = n_score
    return ScoringMatrix(
        name=f"DNA(+{match}/{mismatch})",
        alphabet=DNA_ORDER,
        matrix=matrix,
        wildcard="N",
    )
