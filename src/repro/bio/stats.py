"""Karlin–Altschul statistics for alignment significance.

BLAST converts raw alignment scores into *bit scores* and *e-values*
using the Karlin–Altschul framework: for a scoring system with parameters
``lambda`` and ``K``, the expected number of alignments scoring >= S
between a query of length m and a database of total length n is

    E = K * m' * n' * exp(-lambda * S)

where m' and n' are the lengths corrected for the expected alignment
"edge effect". ``lambda`` and ``K`` are NCBI's published values for
BLOSUM62 (the root of ``sum_ij p_i p_j exp(lambda * s_ij) = 1`` over
the Robinson background frequencies, for ``lambda``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "KarlinAltschulParams",
    "GAPPED_BLOSUM62",
    "UNGAPPED_BLOSUM62",
    "bit_score",
    "evalue",
    "effective_lengths",
    "ROBINSON_FREQUENCIES",
]

#: Robinson & Robinson (1991) background amino-acid frequencies, keyed by
#: residue, as used by NCBI BLAST for protein statistics.
ROBINSON_FREQUENCIES: dict[str, float] = {
    "A": 0.07805, "R": 0.05129, "N": 0.04487, "D": 0.05364, "C": 0.01925,
    "Q": 0.04264, "E": 0.06295, "G": 0.07377, "H": 0.02199, "I": 0.05142,
    "L": 0.09019, "K": 0.05744, "M": 0.02243, "F": 0.03856, "P": 0.05203,
    "S": 0.07120, "T": 0.05841, "W": 0.01330, "Y": 0.03216, "V": 0.06441,
}


@dataclass(frozen=True)
class KarlinAltschulParams:
    """The (lambda, K, H) triple for one scoring system."""

    lam: float
    k: float
    h: float

    def __post_init__(self) -> None:
        if self.lam <= 0 or self.k <= 0 or self.h <= 0:
            raise ValueError("Karlin-Altschul parameters must be positive")


#: NCBI's published gapped BLOSUM62 parameters (gap open 11, extend 1).
GAPPED_BLOSUM62 = KarlinAltschulParams(lam=0.267, k=0.041, h=0.14)

#: NCBI's ungapped BLOSUM62 parameters.
UNGAPPED_BLOSUM62 = KarlinAltschulParams(lam=0.3176, k=0.134, h=0.40)


def bit_score(raw_score: float, params: KarlinAltschulParams) -> float:
    """Convert a raw score to a normalised bit score."""
    return (params.lam * raw_score - math.log(params.k)) / math.log(2.0)


def effective_lengths(
    query_len: int, db_len: int, db_sequences: int, params: KarlinAltschulParams
) -> tuple[int, int]:
    """Edge-effect corrected query/database lengths.

    BLAST subtracts the expected HSP length ``l = ln(K m n) / H`` from
    both the query and each database sequence, flooring at 1.
    """
    if query_len <= 0 or db_len <= 0 or db_sequences <= 0:
        raise ValueError("lengths and sequence count must be positive")
    expected_hsp = math.log(params.k * query_len * db_len) / params.h
    m_eff = max(1, int(query_len - expected_hsp))
    n_eff = max(1, int(db_len - db_sequences * expected_hsp))
    return m_eff, n_eff


def evalue(
    raw_score: float,
    query_len: int,
    db_len: int,
    *,
    db_sequences: int = 1,
    params: KarlinAltschulParams = GAPPED_BLOSUM62,
) -> float:
    """Expected number of chance alignments scoring >= ``raw_score``."""
    m_eff, n_eff = effective_lengths(query_len, db_len, db_sequences, params)
    return params.k * m_eff * n_eff * math.exp(-params.lam * raw_score)
