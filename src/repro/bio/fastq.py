"""FASTQ records (Sanger/Illumina-1.8 Phred+33 quality).

Used by the Fig. 1 transcriptome pipeline: the preprocessing stage
consumes raw Illumina-like paired reads, which our data generator
emits as FASTQ records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "FastqRecord",
    "phred_to_quality",
    "quality_to_phred",
]

#: ASCII offset for Sanger / Illumina 1.8+ quality encoding.
PHRED_OFFSET = 33

#: Highest Phred score representable in the encoding.
MAX_PHRED = 93


def phred_to_quality(scores: Iterable[int]) -> str:
    """Encode integer Phred scores as a quality string.

    >>> phred_to_quality([0, 40])
    '!I'
    """
    chars = []
    for q in scores:
        if not 0 <= q <= MAX_PHRED:
            raise ValueError(f"Phred score out of range: {q}")
        chars.append(chr(q + PHRED_OFFSET))
    return "".join(chars)


def quality_to_phred(quality: str) -> list[int]:
    """Decode a quality string into integer Phred scores.

    >>> quality_to_phred('!I')
    [0, 40]
    """
    scores = []
    for c in quality:
        q = ord(c) - PHRED_OFFSET
        if not 0 <= q <= MAX_PHRED:
            raise ValueError(f"quality character out of range: {c!r}")
        scores.append(q)
    return scores


@dataclass(frozen=True)
class FastqRecord:
    """One FASTQ entry; ``quality`` must match ``seq`` in length."""

    id: str
    seq: str
    quality: str
    description: str = ""

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("FASTQ record id must be non-empty")
        if len(self.seq) != len(self.quality):
            raise ValueError(
                f"sequence/quality length mismatch for {self.id!r}: "
                f"{len(self.seq)} vs {len(self.quality)}"
            )

    def __len__(self) -> int:
        return len(self.seq)

    def phred(self) -> list[int]:
        """Integer Phred scores for this read."""
        return quality_to_phred(self.quality)

    def mean_quality(self) -> float:
        """Arithmetic mean Phred score (0.0 for an empty read)."""
        scores = self.phred()
        return sum(scores) / len(scores) if scores else 0.0
