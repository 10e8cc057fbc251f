"""K-mer indexing for seed lookup.

Both the BLASTX-like search (protein word seeding) and the CAP3-like
assembler (candidate overlap detection) start from exact shared k-mers.
:class:`KmerIndex` maps every k-mer of a sequence collection to its
``(sequence_key, offset)`` occurrence list.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Hashable, Iterator

__all__ = ["KmerIndex", "kmers"]


def kmers(seq: str, k: int) -> Iterator[tuple[int, str]]:
    """Yield ``(offset, kmer)`` for every k-mer of ``seq``.

    >>> list(kmers("ACGT", 3))
    [(0, 'ACG'), (1, 'CGT')]
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    for i in range(len(seq) - k + 1):
        yield i, seq[i : i + k]


@dataclass
class KmerIndex:
    """An inverted index from k-mer to occurrence positions.

    ``skip_ambiguous`` drops k-mers containing the wildcard characters
    (``N``/``X``), which otherwise seed spurious matches.
    """

    k: int
    skip_ambiguous: bool = True
    _index: dict[str, list[tuple[Hashable, int]]] = field(
        default_factory=lambda: defaultdict(list), repr=False
    )
    _size: int = 0

    AMBIGUOUS = frozenset("NX")

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")

    def add(self, key: Hashable, seq: str) -> None:
        """Index every k-mer of ``seq`` under ``key``."""
        seq = seq.upper()
        for offset, word in kmers(seq, self.k):
            if self.skip_ambiguous and (set(word) & self.AMBIGUOUS):
                continue
            self._index[word].append((key, offset))
            self._size += 1

    def lookup(self, word: str) -> list[tuple[Hashable, int]]:
        """All ``(key, offset)`` occurrences of ``word`` (empty if none)."""
        if len(word) != self.k:
            raise ValueError(
                f"lookup word length {len(word)} != index k {self.k}"
            )
        return self._index.get(word.upper(), [])

    def matches(self, seq: str) -> Iterator[tuple[int, Hashable, int]]:
        """Yield ``(query_offset, key, target_offset)`` for every shared
        k-mer between ``seq`` and the indexed collection."""
        seq = seq.upper()
        for q_off, word in kmers(seq, self.k):
            for key, t_off in self._index.get(word, ()):
                yield q_off, key, t_off

    def __len__(self) -> int:
        """Total number of indexed k-mer occurrences."""
        return self._size

    def __contains__(self, word: str) -> bool:
        return word.upper() in self._index
