"""Overlap detection between transcript pairs.

CAP3's first phase finds pairwise overlaps. We do the same in three steps
(the orientation step is factored out into :mod:`repro.cap3.graph`):

1. **candidate detection** — index every read's k-mers; a pair of reads
   sharing at least ``min_shared_kmers`` distinct k-mers (on either
   strand) is a candidate. This is the hash filter that keeps the stage
   sub-quadratic, as in CAP3.
2. **strand voting** — per candidate pair, count shared k-mers between
   the forward strands and between forward/reverse-complement; the
   winner fixes the pair's relative orientation.
3. **overlap alignment** — candidate pairs (already strand-normalised by
   the caller) are scored with the dovetail DP
   (:func:`repro.bio.alignment.overlap_align`) in both left/right orders,
   keeping the better arrangement.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping

from repro.bio.alignment import AlignmentResult, overlap_align
from repro.bio.kmer import KmerIndex, kmers
from repro.bio.seq import reverse_complement

__all__ = [
    "OverlapKind",
    "Overlap",
    "candidate_pairs",
    "strands_agree",
    "compute_overlap",
]


class OverlapKind(Enum):
    """How two reads relate."""

    DOVETAIL = "dovetail"  # suffix of A continues into prefix of B
    CONTAINMENT = "containment"  # B lies entirely within A


@dataclass(frozen=True)
class Overlap:
    """A scored overlap between strand-normalised reads.

    ``a`` is always the left (for dovetails) or containing (for
    containments) read; ``a_start`` is where the overlap begins in ``a``.
    """

    a: str
    b: str
    kind: OverlapKind
    length: int
    identity: float
    score: int
    a_start: int

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError("overlap endpoints must be distinct reads")
        if self.length < 0:
            raise ValueError("overlap length must be >= 0")
        if not 0.0 <= self.identity <= 1.0:
            raise ValueError("identity must be in [0, 1]")


def candidate_pairs(
    reads: Mapping[str, str], *, k: int = 12, min_shared_kmers: int = 3
) -> Iterator[tuple[str, str]]:
    """Yield read-id pairs sharing enough distinct k-mers on either strand.

    Pair ids are ordered by the mapping's insertion order, and each pair
    is yielded at most once.
    """
    order = {rid: i for i, rid in enumerate(reads)}
    index = KmerIndex(k=k)
    for rid, seq in reads.items():
        index.add(rid, seq)

    # Count *distinct* shared words per pair with early acceptance: once
    # a pair reaches ``min_shared_kmers`` its word set is dropped (the
    # ``None`` sentinel), so memory per pending pair is bounded by the
    # threshold instead of O(shared-word count) — which on large
    # clusters of near-identical transcripts is almost every k-mer.
    shared: dict[tuple[str, str], set[str] | None] = {}
    for rid, seq in reads.items():
        for variant in (seq, reverse_complement(seq)):
            variant = variant.upper()
            for q_off, word in kmers(variant, k):
                for other, _t_off in index.lookup(word):
                    if other == rid:
                        continue
                    pair = (
                        (rid, other) if order[rid] < order[other] else (other, rid)
                    )
                    words = shared.setdefault(pair, set())
                    if words is None:  # already accepted
                        continue
                    words.add(word)
                    if len(words) >= min_shared_kmers:
                        shared[pair] = None

    for pair, words in shared.items():
        if words is None:
            yield pair


def strands_agree(a_seq: str, b_seq: str, *, k: int = 12) -> bool:
    """True when ``a`` and ``b`` overlap on the same strand.

    Decided by majority vote over shared k-mers: forward/forward shared
    words versus forward/reverse-complement shared words. Ties count as
    agreement (no flip).
    """
    a_words = {w for _, w in kmers(a_seq.upper(), k)}
    fwd = len(a_words & {w for _, w in kmers(b_seq.upper(), k)})
    rev = len(
        a_words & {w for _, w in kmers(reverse_complement(b_seq.upper()), k)}
    )
    return fwd >= rev


def _classify(a_len: int, b_len: int, res: AlignmentResult) -> OverlapKind:
    if res.b_start == 0 and res.b_end == b_len and res.a_end < a_len:
        return OverlapKind.CONTAINMENT
    return OverlapKind.DOVETAIL


def compute_overlap(
    a_id: str,
    a_seq: str,
    b_id: str,
    b_seq: str,
    *,
    min_length: int = 40,
    min_identity: float = 0.90,
    gap: int = -6,
) -> Overlap | None:
    """Best acceptable forward-strand overlap between two reads.

    Tries both left/right orders and returns ``None`` if neither
    arrangement clears the CAP3-style acceptance thresholds
    (``min_length`` overlap columns at ``min_identity``).
    """
    best: Overlap | None = None
    for left_id, left_seq, right_id, right_seq in (
        (a_id, a_seq, b_id, b_seq),
        (b_id, b_seq, a_id, a_seq),
    ):
        res = overlap_align(left_seq, right_seq, gap=gap)
        if res.length < min_length or res.identity < min_identity:
            continue
        kind = _classify(len(left_seq), len(right_seq), res)
        candidate = Overlap(
            a=left_id,
            b=right_id,
            kind=kind,
            length=res.length,
            identity=res.identity,
            score=res.score,
            a_start=res.a_start,
        )
        if best is None or candidate.score > best.score:
            best = candidate
    return best
