"""HSP extension: ungapped X-drop, then banded-window gapped alignment.

Given a confirmed seed hit, BLAST extends it in two stages:

1. **Ungapped X-drop** — walk outward along the diagonal accumulating
   substitution scores, stopping when the running score falls more than
   ``x_drop`` below the best seen. The result is an ungapped HSP.
2. **Gapped extension** — if the ungapped HSP scores above a trigger,
   run a Smith–Waterman alignment on a window around it to allow indels.

Stage 2 reuses :func:`repro.bio.alignment.local_align` on a bounded
window, which keeps the DP cost proportional to the HSP size, not the
full sequence product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bio.alignment import AlignmentResult, local_align
from repro.bio.matrices import ScoringMatrix

__all__ = ["UngappedHSP", "ungapped_extend", "gapped_extend"]


@dataclass(frozen=True)
class UngappedHSP:
    """An ungapped high-scoring segment pair (0-based half-open spans)."""

    q_start: int
    q_end: int
    s_start: int
    s_end: int
    score: int

    @property
    def length(self) -> int:
        return self.q_end - self.q_start

    def __post_init__(self) -> None:
        if self.q_end - self.q_start != self.s_end - self.s_start:
            raise ValueError("ungapped HSP spans must have equal length")


def ungapped_extend(
    query_codes: np.ndarray,
    subject_codes: np.ndarray,
    q_off: int,
    s_off: int,
    sub: np.ndarray,
    *,
    x_drop: int = 16,
) -> UngappedHSP:
    """X-drop extension of a word hit along its diagonal.

    ``(q_off, s_off)`` is any anchor position on the diagonal (BLAST uses
    the confirming hit of the two-hit pair). Extension proceeds right
    from the anchor and then left, each direction stopping when the
    running score drops ``x_drop`` below that direction's best.
    """
    lq, ls = len(query_codes), len(subject_codes)
    if not (0 <= q_off < lq and 0 <= s_off < ls):
        raise ValueError("anchor outside sequences")

    # Rightward: include the anchor column itself.
    best_right = 0
    run = 0
    right = 0  # exclusive extent beyond anchor
    i, j = q_off, s_off
    while i < lq and j < ls:
        run += int(sub[query_codes[i], subject_codes[j]])
        if run > best_right:
            best_right = run
            right = i - q_off + 1
        if run <= best_right - x_drop:
            break
        i += 1
        j += 1

    # Leftward from the column before the anchor.
    best_left = 0
    run = 0
    left = 0
    i, j = q_off - 1, s_off - 1
    while i >= 0 and j >= 0:
        run += int(sub[query_codes[i], subject_codes[j]])
        if run > best_left:
            best_left = run
            left = q_off - i
        if run <= best_left - x_drop:
            break
        i -= 1
        j -= 1

    return UngappedHSP(
        q_start=q_off - left,
        q_end=q_off + right,
        s_start=s_off - left,
        s_end=s_off + right,
        score=best_left + best_right,
    )


def gapped_extend(
    query: str,
    subject: str,
    hsp: UngappedHSP,
    matrix: ScoringMatrix,
    *,
    gap: int = -11,
    window_pad: int = 50,
) -> AlignmentResult:
    """Gapped Smith–Waterman around an ungapped HSP.

    The DP window extends ``window_pad`` residues beyond the HSP on each
    side (clamped to the sequences), which bounds cost while letting the
    alignment grow past the ungapped boundaries. The returned result's
    coordinates are translated back into full-sequence positions.
    """
    q_lo = max(0, hsp.q_start - window_pad)
    q_hi = min(len(query), hsp.q_end + window_pad)
    s_lo = max(0, hsp.s_start - window_pad)
    s_hi = min(len(subject), hsp.s_end + window_pad)

    local = local_align(
        query[q_lo:q_hi], subject[s_lo:s_hi], matrix=matrix, gap=gap
    )
    return AlignmentResult(
        mode=local.mode,
        score=local.score,
        a_start=local.a_start + q_lo,
        a_end=local.a_end + q_lo,
        b_start=local.b_start + s_lo,
        b_end=local.b_end + s_lo,
        aligned_a=local.aligned_a,
        aligned_b=local.aligned_b,
    )
