"""Pairwise alignment kernels: global, local, and overlap (dovetail) DP.

These are the computational core under both substrates: the BLASTX-like
search (:mod:`repro.blast`) uses local alignment for gapped extension,
and the CAP3-like assembler (:mod:`repro.cap3`) uses overlap alignment to
score suffix–prefix joins between transcripts.

All three modes share one dynamic-programming engine with a *linear* gap
penalty. Rows are computed with NumPy: the vertical/diagonal candidates
are vectorised directly, and the within-row horizontal dependency is
resolved with the classic prefix-scan identity

    H[i][j] = max(T[j], max_{k<j}(T[k] + g*(j-k)))
            = max(T[j], (running_max(T[k] - g*k)) + g*j)

which turns the row recurrence into ``np.maximum.accumulate``. This keeps
the kernels pure NumPy (no compiled extension) while staying fast enough
for the laptop-scale real executions in the examples and tests; the
paper-scale runs go through the discrete-event simulator instead.

Traceback recomputes predecessor choices from the stored score matrix,
which is exact for linear gap penalties.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.bio.matrices import ScoringMatrix, blosum62, dna_matrix

__all__ = [
    "AlignmentMode",
    "AlignmentResult",
    "align",
    "global_align",
    "local_align",
    "overlap_align",
]

class AlignmentMode(Enum):
    """Which boundary conditions the DP uses."""

    GLOBAL = "global"  # Needleman–Wunsch: full A vs full B
    LOCAL = "local"  # Smith–Waterman: best segment pair
    OVERLAP = "overlap"  # dovetail: suffix of A against prefix of B


@dataclass(frozen=True)
class AlignmentResult:
    """The outcome of a pairwise alignment.

    Coordinates are 0-based half-open into the *original* strings:
    ``a[a_start:a_end]`` is the aligned span of A. ``aligned_a`` and
    ``aligned_b`` are gapped strings of equal length.
    """

    mode: AlignmentMode
    score: int
    a_start: int
    a_end: int
    b_start: int
    b_end: int
    aligned_a: str
    aligned_b: str

    @property
    def length(self) -> int:
        """Number of alignment columns (including gap columns)."""
        return len(self.aligned_a)

    @property
    def matches(self) -> int:
        """Number of identical aligned residue pairs."""
        return sum(
            1
            for x, y in zip(self.aligned_a, self.aligned_b)
            if x == y and x != "-"
        )

    @property
    def identity(self) -> float:
        """Fraction of identical columns (0.0 for empty alignments)."""
        return self.matches / self.length if self.length else 0.0


def _score_matrix(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    sub: np.ndarray,
    gap: int,
    mode: AlignmentMode,
) -> np.ndarray:
    """Fill the full (la+1, lb+1) DP matrix for the requested mode."""
    la, lb = len(a_codes), len(b_codes)
    H = np.zeros((la + 1, lb + 1), dtype=np.int32)
    j_idx = np.arange(1, lb + 1, dtype=np.int64)

    if mode is AlignmentMode.GLOBAL:
        H[0, :] = gap * np.arange(lb + 1)
        H[:, 0] = gap * np.arange(la + 1)
    elif mode is AlignmentMode.OVERLAP:
        # A's unaligned prefix is free (H[i][0] = 0); B starts at its
        # first base, so leading gaps in B cost normally.
        H[0, 1:] = gap * j_idx
    # LOCAL: all boundaries stay zero.

    # Row-substitution lookup: sub_rows[i] = sub[a_codes[i], b_codes]
    sub_rows = sub[np.ix_(a_codes, b_codes)].astype(np.int32)

    scan_offsets = gap * np.arange(lb + 1, dtype=np.int64)
    for i in range(1, la + 1):
        prev = H[i - 1]
        # Diagonal and vertical candidates for every column j >= 1.
        T = np.empty(lb + 1, dtype=np.int64)
        T[0] = H[i, 0]
        np.maximum(prev[:-1] + sub_rows[i - 1], prev[1:] + gap, out=T[1:])
        if mode is AlignmentMode.LOCAL:
            np.maximum(T[1:], 0, out=T[1:])
        # Horizontal propagation via prefix scan.
        running = np.maximum.accumulate(T - scan_offsets)
        H[i, 1:] = (running + scan_offsets)[1:]
    return H


def _traceback(
    a: str,
    b: str,
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    sub: np.ndarray,
    gap: int,
    H: np.ndarray,
    end: tuple[int, int],
    mode: AlignmentMode,
) -> AlignmentResult:
    i, j = end
    out_a: list[str] = []
    out_b: list[str] = []

    def at_start(i: int, j: int) -> bool:
        if mode is AlignmentMode.LOCAL:
            return H[i, j] == 0
        if mode is AlignmentMode.OVERLAP:
            return j == 0
        return i == 0 and j == 0

    while not at_start(i, j):
        h = H[i, j]
        if (
            i > 0
            and j > 0
            and h == H[i - 1, j - 1] + sub[a_codes[i - 1], b_codes[j - 1]]
        ):
            out_a.append(a[i - 1])
            out_b.append(b[j - 1])
            i -= 1
            j -= 1
        elif i > 0 and h == H[i - 1, j] + gap:
            out_a.append(a[i - 1])
            out_b.append("-")
            i -= 1
        elif j > 0 and h == H[i, j - 1] + gap:
            out_a.append("-")
            out_b.append(b[j - 1])
            j -= 1
        else:  # pragma: no cover - guarded by DP construction
            raise AssertionError(f"traceback stuck at ({i}, {j})")

    return AlignmentResult(
        mode=mode,
        score=int(H[end]),
        a_start=i,
        a_end=end[0],
        b_start=j,
        b_end=end[1],
        aligned_a="".join(reversed(out_a)),
        aligned_b="".join(reversed(out_b)),
    )


def align(
    a: str,
    b: str,
    *,
    mode: AlignmentMode,
    matrix: ScoringMatrix | None = None,
    gap: int = -6,
) -> AlignmentResult:
    """Align ``a`` against ``b`` under the given mode.

    ``matrix`` defaults to BLOSUM62 — pass :func:`repro.bio.matrices.dna_matrix`
    for nucleotide alignments. ``gap`` is the (negative) per-gap-character
    penalty.
    """
    if gap >= 0:
        raise ValueError(f"gap penalty must be negative, got {gap}")
    if matrix is None:
        matrix = blosum62()
    a_codes = matrix.encode(a)
    b_codes = matrix.encode(b)
    H = _score_matrix(a_codes, b_codes, matrix.matrix, gap, mode)

    if mode is AlignmentMode.GLOBAL:
        end = (len(a), len(b))
    elif mode is AlignmentMode.LOCAL:
        end = tuple(int(x) for x in np.unravel_index(np.argmax(H), H.shape))
        if H[end] == 0:
            # No positive-scoring segment pair at all.
            return AlignmentResult(mode, 0, 0, 0, 0, 0, "", "")
    else:  # OVERLAP: the alignment must consume A to its end (dovetail)
        # or consume B entirely (B contained in A); pick the better.
        j_best = int(np.argmax(H[len(a), :]))
        i_best = int(np.argmax(H[:, len(b)]))
        if H[len(a), j_best] >= H[i_best, len(b)]:
            end = (len(a), j_best)
        else:
            end = (i_best, len(b))

    return _traceback(a, b, a_codes, b_codes, matrix.matrix, gap, H, end, mode)


def global_align(a: str, b: str, **kwargs) -> AlignmentResult:
    """Needleman–Wunsch alignment of the full strings."""
    return align(a, b, mode=AlignmentMode.GLOBAL, **kwargs)


def local_align(a: str, b: str, **kwargs) -> AlignmentResult:
    """Smith–Waterman best local alignment."""
    return align(a, b, mode=AlignmentMode.LOCAL, **kwargs)


def overlap_align(
    a: str,
    b: str,
    *,
    matrix: ScoringMatrix | None = None,
    gap: int = -6,
) -> AlignmentResult:
    """Dovetail alignment: suffix of ``a`` against prefix of ``b``.

    This is the CAP3 overlap question ("does read A's tail continue into
    read B's head?"). A containment (all of ``b`` inside ``a``) is also
    detected and scored. DNA scoring is the sensible default here.
    """
    if matrix is None:
        matrix = dna_matrix()
    return align(a, b, mode=AlignmentMode.OVERLAP, matrix=matrix, gap=gap)
