"""The BLASTX driver: six-frame translated search of DNA queries
against a protein database.

Pipeline per query and frame:

1. translate the frame (:func:`repro.bio.seq.six_frame_translations`),
2. neighborhood-word seeding (:mod:`repro.blast.seeds`),
3. two-hit confirmation, then ungapped X-drop extension, with a
   per-diagonal cache so one HSP is not rediscovered from every seed,
4. gapped Smith–Waterman extension around qualifying ungapped HSPs,
5. e-value assignment (Karlin–Altschul, gapped parameters) and
   per-subject culling of redundant HSPs,
6. coordinate mapping back to DNA space (minus-frame hits get
   ``qstart > qend``, as NCBI BLASTX reports them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.bio.alignment import AlignmentResult
from repro.bio.fasta import FastaRecord
from repro.bio.seq import six_frame_translations
from repro.bio.stats import GAPPED_BLOSUM62, KarlinAltschulParams, bit_score, evalue
from repro.blast.database import ProteinDatabase
from repro.blast.extend import gapped_extend, ungapped_extend
from repro.blast.seeds import find_seed_hits, two_hit_filter
from repro.blast.tabular import TabularHit

__all__ = ["BlastXParams", "blastx", "blastx_many"]


@dataclass(frozen=True)
class BlastXParams:
    """Tunables for the translated search.

    Defaults follow NCBI blastx where a direct analogue exists
    (word size 3, T=11, X-drop 16); ``gap`` is a linear-gap
    approximation of the 11/1 affine default, and ``evalue_cutoff``
    matches the 1e-5 blast2cap3 runs typically use.
    """

    threshold: int = 11
    x_drop: int = 16
    gap: int = -11
    two_hit_window: int = 40
    two_hit: bool = True
    ungapped_trigger: int = 30
    window_pad: int = 50
    evalue_cutoff: float = 1e-5
    max_hits_per_query: int = 250
    ka_params: KarlinAltschulParams = GAPPED_BLOSUM62

    def __post_init__(self) -> None:
        if self.gap >= 0:
            raise ValueError("gap must be negative")
        if self.evalue_cutoff <= 0:
            raise ValueError("evalue_cutoff must be positive")


@dataclass
class _Candidate:
    """A gapped alignment plus the frame it came from."""

    frame: int
    subject_index: int
    alignment: AlignmentResult
    evalue: float = field(default=0.0)


def _frame_to_dna(
    frame: int, dna_len: int, p_start: int, p_end: int
) -> tuple[int, int]:
    """Map a half-open protein span in ``frame`` to 1-based inclusive
    DNA coordinates on the forward strand (BLASTX convention)."""
    if frame > 0:
        offset = frame - 1
        qstart = offset + 3 * p_start + 1
        qend = offset + 3 * p_end
    else:
        offset = -frame - 1
        # Position o (0-based) on the reverse complement maps to
        # forward-strand coordinate dna_len - o (1-based).
        first_rc = offset + 3 * p_start
        last_rc = offset + 3 * p_end - 1
        qstart = dna_len - first_rc
        qend = dna_len - last_rc
    return qstart, qend


def _alignment_counts(aln: AlignmentResult) -> tuple[int, int, int]:
    """(matches, mismatches, gap openings) of a gapped alignment."""
    matches = mismatches = gapopen = 0
    in_gap = False
    for x, y in zip(aln.aligned_a, aln.aligned_b):
        if x == "-" or y == "-":
            if not in_gap:
                gapopen += 1
                in_gap = True
            continue
        in_gap = False
        if x == y:
            matches += 1
        else:
            mismatches += 1
    return matches, mismatches, gapopen


def _cull_redundant(candidates: list[_Candidate]) -> list[_Candidate]:
    """Per subject, drop HSPs whose query span mostly overlaps a better
    scoring HSP's (the standard dominance culling)."""
    by_subject: dict[int, list[_Candidate]] = {}
    for cand in candidates:
        by_subject.setdefault(cand.subject_index, []).append(cand)
    kept: list[_Candidate] = []
    for group in by_subject.values():
        group.sort(key=lambda c: -c.alignment.score)
        accepted: list[_Candidate] = []
        for cand in group:
            a = cand.alignment
            redundant = False
            for better in accepted:
                b = better.alignment
                if cand.frame != better.frame:
                    continue
                lo = max(a.a_start, b.a_start)
                hi = min(a.a_end, b.a_end)
                span = a.a_end - a.a_start
                if span > 0 and (hi - lo) > 0.5 * span:
                    redundant = True
                    break
            if not redundant:
                accepted.append(cand)
        kept.extend(accepted)
    return kept


def blastx(
    query: FastaRecord,
    database: ProteinDatabase,
    params: BlastXParams = BlastXParams(),
) -> list[TabularHit]:
    """Search one DNA query against the database; returns tabular hits
    sorted by ascending e-value (ties broken by descending bit score)."""
    matrix = database.matrix
    sub = matrix.matrix
    candidates: list[_Candidate] = []

    encoded_subjects = list(database.encoded_subjects())
    subject_seqs = [r.seq for r in database.records]

    for frame, protein in six_frame_translations(query.seq):
        if len(protein) < database.word_size:
            continue
        query_codes = matrix.encode(protein)
        hits = find_seed_hits(
            query_codes, database, threshold=params.threshold
        )
        if params.two_hit:
            anchors = two_hit_filter(
                hits,
                word_size=database.word_size,
                window=params.two_hit_window,
            )
        else:
            anchors = list(hits)

        # Per-diagonal extension cache: skip anchors inside a span this
        # diagonal has already extended through.
        extended_until: dict[tuple[int, int], int] = {}
        for anchor in anchors:
            diag_key = (anchor.subject_index, anchor.diagonal)
            if anchor.query_offset < extended_until.get(diag_key, -1):
                continue
            hsp = ungapped_extend(
                query_codes,
                encoded_subjects[anchor.subject_index],
                anchor.query_offset,
                anchor.subject_offset,
                sub,
                x_drop=params.x_drop,
            )
            extended_until[diag_key] = hsp.q_end
            if hsp.score < params.ungapped_trigger:
                continue
            aln = gapped_extend(
                protein,
                subject_seqs[anchor.subject_index],
                hsp,
                matrix,
                gap=params.gap,
                window_pad=params.window_pad,
            )
            if aln.length == 0:
                continue
            candidates.append(_Candidate(frame, anchor.subject_index, aln))

    candidates = _cull_redundant(candidates)

    results: list[TabularHit] = []
    db_len = max(1, database.total_residues)
    # Query length in protein units for the statistics.
    m = max(1, len(query.seq) // 3)
    for cand in candidates:
        aln = cand.alignment
        e = evalue(
            aln.score,
            m,
            db_len,
            db_sequences=max(1, len(database)),
            params=params.ka_params,
        )
        if e > params.evalue_cutoff:
            continue
        matches, mismatches, gapopen = _alignment_counts(aln)
        qstart, qend = _frame_to_dna(
            cand.frame, len(query.seq), aln.a_start, aln.a_end
        )
        results.append(
            TabularHit(
                qseqid=query.id,
                sseqid=database.subject(cand.subject_index).id,
                pident=100.0 * matches / aln.length,
                length=aln.length,
                mismatch=mismatches,
                gapopen=gapopen,
                qstart=qstart,
                qend=qend,
                sstart=aln.b_start + 1,
                send=aln.b_end,
                evalue=e,
                bitscore=bit_score(aln.score, params.ka_params),
            )
        )

    results.sort(key=lambda h: (h.evalue, -h.bitscore))
    return results[: params.max_hits_per_query]


def blastx_many(
    queries: Iterable[FastaRecord] | Sequence[FastaRecord],
    database: ProteinDatabase,
    params: BlastXParams = BlastXParams(),
) -> Iterator[TabularHit]:
    """Search many queries, yielding hits grouped by query in input
    order — the layout blast2cap3 expects in ``alignments.out``."""
    for query in queries:
        yield from blastx(query, database, params)
