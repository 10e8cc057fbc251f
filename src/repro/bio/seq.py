"""DNA and protein sequence primitives.

Implements the subset of Biopython that blast2cap3 and our BLASTX-like
search need: complementation, the standard codon table, frame translation
and six-frame translation (the "X" in BLASTX), plus validation helpers.

Sequences are plain ``str`` throughout the package — profiling showed the
workloads here are dominated by alignment kernels (which convert to NumPy
integer arrays at their boundary), so a sequence class would add overhead
without buying speed.
"""

from __future__ import annotations

from typing import Iterator

__all__ = [
    "DNA_ALPHABET",
    "PROTEIN_ALPHABET",
    "CODON_TABLE",
    "START_CODONS",
    "STOP_SYMBOL",
    "complement",
    "reverse_complement",
    "translate",
    "six_frame_translations",
    "is_dna",
    "is_protein",
]

#: Canonical DNA bases plus the ambiguity code ``N``.
DNA_ALPHABET = "ACGTN"

#: The 20 standard amino acids plus ``X`` (unknown) and ``*`` (stop).
PROTEIN_ALPHABET = "ACDEFGHIKLMNPQRSTVWYX*"

#: Translation-stop marker emitted by :func:`translate`.
STOP_SYMBOL = "*"

#: NCBI translation table 1 (the standard code).
CODON_TABLE: dict[str, str] = {
    "TTT": "F", "TTC": "F", "TTA": "L", "TTG": "L",
    "CTT": "L", "CTC": "L", "CTA": "L", "CTG": "L",
    "ATT": "I", "ATC": "I", "ATA": "I", "ATG": "M",
    "GTT": "V", "GTC": "V", "GTA": "V", "GTG": "V",
    "TCT": "S", "TCC": "S", "TCA": "S", "TCG": "S",
    "CCT": "P", "CCC": "P", "CCA": "P", "CCG": "P",
    "ACT": "T", "ACC": "T", "ACA": "T", "ACG": "T",
    "GCT": "A", "GCC": "A", "GCA": "A", "GCG": "A",
    "TAT": "Y", "TAC": "Y", "TAA": "*", "TAG": "*",
    "CAT": "H", "CAC": "H", "CAA": "Q", "CAG": "Q",
    "AAT": "N", "AAC": "N", "AAA": "K", "AAG": "K",
    "GAT": "D", "GAC": "D", "GAA": "E", "GAG": "E",
    "TGT": "C", "TGC": "C", "TGA": "*", "TGG": "W",
    "CGT": "R", "CGC": "R", "CGA": "R", "CGG": "R",
    "AGT": "S", "AGC": "S", "AGA": "R", "AGG": "R",
    "GGT": "G", "GGC": "G", "GGA": "G", "GGG": "G",
}

#: Codons treated as translation starts by ORF finders.
START_CODONS = frozenset({"ATG"})

_COMPLEMENT = str.maketrans("ACGTNacgtn", "TGCANtgcan")


def complement(seq: str) -> str:
    """Base-wise complement, preserving case; ``N`` maps to ``N``.

    >>> complement("ACGTN")
    'TGCAN'
    """
    return seq.translate(_COMPLEMENT)


def reverse_complement(seq: str) -> str:
    """Reverse complement of a DNA string.

    >>> reverse_complement("ATGC")
    'GCAT'
    """
    return complement(seq)[::-1]


def translate(seq: str, *, frame: int = 0, to_stop: bool = False) -> str:
    """Translate a DNA string into protein, standard code.

    ``frame`` is 0, 1 or 2 (offset into the forward strand). Trailing
    bases that do not fill a codon are ignored. Codons containing ``N``
    (or any non-ACGT character) translate to ``X``.

    >>> translate("ATGGCC")
    'MA'
    >>> translate("ATGTAAGGG", to_stop=True)
    'M'
    """
    if frame not in (0, 1, 2):
        raise ValueError(f"frame must be 0, 1 or 2, got {frame}")
    seq = seq.upper()
    out: list[str] = []
    for i in range(frame, len(seq) - 2, 3):
        aa = CODON_TABLE.get(seq[i : i + 3], "X")
        if aa == STOP_SYMBOL and to_stop:
            break
        out.append(aa)
    return "".join(out)


def six_frame_translations(seq: str) -> Iterator[tuple[int, str]]:
    """Yield ``(frame, protein)`` for all six reading frames.

    Frames follow BLAST convention: +1, +2, +3 on the forward strand and
    -1, -2, -3 on the reverse complement. Frame ``+k`` starts at forward
    offset ``k-1``; frame ``-k`` starts at offset ``k-1`` of the reverse
    complement.

    >>> dict(six_frame_translations("ATGGCC"))[1]
    'MA'
    """
    rc = reverse_complement(seq)
    for offset in range(3):
        yield offset + 1, translate(seq, frame=offset)
    for offset in range(3):
        yield -(offset + 1), translate(rc, frame=offset)


def is_dna(seq: str) -> bool:
    """True if every character is an (upper- or lower-case) DNA base or N."""
    return not seq or all(c in "ACGTNacgtn" for c in seq)


def is_protein(seq: str) -> bool:
    """True if every character is a standard amino-acid code, X or ``*``."""
    return not seq or all(c.upper() in PROTEIN_ALPHABET for c in seq)
