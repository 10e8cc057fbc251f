"""The public CAP3-like assembly API.

``assemble(reads)`` returns contigs (merged sequences with their member
reads) and singlets (reads that joined nothing), which is exactly the
CAP3 output contract blast2cap3 consumes: it concatenates per-cluster
contigs and records which transcripts were merged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.bio.fasta import FastaRecord
from repro.cap3.consensus import call_consensus
from repro.cap3.graph import build_layouts

__all__ = ["Cap3Params", "Contig", "AssemblyResult", "assemble"]


@dataclass(frozen=True)
class Cap3Params:
    """Assembly thresholds, named after CAP3's flags where one exists.

    ``min_overlap_length`` is CAP3's ``-o`` (default 40),
    ``min_identity`` its ``-p`` (default 90 %, expressed as a fraction).
    """

    min_overlap_length: int = 40
    min_identity: float = 0.90
    kmer_size: int = 12
    min_shared_kmers: int = 3

    def __post_init__(self) -> None:
        if self.min_overlap_length < 1:
            raise ValueError("min_overlap_length must be >= 1")
        if not 0.0 < self.min_identity <= 1.0:
            raise ValueError("min_identity must be in (0, 1]")
        if self.kmer_size < 4:
            raise ValueError("kmer_size must be >= 4")


@dataclass(frozen=True)
class Contig:
    """A merged sequence and the reads it absorbed (layout + contained).

    ``placements`` records each member's layout position as
    ``(read_id, offset, flipped)``; contained reads inherit their
    container's offset (an approximation: their true offset lies within
    the container's span).
    """

    id: str
    seq: str
    members: tuple[str, ...]
    placements: tuple[tuple[str, int, bool], ...] = ()

    def __post_init__(self) -> None:
        if len(self.members) < 2:
            raise ValueError("a contig must absorb at least two reads")
        if self.placements:
            placed = {p[0] for p in self.placements}
            if placed != set(self.members):
                raise ValueError("placements must cover exactly the members")

    def to_fasta(self) -> FastaRecord:
        desc = f"{self.id} members={len(self.members)}"
        return FastaRecord(id=self.id, seq=self.seq, description=desc)


@dataclass
class AssemblyResult:
    """Contigs plus singlets; together they cover every input read once."""

    contigs: list[Contig] = field(default_factory=list)
    singlets: list[FastaRecord] = field(default_factory=list)

    @property
    def merged_read_ids(self) -> set[str]:
        """Ids of reads absorbed into some contig."""
        return {rid for contig in self.contigs for rid in contig.members}

    @property
    def output_records(self) -> list[FastaRecord]:
        """Contigs then singlets, as CAP3's combined output file."""
        return [c.to_fasta() for c in self.contigs] + list(self.singlets)

    def sequence_count(self) -> int:
        """Number of output sequences (contigs + singlets)."""
        return len(self.contigs) + len(self.singlets)


def assemble(
    reads: Sequence[FastaRecord] | Iterable[FastaRecord],
    params: Cap3Params = Cap3Params(),
    *,
    contig_prefix: str = "Contig",
) -> AssemblyResult:
    """Assemble reads into contigs and singlets.

    Input ids must be unique. The result is deterministic for a fixed
    input order (overlap ties break on read ids).
    """
    read_list = list(reads)
    by_id: dict[str, str] = {}
    records: dict[str, FastaRecord] = {}
    for record in read_list:
        if record.id in by_id:
            raise ValueError(f"duplicate read id: {record.id!r}")
        by_id[record.id] = record.seq
        records[record.id] = record

    layouts, contained = build_layouts(
        by_id,
        k=params.kmer_size,
        min_shared_kmers=params.min_shared_kmers,
        min_length=params.min_overlap_length,
        min_identity=params.min_identity,
    )

    # Attach contained reads to the contig holding their container,
    # resolving chains of containment to the final container.
    def resolve_container(rid: str) -> str:
        seen = set()
        while rid in contained and rid not in seen:
            seen.add(rid)
            rid = contained[rid]
        return rid

    container_members: dict[str, list[str]] = {}
    for inner in contained:
        container_members.setdefault(resolve_container(inner), []).append(inner)

    contigs: list[Contig] = []
    absorbed: set[str] = set(contained)
    for i, layout in enumerate(layouts, start=1):
        members = list(layout.read_ids)
        placements = [
            (placed.read_id, placed.offset, placed.flipped)
            for placed in layout.reads
        ]
        layout_offset = {p.read_id: p.offset for p in layout.reads}
        for rid in layout.read_ids:
            for inner in container_members.get(rid, ()):
                members.append(inner)
                placements.append((inner, layout_offset[rid], False))
        consensus = call_consensus(layout, by_id)
        contigs.append(
            Contig(
                id=f"{contig_prefix}{i}",
                seq=consensus,
                members=tuple(members),
                placements=tuple(placements),
            )
        )
        absorbed.update(members)

    # A containment whose container stayed a singlet still merges the
    # pair: emit the container as a two-member "contig" (CAP3 does the
    # same — the container's sequence is the consensus).
    next_idx = len(contigs) + 1
    for container, inners in container_members.items():
        if container in absorbed:
            continue
        contigs.append(
            Contig(
                id=f"{contig_prefix}{next_idx}",
                seq=by_id[container],
                members=tuple([container] + inners),
                placements=tuple(
                    (rid, 0, False) for rid in [container] + inners
                ),
            )
        )
        absorbed.add(container)
        next_idx += 1

    singlets = [
        records[rid] for rid in by_id if rid not in absorbed
    ]
    return AssemblyResult(contigs=contigs, singlets=singlets)
