"""Overlap graph construction and greedy layout.

Given candidate pairs, this module:

1. **orients** reads — a BFS over the pair graph assigns each connected
   component a consistent strand labelling (edges vote via
   :func:`repro.cap3.overlap.strands_agree`; conflicting edges are
   dropped, which at worst splits a contig, never corrupts one);
2. removes **contained** reads (recording their container, since they
   still count as merged members of the contig);
3. runs the classic **greedy layout**: dovetail overlaps in descending
   score order, accepted when both involved ends are free and the union
   would not close a cycle. The result is a set of read chains with
   layout offsets, ready for consensus calling.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Mapping

from repro.bio.seq import reverse_complement
from repro.cap3.overlap import (
    Overlap,
    OverlapKind,
    candidate_pairs,
    compute_overlap,
    strands_agree,
)

__all__ = ["LayoutRead", "Layout", "orient_reads", "build_layouts"]


@dataclass(frozen=True)
class LayoutRead:
    """One read placed in a layout at ``offset`` (chain coordinates)."""

    read_id: str
    offset: int
    flipped: bool


@dataclass
class Layout:
    """An ordered chain of reads forming one future contig."""

    reads: list[LayoutRead] = field(default_factory=list)

    @property
    def read_ids(self) -> list[str]:
        return [r.read_id for r in self.reads]

    def __len__(self) -> int:
        return len(self.reads)


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict[str, str] = {}

    def find(self, x: str) -> str:
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:  # path compression
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: str, b: str) -> None:
        self.parent[self.find(a)] = self.find(b)


def orient_reads(
    reads: Mapping[str, str],
    pairs: list[tuple[str, str]],
    *,
    k: int = 12,
) -> dict[str, bool]:
    """Assign a flip flag per read so paired overlaps are same-strand.

    BFS 2-colouring over the pair graph. When an edge's strand vote
    contradicts the colouring already fixed by earlier edges, the edge is
    simply ignored (it will not produce an overlap later either, because
    the normalised sequences won't align).
    """
    adjacency: dict[str, list[tuple[str, bool]]] = {rid: [] for rid in reads}
    for a, b in pairs:
        agree = strands_agree(reads[a], reads[b], k=k)
        adjacency[a].append((b, agree))
        adjacency[b].append((a, agree))

    flipped: dict[str, bool] = {}
    for start in reads:
        if start in flipped:
            continue
        flipped[start] = False
        queue = deque([start])
        while queue:
            current = queue.popleft()
            for neighbor, agree in adjacency[current]:
                want = flipped[current] if agree else not flipped[current]
                if neighbor not in flipped:
                    flipped[neighbor] = want
                    queue.append(neighbor)
                # Conflicts are dropped silently; see docstring.
    return flipped


def _oriented(reads: Mapping[str, str], flipped: Mapping[str, bool]) -> dict[str, str]:
    return {
        rid: (reverse_complement(seq) if flipped.get(rid, False) else seq)
        for rid, seq in reads.items()
    }


def build_layouts(
    reads: Mapping[str, str],
    *,
    k: int = 12,
    min_shared_kmers: int = 3,
    min_length: int = 40,
    min_identity: float = 0.90,
) -> tuple[list[Layout], dict[str, str]]:
    """Compute layouts (chains with offsets) and the containment map.

    Returns ``(layouts, contained)`` where ``contained`` maps a contained
    read id to its container's id. Reads that join nothing do not appear
    in any layout — callers emit them as singlets.
    """
    pairs = list(
        candidate_pairs(reads, k=k, min_shared_kmers=min_shared_kmers)
    )
    flipped = orient_reads(reads, pairs, k=k)
    oriented = _oriented(reads, flipped)

    overlaps: list[Overlap] = []
    for a, b in pairs:
        ov = compute_overlap(
            a, oriented[a], b, oriented[b],
            min_length=min_length, min_identity=min_identity,
        )
        if ov is not None:
            overlaps.append(ov)
    overlaps.sort(key=lambda o: (-o.score, o.a, o.b))

    # Containment pass: a contained read is represented by its container.
    contained: dict[str, str] = {}
    for ov in overlaps:
        if ov.kind is not OverlapKind.CONTAINMENT:
            continue
        if ov.b in contained or ov.a in contained:
            continue
        contained[ov.b] = ov.a

    # Greedy dovetail layout over the remaining reads.
    uf = _UnionFind()
    next_read: dict[str, tuple[str, int]] = {}  # a -> (b, b_offset_delta)
    prev_read: dict[str, str] = {}
    for ov in overlaps:
        if ov.kind is not OverlapKind.DOVETAIL:
            continue
        a, b = ov.a, ov.b
        if a in contained or b in contained:
            continue
        if a in next_read or b in prev_read:
            continue
        if uf.find(a) == uf.find(b):
            continue  # would close a cycle
        next_read[a] = (b, ov.a_start)
        prev_read[b] = a
        uf.union(a, b)

    layouts: list[Layout] = []
    placed: set[str] = set()
    for rid in reads:
        if rid in contained or rid in prev_read or rid in placed:
            continue
        if rid not in next_read:
            continue  # isolated read: singlet, no layout
        chain: list[LayoutRead] = []
        offset = 0
        current: str | None = rid
        while current is not None:
            chain.append(
                LayoutRead(
                    read_id=current,
                    offset=offset,
                    flipped=flipped.get(current, False),
                )
            )
            placed.add(current)
            step = next_read.get(current)
            if step is None:
                current = None
            else:
                current, delta = step
                offset += delta
        layouts.append(Layout(reads=chain))
    return layouts, contained
