"""The blast2cap3 driver — the original script and the paper's
parallelisation of it, in one loop.

The script clusters transcripts by best protein hit, runs CAP3 on each
cluster **one after another** (the paper: "first one cluster of similar
transcripts is created and then is sent to CAP3 … repeated
consecutively for all possible clusters"), then concatenates the
per-cluster outputs with everything that stayed unmerged. The paper
turns that per-cluster loop (100 h) into ``n`` parallel ``run_cap3``
tasks (~3 h); :mod:`repro.core.workflow_factory` builds that workflow,
and :func:`blast2cap3_parallel` is the same decomposition in-process:
LPT-pack the clusters into ``n`` groups and merge the groups inline
(``jobs=1`` — the original script), on a thread pool or on a process
pool. Results are reassembled in cluster order, so every choice gives
the same records in the same order.

A :class:`~repro.core.cache.ResultCache` slots underneath: per-cluster
merges are looked up by content key before anything is dispatched, so
a warm cache (an n-sweep re-plan, a rescue-resubmit round) performs
zero CAP3 recomputations — only the lookups.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Literal, Mapping, Sequence

from repro.bio.fasta import FastaRecord
from repro.blast.tabular import TabularHit
from repro.cap3.assembler import Cap3Params, assemble
from repro.core.cache import (
    MergeOutcome,
    ResultCache,
    lookup_cluster_merge,
    store_cluster_merge,
)
from repro.core.clusters import ProteinCluster, cluster_transcripts
from repro.core.partition import Strategy, partition_clusters

__all__ = [
    "Blast2Cap3Result",
    "ExecutorKind",
    "blast2cap3_parallel",
    "merge_cluster",
]

ExecutorKind = Literal["process", "thread"]

_POOLS = {"process": ProcessPoolExecutor, "thread": ThreadPoolExecutor}

#: One work unit shipped to a worker: the cluster's position in the
#: cluster order, the cluster, and its member records.
_WorkItem = tuple[int, ProteinCluster, list[FastaRecord]]
#: What comes back: position, contigs, singlets, merged ids.
_WorkResult = tuple[int, list[FastaRecord], list[FastaRecord], set[str]]


@dataclass
class Blast2Cap3Result:
    """Outputs and bookkeeping of one blast2cap3 run.

    ``joined`` holds the CAP3 contigs produced inside clusters;
    ``unjoined`` holds every transcript that was not absorbed into any
    contig (cluster singlets, single-member clusters, and transcripts
    without protein hits). ``joined + unjoined`` is the final merged
    assembly.
    """

    joined: list[FastaRecord] = field(default_factory=list)
    unjoined: list[FastaRecord] = field(default_factory=list)
    input_count: int = 0
    cluster_count: int = 0
    mergeable_cluster_count: int = 0
    merged_transcript_count: int = 0

    @property
    def output_records(self) -> list[FastaRecord]:
        """The final assembly: contigs first, then unjoined transcripts."""
        return self.joined + self.unjoined

    @property
    def output_count(self) -> int:
        return len(self.joined) + len(self.unjoined)

    @property
    def reduction_fraction(self) -> float:
        """Fractional drop in sequence count (the paper's 8–9 % claim)."""
        if self.input_count == 0:
            return 0.0
        return 1.0 - self.output_count / self.input_count


def merge_cluster(
    cluster: ProteinCluster,
    transcripts: Mapping[str, FastaRecord],
    params: Cap3Params = Cap3Params(),
) -> MergeOutcome:
    """Run CAP3 on one cluster.

    Returns ``(contigs, singlets, merged_ids)``. Contig ids are
    namespaced by the cluster's protein so concatenating cluster outputs
    never collides.
    """
    members = []
    for tid in cluster.transcript_ids:
        try:
            members.append(transcripts[tid])
        except KeyError:
            raise KeyError(
                f"cluster {cluster.protein_id!r} references unknown "
                f"transcript {tid!r}"
            ) from None
    result = assemble(
        members, params, contig_prefix=f"{cluster.protein_id}.Contig"
    )
    contigs = [c.to_fasta() for c in result.contigs]
    return contigs, list(result.singlets), result.merged_read_ids


def _merge_group(
    group: list[_WorkItem], params: Cap3Params
) -> list[_WorkResult]:
    """Merge every cluster of one partition (runs inside a worker).

    Module-level and built from picklable pieces only, so the process
    pool can ship it; the thread pool and inline paths reuse it.
    """
    out: list[_WorkResult] = []
    for idx, cluster, members in group:
        by_id = {m.id: m for m in members}
        contigs, singlets, merged = merge_cluster(cluster, by_id, params)
        out.append((idx, contigs, singlets, merged))
    return out


def blast2cap3_parallel(
    transcripts: Sequence[FastaRecord] | Iterable[FastaRecord],
    hits: Iterable[TabularHit],
    *,
    jobs: int | None = None,
    n: int | None = None,
    strategy: Strategy = "balanced",
    cap3_params: Cap3Params = Cap3Params(),
    evalue_cutoff: float = 1e-5,
    cache: ResultCache | None = None,
    executor: ExecutorKind = "process",
) -> Blast2Cap3Result:
    """Protein-guided assembly, the per-cluster loop over ``jobs`` workers.

    Parameters mirror the paper's experiment: ``n`` is the partition
    count (their 10/100/300/500 sweep; defaults to ``jobs``), ``jobs``
    the worker-slot count (defaults to the CPU count), ``strategy``
    the cluster packer (``"balanced"`` LPT flattens the straggler
    effect the paper observed with naive splitting). ``jobs=1`` merges
    one cluster at a time inline — the original script; otherwise
    ``executor`` selects real processes (CPU-bound CAP3 work) or
    threads (deterministic under coverage/debug tooling).

    The output is the same for every ``jobs`` / ``n`` / ``strategy`` /
    ``executor`` / ``cache`` choice — same records, same order, same
    accounting — because per-cluster results are reassembled in cluster
    order regardless of how partitions were packed or which worker
    finished first.

    With ``cache`` given, per-cluster merges are served from the
    content-addressed store when present and written back when not.
    An alignment naming a transcript the FASTA lacks is a
    ``ValueError`` naming the first such transcript, before any work.
    """
    if jobs is None:
        jobs = max(1, os.cpu_count() or 2)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if n is None:
        n = jobs
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if executor not in _POOLS:
        raise ValueError(f"unknown executor: {executor!r}")

    transcript_list = list(transcripts)
    by_id = {t.id: t for t in transcript_list}
    if len(by_id) != len(transcript_list):
        raise ValueError("duplicate transcript ids")
    hits = list(hits)
    for hit in hits:
        if hit.qseqid not in by_id:
            raise ValueError(
                f"alignments name transcript {hit.qseqid!r}, "
                "which is not among the transcripts"
            )

    clusters, unaligned = cluster_transcripts(
        hits, evalue_cutoff=evalue_cutoff, known_transcripts=list(by_id)
    )

    result = Blast2Cap3Result(
        input_count=len(transcript_list),
        cluster_count=len(clusters),
        mergeable_cluster_count=sum(1 for c in clusters if c.is_mergeable),
    )

    # -- cache pass: serve what we can, collect the rest ----------------
    outcomes: dict[int, MergeOutcome] = {}
    pending: dict[int, ProteinCluster] = {}
    for idx, cluster in enumerate(clusters):
        if cluster.is_mergeable:
            outcome = lookup_cluster_merge(cache, cluster, by_id, cap3_params)
            if outcome is None:
                pending[idx] = cluster
            else:
                outcomes[idx] = outcome

    # -- partition pass: LPT-pack the remaining clusters into n groups --
    index_of = {cluster.protein_id: idx for idx, cluster in pending.items()}
    work: list[list[_WorkItem]] = [
        [
            (index_of[c.protein_id], c, [by_id[t] for t in c.transcript_ids])
            for c in group
        ]
        for group in partition_clusters(list(pending.values()), n, strategy=strategy)
        if group
    ]

    # -- fan-out pass: inline at one job, else one pool -----------------
    if jobs == 1 or len(work) <= 1:
        batches = [_merge_group(group, cap3_params) for group in work]
    else:
        with _POOLS[executor](max_workers=min(jobs, len(work))) as pool:
            futures = [pool.submit(_merge_group, g, cap3_params) for g in work]
            batches = [f.result() for f in futures]
    for batch in batches:
        for idx, contigs, singlets, merged in batch:
            outcomes[idx] = (contigs, singlets, merged)
            store_cluster_merge(cache, pending[idx], by_id, cap3_params, outcomes[idx])

    # -- reassembly pass: in cluster order, as the script did -----------
    for idx, cluster in enumerate(clusters):
        if not cluster.is_mergeable:
            result.unjoined.extend(by_id[t] for t in cluster.transcript_ids)
            continue
        contigs, singlets, merged = outcomes[idx]
        result.joined.extend(contigs)
        result.unjoined.extend(singlets)
        result.merged_transcript_count += len(merged)

    result.unjoined.extend(by_id[t] for t in unaligned)
    return result
