"""The serial blast2cap3 driver as ``repro.core.blast2cap3`` had it
beside the parallel one.

The original script's loop: cluster transcripts by best protein hit,
run CAP3 on each mergeable cluster one after another, then concatenate
the per-cluster outputs with everything that stayed unmerged.
:func:`repro.core.blast2cap3.blast2cap3_parallel` is now the only
driver — at ``jobs=1`` it merges one cluster at a time inline — and
must return this result record for record, in this order, with this
accounting, for every ``jobs`` / ``n`` / ``strategy`` / ``executor`` /
cache state.

One thing is not as it was: an alignment naming a transcript the FASTA
lacks is refused by the driver before clustering (one ``ValueError``);
here it is whatever ``KeyError`` the loop reaches first.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.bio.fasta import FastaRecord
from repro.blast.tabular import TabularHit
from repro.cap3.assembler import Cap3Params
from repro.core.blast2cap3 import Blast2Cap3Result, merge_cluster
from repro.core.clusters import cluster_transcripts

__all__ = ["blast2cap3_serial"]


def blast2cap3_serial(
    transcripts: Sequence[FastaRecord] | Iterable[FastaRecord],
    hits: Iterable[TabularHit],
    *,
    cap3_params: Cap3Params = Cap3Params(),
    evalue_cutoff: float = 1e-5,
) -> Blast2Cap3Result:
    """Protein-guided assembly, serially, cluster by cluster."""
    transcript_list = list(transcripts)
    by_id = {t.id: t for t in transcript_list}
    if len(by_id) != len(transcript_list):
        raise ValueError("duplicate transcript ids")

    clusters, unaligned = cluster_transcripts(
        hits,
        evalue_cutoff=evalue_cutoff,
        known_transcripts=[t.id for t in transcript_list],
    )

    result = Blast2Cap3Result(
        input_count=len(transcript_list),
        cluster_count=len(clusters),
        mergeable_cluster_count=sum(1 for c in clusters if c.is_mergeable),
    )

    for cluster in clusters:
        if not cluster.is_mergeable:
            result.unjoined.extend(by_id[t] for t in cluster.transcript_ids)
            continue
        contigs, singlets, merged = merge_cluster(
            cluster, by_id, cap3_params
        )
        result.joined.extend(contigs)
        result.unjoined.extend(singlets)
        result.merged_transcript_count += len(merged)

    result.unjoined.extend(by_id[t] for t in unaligned)
    return result
