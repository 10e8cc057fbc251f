"""blast2cap3: protein-guided assembly — the paper's subject system.

The algorithm (faithful to Vince Buffalo's original script):

1. load the assembled transcripts (``transcripts.fasta``),
2. parse the BLASTX tabular alignments (``alignments.out``),
3. cluster transcripts by shared best protein hit,
4. pass each cluster to CAP3 and collect the merged contigs,
5. concatenate contigs with every transcript that joined nothing.

The workflow decomposition (Figs. 2–3 of the paper) re-expresses steps
3–5 as a DAG whose ``run_cap3`` tasks over *n* cluster partitions run in
parallel; :mod:`repro.core.workflow_factory` builds those DAGs for the
Sandhills and OSG variants. :func:`~repro.core.blast2cap3.blast2cap3_parallel`
is the one in-process driver — the original script at ``jobs=1``, the
same partitioning over a thread or process pool above it — and
:mod:`repro.core.cache` the content-addressed result store that lets
n-sweeps and rescue rounds skip unchanged work.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.blast2cap3 import Blast2Cap3Result, blast2cap3_parallel
    from repro.core.cache import CacheStats, ResultCache
    from repro.core.clusters import ProteinCluster, cluster_transcripts
    from repro.core.partition import partition_clusters

_EXPORTS = {
    "Blast2Cap3Result": ("repro.core.blast2cap3", "Blast2Cap3Result"),
    "blast2cap3_parallel": ("repro.core.blast2cap3", "blast2cap3_parallel"),
    "CacheStats": ("repro.core.cache", "CacheStats"),
    "ResultCache": ("repro.core.cache", "ResultCache"),
    "ProteinCluster": ("repro.core.clusters", "ProteinCluster"),
    "cluster_transcripts": ("repro.core.clusters", "cluster_transcripts"),
    "partition_clusters": ("repro.core.partition", "partition_clusters"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "ProteinCluster",
    "cluster_transcripts",
    "Blast2Cap3Result",
    "blast2cap3_parallel",
    "CacheStats",
    "ResultCache",
    "partition_clusters",
]
