"""Content-addressed result cache for blast2cap3's expensive payloads.

The paper re-plans the *same* inputs at many ``n`` values (10, 100, 300,
500) and re-runs failed workflows through rescue DAGs — both cases
recompute per-cluster CAP3 merges and BLASTX hit batches whose inputs
have not changed. This module keys those results by the SHA-256 of
exactly what determines them (member sequences + parameters), so an
n-sweep or a :func:`~repro.resilience.recovery.run_with_recovery`
rescue round recomputes only what actually changed.

Store layout: one JSON file per entry under
``<root>/<kind>/<key[:2]>/<key>.json``, written with the atomic-write
helpers, so a crash mid-``put`` never leaves a truncated entry behind
— and a truncated or hand-corrupted entry is *treated as a miss* and
recomputed, never a crash.

Observability: every lookup emits a ``cache.hit`` / ``cache.miss``
event on an optional :class:`~repro.observe.bus.EventBus` and bumps
``cache_hits_total{kind=…}`` / ``cache_misses_total{kind=…}`` counters
on an optional :class:`~repro.observe.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.bio.fasta import FastaRecord
from repro.blast.tabular import TabularHit, parse_line
from repro.cap3.assembler import Cap3Params
from repro.util.iolib import atomic_write

if TYPE_CHECKING:  # optional wire-ins, never required at runtime
    from repro.blast.blastx import BlastXParams
    from repro.blast.database import ProteinDatabase
    from repro.core.clusters import ProteinCluster
    from repro.observe.bus import EventBus
    from repro.observe.metrics import MetricsRegistry

__all__ = [
    "CacheStats",
    "ResultCache",
    "cluster_merge_key",
    "lookup_cluster_merge",
    "store_cluster_merge",
    "cached_merge_cluster",
    "database_digest",
    "blastx_batch_key",
    "cached_blastx_hits",
]


@dataclass
class CacheStats:
    """Lookup/store accounting for one :class:`ResultCache`."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    corrupt: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class ResultCache:
    """A persistent content-addressed key → JSON-value store.

    Keys are hex SHA-256 digests computed by the domain helpers below;
    values are JSON-able objects. ``get`` returns ``None`` on a miss
    *or* on a corrupt entry (truncated JSON, wrong schema) — corruption
    is counted separately in :attr:`stats` but behaves like a miss, so
    a damaged store degrades to recomputation, never to a crash.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        bus: "EventBus | None" = None,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        self.root = Path(root)
        self.bus = bus
        self.registry = registry
        self.stats = CacheStats()

    def path_for(self, kind: str, key: str) -> Path:
        """Where an entry lives (two-level fan-out keeps dirs small)."""
        return self.root / kind / key[:2] / f"{key}.json"

    def _observe(self, hit: bool, kind: str, key: str) -> None:
        if self.registry is not None:
            name = "cache_hits_total" if hit else "cache_misses_total"
            self.registry.counter(name, {"kind": kind}).inc()
        if self.bus is not None:
            from repro.observe.events import EventKind, RunEvent

            self.bus.emit(
                RunEvent(
                    EventKind.CACHE_HIT if hit else EventKind.CACHE_MISS,
                    time.time(),
                    detail={"kind": kind, "key": key},
                )
            )

    def get(self, kind: str, key: str) -> object | None:
        """The stored value, or ``None`` on miss/corruption."""
        path = self.path_for(kind, key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
            if not isinstance(entry, dict) or entry.get("key") != key:
                raise ValueError("schema mismatch")
            value = entry["value"]
        except FileNotFoundError:
            self.stats.misses += 1
            self._observe(False, kind, key)
            return None
        except (OSError, ValueError, KeyError):
            # Truncated write, bit rot, or a foreign file: recompute.
            self.stats.corrupt += 1
            self.stats.misses += 1
            self._observe(False, kind, key)
            return None
        self.stats.hits += 1
        self._observe(True, kind, key)
        return value

    def put(self, kind: str, key: str, value: object) -> None:
        """Store ``value`` under ``(kind, key)`` atomically."""
        entry = {"key": key, "kind": kind, "value": value}
        atomic_write(
            self.path_for(kind, key),
            json.dumps(entry, separators=(",", ":"), sort_keys=True),
        )
        self.stats.puts += 1


def _digest(parts: Iterable[object]) -> str:
    """SHA-256 over a canonical JSON rendering of ``parts``."""
    h = hashlib.sha256()
    for part in parts:
        h.update(
            json.dumps(part, separators=(",", ":"), sort_keys=True).encode()
        )
        h.update(b"\x00")
    return h.hexdigest()


def _params_dict(params: object) -> dict:
    """A dataclass's fields as JSON-able primitives (nested OK)."""
    return dataclasses.asdict(params)  # type: ignore[call-overload]


def cluster_merge_key(
    cluster: "ProteinCluster",
    transcripts: Mapping[str, FastaRecord],
    params: Cap3Params,
) -> str:
    """Key for one cluster's CAP3 merge: member sequences + params.

    The member *order* is part of the key — CAP3 layout tie-breaks
    depend on it, so reordered members are a different computation.
    The ``<protein>.Contig`` prefix ``merge_cluster`` names contigs
    with is hashed too; stores already on disk depend on it.
    """
    members = [
        (tid, transcripts[tid].seq, transcripts[tid].description)
        for tid in cluster.transcript_ids
    ]
    return _digest(
        [
            "cluster-merge/v1",
            cluster.protein_id,
            f"{cluster.protein_id}.Contig",
            members,
            _params_dict(params),
        ]
    )


MergeOutcome = tuple[list[FastaRecord], list[FastaRecord], set[str]]


def lookup_cluster_merge(
    cache: ResultCache | None,
    cluster: "ProteinCluster",
    transcripts: Mapping[str, FastaRecord],
    params: Cap3Params,
) -> MergeOutcome | None:
    """The stored ``(contigs, singlets, merged_ids)`` of ``cluster``, or
    ``None``: no cache, a miss, or an entry that does not decode (schema
    drift — counted corrupt, treated as a miss).

    Singlets are stored by id and rebuilt from ``transcripts``, which is
    bit-identical to the uncached return because ``merge_cluster``
    returns the input records themselves as singlets.
    """
    if cache is None:
        return None
    value = cache.get(
        CLUSTER_MERGE_KIND, cluster_merge_key(cluster, transcripts, params)
    )
    if value is None:
        return None
    try:
        contigs = [
            FastaRecord(id=c[0], seq=c[1], description=c[2])
            for c in value["contigs"]  # type: ignore[index]
        ]
        singlets = [transcripts[tid] for tid in value["singlets"]]  # type: ignore[index]
        merged = set(value["merged"])  # type: ignore[index]
    except (KeyError, IndexError, TypeError, ValueError):
        cache.stats.corrupt += 1
        return None
    return contigs, singlets, merged


def store_cluster_merge(
    cache: ResultCache | None,
    cluster: "ProteinCluster",
    transcripts: Mapping[str, FastaRecord],
    params: Cap3Params,
    outcome: MergeOutcome,
) -> None:
    """Write ``cluster``'s merge under the key
    :func:`lookup_cluster_merge` reads (nothing without a cache)."""
    if cache is None:
        return
    contigs, singlets, merged = outcome
    cache.put(
        CLUSTER_MERGE_KIND,
        cluster_merge_key(cluster, transcripts, params),
        {
            "contigs": [[c.id, c.seq, c.description] for c in contigs],
            "singlets": [s.id for s in singlets],
            "merged": sorted(merged),
        },
    )


def cached_merge_cluster(
    cache: ResultCache | None,
    cluster: "ProteinCluster",
    transcripts: Mapping[str, FastaRecord],
    params: Cap3Params = Cap3Params(),
) -> MergeOutcome:
    """:func:`repro.core.blast2cap3.merge_cluster`, through the cache.

    With ``cache=None`` this is exactly ``merge_cluster``.
    """
    from repro.core.blast2cap3 import merge_cluster

    outcome = lookup_cluster_merge(cache, cluster, transcripts, params)
    if outcome is None:
        outcome = merge_cluster(cluster, transcripts, params)
        store_cluster_merge(cache, cluster, transcripts, params, outcome)
    return outcome


def database_digest(database: "ProteinDatabase") -> str:
    """Content digest of a protein database (records + word size)."""
    return _digest(
        [
            "protein-db/v1",
            database.word_size,
            [(r.id, r.seq) for r in database.records],
        ]
    )


def blastx_batch_key(
    batch: Sequence[FastaRecord],
    db_digest: str,
    params: "BlastXParams",
) -> str:
    """Key for one BLASTX query batch against one database."""
    return _digest(
        [
            "blastx-batch/v1",
            db_digest,
            [(r.id, r.seq) for r in batch],
            _params_dict(params),
        ]
    )


def cached_blastx_hits(
    cache: ResultCache | None,
    transcripts: Sequence[FastaRecord],
    database: "ProteinDatabase",
    params: "BlastXParams | None" = None,
    *,
    batch_size: int = 32,
) -> list[TabularHit]:
    """BLASTX the transcripts, caching hit batches by content.

    Queries are processed in fixed-size batches; each batch's hits are
    stored as tabular lines (the format round-trips exactly), so a
    re-run over unchanged transcripts + database + params reads every
    batch back instead of searching.
    """
    from repro.blast.blastx import BlastXParams, blastx_many

    params = params or BlastXParams()
    if cache is None:
        return list(blastx_many(transcripts, database, params))
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")

    digest = database_digest(database)
    hits: list[TabularHit] = []
    for start in range(0, len(transcripts), batch_size):
        batch = transcripts[start : start + batch_size]
        key = blastx_batch_key(batch, digest, params)
        value = cache.get("blastx-batch", key)
        if isinstance(value, list):
            try:
                hits.extend(parse_line(line) for line in value)
                continue
            except (ValueError, TypeError):
                cache.stats.corrupt += 1
        batch_hits = list(blastx_many(batch, database, params))
        cache.put("blastx-batch", key, [h.format() for h in batch_hits])
        hits.extend(batch_hits)
    return hits


#: Default cache-kind names, for callers that report per-kind stats.
CLUSTER_MERGE_KIND = "cluster-merge"
BLASTX_BATCH_KIND = "blastx-batch"
