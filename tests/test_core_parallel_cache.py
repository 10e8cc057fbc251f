"""The one blast2cap3 driver ≡ the original serial loop, and the
content-addressed cache.

The guarantees under test:

* :func:`repro.core.blast2cap3.blast2cap3_parallel` is record-for-record
  identical to the serial loop kept in ``tests/oracles/serial_blast2cap3.py``
  for *every* ``jobs`` / ``n`` / ``strategy`` / ``executor`` and cache
  state (none, cold, warm, corrupt);
* a warm :class:`repro.core.cache.ResultCache` changes timings, never
  outputs — and a fully warm cache performs **zero** CAP3
  recomputations (hit count == mergeable cluster count);
* a corrupted cache entry degrades to recomputation, never a crash;
* the workflow's ``run_cap3`` tasks and the driver read and write one
  store: what either wrote is all hits for the other.
"""

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bio.fasta import write_fasta
from repro.blast.blastx import BlastXParams, blastx_many
from repro.blast.database import ProteinDatabase
from repro.blast.tabular import write_tabular
from repro.cap3.assembler import Cap3Params
from repro.core.blast2cap3 import blast2cap3_parallel
from repro.core.clusters import cluster_transcripts
from repro.core.cache import (
    CLUSTER_MERGE_KIND,
    CacheStats,
    ResultCache,
    cached_blastx_hits,
    cached_merge_cluster,
    cluster_merge_key,
)
from repro.core.workflow_factory import run_local
from repro.datagen.transcripts import TranscriptomeSpec
from repro.datagen.workload import generate_blast2cap3_workload
from repro.observe.bus import EventBus, EventRecorder
from repro.observe.events import EventKind
from repro.observe.metrics import MetricsRegistry, instrument
from tests.oracles.serial_blast2cap3 import blast2cap3_serial


@pytest.fixture(scope="module")
def workload():
    return generate_blast2cap3_workload(
        n_proteins=10,
        spec=TranscriptomeSpec(
            mean_fragments_per_gene=3.0,
            noise_transcripts=4,
            error_rate=0.002,
        ),
        seed=101,
    )


@pytest.fixture(scope="module")
def serial(workload):
    return blast2cap3_serial(workload.transcripts, workload.hits)


@pytest.fixture(scope="module")
def warm_store(workload, tmp_path_factory):
    """A store holding every mergeable cluster of ``workload``."""
    root = tmp_path_factory.mktemp("warm-store")
    blast2cap3_parallel(
        workload.transcripts, workload.hits, jobs=1, cache=ResultCache(root)
    )
    return root


def store_entries(root):
    return sorted(Path(root, CLUSTER_MERGE_KIND).rglob("*.json"))


def assert_identical(a, b):
    """Record-for-record equality, same order, same accounting."""
    assert [(r.id, r.seq, r.description) for r in a.joined] == [
        (r.id, r.seq, r.description) for r in b.joined
    ]
    assert [(r.id, r.seq, r.description) for r in a.unjoined] == [
        (r.id, r.seq, r.description) for r in b.unjoined
    ]
    assert a.input_count == b.input_count
    assert a.cluster_count == b.cluster_count
    assert a.mergeable_cluster_count == b.mergeable_cluster_count
    assert a.merged_transcript_count == b.merged_transcript_count
    assert [(r.id, r.seq) for r in a.output_records] == [
        (r.id, r.seq) for r in b.output_records
    ]


class TestParallelEqualsSerial:
    @given(
        jobs=st.sampled_from([1, 2, 3]),
        n=st.one_of(st.none(), st.integers(min_value=1, max_value=12)),
        strategy=st.sampled_from(["balanced", "round_robin"]),
        store=st.sampled_from(["none", "cold", "warm", "corrupt"]),
    )
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_any_jobs_n_strategy(
        self, workload, serial, warm_store, jobs, n, strategy, store
    ):
        """The driver against the serial oracle on the thread pool, with
        no store, an empty one, a full one and a full one truncated."""
        with tempfile.TemporaryDirectory() as tmp:
            cache = None
            if store != "none":
                root = Path(tmp, "store")
                if store == "cold":
                    root.mkdir()
                else:
                    shutil.copytree(warm_store, root)
                if store == "corrupt":
                    for path in store_entries(root):
                        path.write_text(path.read_text()[:20])
                cache = ResultCache(root)
            result = blast2cap3_parallel(
                workload.transcripts,
                workload.hits,
                jobs=jobs,
                n=n,
                strategy=strategy,
                executor="thread",
                cache=cache,
            )
        assert_identical(result, serial)
        mergeable = serial.mergeable_cluster_count
        if store == "warm":
            assert (cache.stats.hits, cache.stats.misses) == (mergeable, 0)
            assert cache.stats.puts == 0
        elif store in ("cold", "corrupt"):
            assert (cache.stats.hits, cache.stats.misses) == (0, mergeable)
            assert cache.stats.puts == mergeable
            assert cache.stats.corrupt == (mergeable if store == "corrupt" else 0)

    def test_real_process_pool(self, workload, serial):
        result = blast2cap3_parallel(
            workload.transcripts, workload.hits, jobs=2, n=4,
            executor="process",
        )
        assert_identical(result, serial)

    def test_defaults(self, workload, serial):
        assert_identical(
            blast2cap3_parallel(
                workload.transcripts, workload.hits, executor="thread"
            ),
            serial,
        )

    def test_bad_args_rejected(self, workload):
        with pytest.raises(ValueError, match="jobs"):
            blast2cap3_parallel(workload.transcripts, workload.hits, jobs=0)
        with pytest.raises(ValueError, match="n must"):
            blast2cap3_parallel(workload.transcripts, workload.hits, n=0)
        with pytest.raises(ValueError, match="duplicate"):
            blast2cap3_parallel(
                workload.transcripts + workload.transcripts[:1], workload.hits
            )
        # "serial" was jobs=1 spelled a second way
        with pytest.raises(ValueError, match="unknown executor: 'serial'"):
            blast2cap3_parallel(
                workload.transcripts, workload.hits, jobs=1, executor="serial"
            )

    def test_empty_inputs(self):
        result = blast2cap3_parallel([], [], jobs=2)
        assert result.output_count == 0


class TestWarmCache:
    def test_warm_cache_identical_and_zero_recompute(self, workload, serial, tmp_path):
        cache = ResultCache(tmp_path / "store")
        cold = blast2cap3_parallel(
            workload.transcripts, workload.hits,
            jobs=2, executor="thread", cache=cache,
        )
        assert_identical(cold, serial)
        assert cache.stats.hits == 0
        assert cache.stats.misses == serial.mergeable_cluster_count
        assert cache.stats.puts == serial.mergeable_cluster_count

        warm_cache = ResultCache(tmp_path / "store")
        warm = blast2cap3_parallel(
            workload.transcripts, workload.hits,
            jobs=2, executor="thread", cache=warm_cache,
        )
        assert_identical(warm, serial)
        # The acceptance criterion: every mergeable cluster was served
        # from the store — zero CAP3 recomputations.
        assert warm_cache.stats.hits == serial.mergeable_cluster_count
        assert warm_cache.stats.misses == 0
        assert warm_cache.stats.puts == 0
        assert warm_cache.stats.hit_rate == 1.0

    def test_param_change_misses(self, workload, tmp_path):
        cache = ResultCache(tmp_path)
        blast2cap3_parallel(
            workload.transcripts, workload.hits,
            jobs=1, cache=cache,
        )
        other = ResultCache(tmp_path)
        blast2cap3_parallel(
            workload.transcripts, workload.hits,
            jobs=1, cache=other,
            cap3_params=Cap3Params(min_overlap_length=35),
        )
        assert other.stats.hits == 0  # different params → different keys

    def test_corrupt_entries_recomputed_not_crash(self, workload, serial, tmp_path):
        cache = ResultCache(tmp_path)
        blast2cap3_parallel(
            workload.transcripts, workload.hits,
            jobs=2, executor="thread", cache=cache,
        )
        # Truncate every stored entry mid-JSON.
        entries = sorted((tmp_path / CLUSTER_MERGE_KIND).rglob("*.json"))
        assert entries
        for path in entries:
            path.write_text(path.read_text()[: len(path.read_text()) // 2])

        damaged = ResultCache(tmp_path)
        result = blast2cap3_parallel(
            workload.transcripts, workload.hits,
            jobs=2, executor="thread", cache=damaged,
        )
        assert_identical(result, serial)
        assert damaged.stats.corrupt == len(entries)
        assert damaged.stats.hits == 0

    def test_wrong_schema_entry_is_a_miss(self, workload, tmp_path):
        cache = ResultCache(tmp_path)
        cluster = next(
            c for c in cluster_transcripts(workload.hits)[0] if c.is_mergeable
        )
        by_id = {t.id: t for t in workload.transcripts}
        key = cluster_merge_key(cluster, by_id, Cap3Params())
        path = cache.path_for(CLUSTER_MERGE_KIND, key)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"key": "someone-else", "value": 1}))
        assert cache.get(CLUSTER_MERGE_KIND, key) is None
        assert cache.stats.corrupt == 1
        # cached_merge_cluster then recomputes and repairs the entry.
        outcome = cached_merge_cluster(cache, cluster, by_id)
        assert cache.get(CLUSTER_MERGE_KIND, key) is not None
        again = cached_merge_cluster(cache, cluster, by_id)
        assert [(c.id, c.seq) for c in again[0]] == [
            (c.id, c.seq) for c in outcome[0]
        ]


class TestCacheObservability:
    def test_events_and_counters(self, workload, tmp_path):
        bus = EventBus()
        recorder = EventRecorder(
            bus, kinds=[EventKind.CACHE_HIT, EventKind.CACHE_MISS]
        )
        registry = MetricsRegistry()
        instrument(bus, registry)

        cache = ResultCache(tmp_path, bus=bus)
        blast2cap3_parallel(
            workload.transcripts, workload.hits,
            jobs=1, cache=cache,
        )
        misses = [e for e in recorder.events if e.kind is EventKind.CACHE_MISS]
        assert len(misses) == cache.stats.misses
        assert all(
            e.detail["kind"] == CLUSTER_MERGE_KIND for e in misses
        )
        assert (
            registry.counter(
                "cache_misses_total", {"kind": CLUSTER_MERGE_KIND}
            ).value
            == cache.stats.misses
        )

        # bus only: the instrumented registry picks hits up from events
        # (passing the registry too would double-count).
        warm = ResultCache(tmp_path, bus=bus)
        blast2cap3_parallel(
            workload.transcripts, workload.hits,
            jobs=1, cache=warm,
        )
        hits = [e for e in recorder.events if e.kind is EventKind.CACHE_HIT]
        assert len(hits) == warm.stats.hits > 0
        assert (
            registry.counter(
                "cache_hits_total", {"kind": CLUSTER_MERGE_KIND}
            ).value
            == warm.stats.hits
        )

    def test_direct_registry_without_bus(self, workload, tmp_path):
        registry = MetricsRegistry()
        cache = ResultCache(tmp_path, registry=registry)
        blast2cap3_parallel(
            workload.transcripts, workload.hits, jobs=1, cache=cache
        )
        assert (
            registry.counter(
                "cache_misses_total", {"kind": CLUSTER_MERGE_KIND}
            ).value
            == cache.stats.misses
            > 0
        )

    def test_stats_arithmetic(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.lookups == 4
        assert stats.hit_rate == 0.75
        assert CacheStats().hit_rate == 0.0


class TestCachedBlastx:
    def test_round_trips_hits_exactly(self, workload, tmp_path):
        database = ProteinDatabase(records=list(workload.proteins))
        params = BlastXParams()
        direct = list(blastx_many(workload.transcripts, database, params))

        cache = ResultCache(tmp_path)
        cold = cached_blastx_hits(
            cache, workload.transcripts, database, params, batch_size=8
        )
        assert [h.format() for h in cold] == [h.format() for h in direct]
        assert cache.stats.hits == 0 and cache.stats.puts > 0

        warm_cache = ResultCache(tmp_path)
        warm = cached_blastx_hits(
            warm_cache, workload.transcripts, database, params, batch_size=8
        )
        assert [h.format() for h in warm] == [h.format() for h in direct]
        assert warm_cache.stats.misses == 0
        assert warm_cache.stats.hits == cache.stats.puts

    def test_no_cache_passthrough(self, workload):
        database = ProteinDatabase(records=list(workload.proteins))
        direct = list(blastx_many(workload.transcripts, database, BlastXParams()))
        assert [
            h.format()
            for h in cached_blastx_hits(None, workload.transcripts, database)
        ] == [h.format() for h in direct]

    def test_batch_size_validated(self, workload, tmp_path):
        database = ProteinDatabase(records=list(workload.proteins))
        with pytest.raises(ValueError, match="batch_size"):
            cached_blastx_hits(
                ResultCache(tmp_path), workload.transcripts, database,
                batch_size=0,
            )


@pytest.fixture(scope="module")
def staged_six(tmp_path_factory):
    """A 6-protein workload on disk, as ``repro-blast2cap3`` reads it."""
    wl = generate_blast2cap3_workload(
        n_proteins=6,
        spec=TranscriptomeSpec(mean_fragments_per_gene=2.5,
                               noise_transcripts=2, error_rate=0.002),
        seed=88,
    )
    tmp = tmp_path_factory.mktemp("six")
    write_fasta(tmp / "transcripts.fasta", wl.transcripts)
    write_tabular(tmp / "alignments.out", wl.hits)
    return wl, tmp / "transcripts.fasta", tmp / "alignments.out"


class TestSharedStore:
    """Workflow mode (``tasks.run_cap3`` through ``cached_merge_cluster``)
    and the driver key, read and write the store through one pair."""

    def run_workflow(self, staged, work, store):
        _, transcripts, alignments = staged
        result = run_local(transcripts, alignments, work, n=3, max_workers=2,
                           executor="thread", cache_dir=store)
        assert result.dagman.success

    def test_workflow_store_is_all_hits_for_the_driver(self, staged_six, tmp_path):
        wl = staged_six[0]
        self.run_workflow(staged_six, tmp_path / "work", tmp_path / "store")
        cache = ResultCache(tmp_path / "store")
        result = blast2cap3_parallel(wl.transcripts, wl.hits, jobs=1, cache=cache)
        assert result.mergeable_cluster_count == 6
        assert (cache.stats.hits, cache.stats.misses, cache.stats.puts) == (6, 0, 0)
        assert_identical(result, blast2cap3_serial(wl.transcripts, wl.hits))

    def test_driver_store_gains_no_entry_from_the_workflow(
        self, staged_six, tmp_path
    ):
        wl = staged_six[0]
        store = tmp_path / "store"
        blast2cap3_parallel(wl.transcripts, wl.hits, jobs=2, n=4,
                            executor="thread", cache=ResultCache(store))
        before = {p: p.read_bytes() for p in store_entries(store)}
        assert len(before) == 6
        self.run_workflow(staged_six, tmp_path / "work", store)
        assert {p: p.read_bytes() for p in store_entries(store)} == before
