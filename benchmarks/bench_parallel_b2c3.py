"""In-process parallel blast2cap3: wall-time table + cache speedup.

The paper's headline result is turning the serial per-cluster CAP3 loop
into parallel partitions. :func:`repro.core.blast2cap3.blast2cap3_parallel`
is that optimisation without the workflow machinery; this bench measures
it on *real* CAP3 work at laptop scale and writes the speedup table to
``benchmarks/results/parallel_b2c3.txt``.

Assertions (the PR's acceptance criteria, scaled to CI):

* every mode produces record-for-record identical output;
* the **warm cache** run beats the serial loop (speedup >= 1) — it
  recomputes nothing, so this holds even on a single-core runner;
* warm-cache hits == mergeable cluster count and misses == 0 (zero
  CAP3 recomputations);
* on a multi-core box the process pool itself reaches speedup >= 1;
  on a single-core box we only bound its overhead, since no pool can
  beat serial there — and the table says ``n/a (1 CPU)`` where the
  pool's speedup would stand.
"""

import os
import time

from conftest import write_result

from repro.core.blast2cap3 import blast2cap3_parallel
from repro.core.cache import ResultCache
from repro.datagen.transcripts import TranscriptomeSpec
from repro.datagen.workload import generate_blast2cap3_workload
from repro.util.tables import Table

#: Partition counts swept (the paper sweeps 10/100/300/500 at cluster
#: scale; at laptop scale the curve flattens past a handful).
PARTITIONS = (4, 8)


def _workload():
    # Even cluster sizes: with the generator's default skew one giant
    # cluster bounds the wall time and no parallel schedule could win.
    return generate_blast2cap3_workload(
        n_proteins=12,
        spec=TranscriptomeSpec(
            mean_fragments_per_gene=5.0,
            sigma_fragments=0.05,
            error_rate=0.002,
        ),
        seed=5,
    )


def _records(result):
    return [(r.id, r.seq) for r in result.output_records]


def test_parallel_and_cache_speedups(tmp_path, benchmark):
    wl = _workload()
    cpus = os.cpu_count() or 1
    jobs = max(2, min(4, cpus))

    t0 = time.perf_counter()
    serial = blast2cap3_parallel(wl.transcripts, wl.hits, jobs=1)
    serial_s = time.perf_counter() - t0
    reference = _records(serial)

    def speedup(wall, *, pool=True):
        if pool and cpus < 2:
            return "n/a (1 CPU)"  # nothing to run the workers beside
        return f"{serial_s / wall:.2f}x"

    rows = [("serial", "-", "-", serial_s, "1.00x", "-")]

    parallel_walls = []
    for n in PARTITIONS:
        t0 = time.perf_counter()
        result = blast2cap3_parallel(
            wl.transcripts, wl.hits, jobs=jobs, n=n, executor="process"
        )
        wall = time.perf_counter() - t0
        assert _records(result) == reference
        parallel_walls.append(wall)
        rows.append((f"parallel j={jobs}", n, "-", wall, speedup(wall), "-"))

    cold_cache = ResultCache(tmp_path / "store")
    t0 = time.perf_counter()
    cold = blast2cap3_parallel(
        wl.transcripts, wl.hits, jobs=jobs, n=PARTITIONS[0],
        executor="process", cache=cold_cache,
    )
    cold_s = time.perf_counter() - t0
    assert _records(cold) == reference
    rows.append(
        ("parallel+cold cache", PARTITIONS[0], "-", cold_s,
         speedup(cold_s),
         f"{cold_cache.stats.hits}/{cold_cache.stats.misses}")
    )

    warm_cache = ResultCache(tmp_path / "store")

    def warm_run():
        return blast2cap3_parallel(
            wl.transcripts, wl.hits, jobs=jobs, n=PARTITIONS[0],
            executor="process", cache=warm_cache,
        )

    t0 = time.perf_counter()
    warm = warm_run()
    warm_s = time.perf_counter() - t0
    assert _records(warm) == reference
    rows.append(
        ("parallel+warm cache", PARTITIONS[0], "-", warm_s,
         speedup(warm_s, pool=False),  # recomputes nothing: any hardware
         f"{warm_cache.stats.hits}/{warm_cache.stats.misses}")
    )

    table = Table(
        ["mode", "n", "jobs", "wall (s)", "speedup", "cache hit/miss"],
        title=(
            f"blast2cap3: serial vs in-process parallel "
            f"({len(wl.transcripts)} transcripts, "
            f"{serial.mergeable_cluster_count} mergeable clusters, "
            f"{cpus} CPUs)"
        ),
    )
    for mode, n, j, wall, speedup_col, cache_col in rows:
        table.add_row(mode, n, j, f"{wall:.2f}", speedup_col, cache_col)
    write_result("parallel_b2c3", table.render())
    # Zero CAP3 recomputations on the warm store.
    assert warm_cache.stats.hits == serial.mergeable_cluster_count
    assert warm_cache.stats.misses == 0

    # The warm cache must beat the serial loop outright, any hardware.
    assert warm_s < serial_s, (
        f"warm cache ({warm_s:.2f}s) did not beat serial ({serial_s:.2f}s)"
    )

    if cpus > 1:
        # Real parallel speedup needs real cores.
        best = min(parallel_walls)
        assert serial_s / best >= 1.0, (
            f"parallel ({best:.2f}s) slower than serial ({serial_s:.2f}s) "
            f"on a {cpus}-core box"
        )
    else:
        # Single core: only bound the pool's overhead.
        assert min(parallel_walls) < 2.0 * serial_s

    benchmark.pedantic(warm_run, rounds=3, iterations=1)
