"""Multi-tenant service-layer load: sustained throughput + matchmaking cost.

The PR 9 service layer claims two things worth gating:

* **sustained multi-tenant throughput** — 8 tenants submitting 1,000-job
  blast2cap3-shaped workflows through admission control, per-tenant
  quota checks, and the stride fair-share pump, with per-tenant p95
  turnaround reported. Throughput is measured on the *virtual* clock
  (``workflows_per_minute_sustained``), so the number is deterministic
  and the gate metric is its inverse (``seconds_per_workflow`` — the
  tooling's thresholds treat "higher" as "worse");
* **sublinear matchmaking** — the indexed matchmaker's µs/dispatch must
  not grow with pool size the way the linear oracle's does. The sweep
  times both strategies over the same find/claim/release history at
  three pool sizes and asserts the indexed cost grows by less than half
  the pool growth factor (in practice it is near-flat: cost scales with
  bucket count, and the bucket count is fixed).

CI runs the smoke tier (``REPRO_BENCH_SERVICE_JOBS=120``); the default
here is the developer-facing 1k-job tier. Gate numbers land in
``service_load_report.json`` and CI compares them against the committed
``baseline_service_load.json`` via ``repro-report compare --fail-on``.
"""

import json
import os
import time

from conftest import RESULTS_DIR, update_bench_report, write_result

from repro.dagman.condor import ClassAd
from repro.service.loadgen import LoadSpec, run_load
from repro.sim.matchmaker import IndexedMatchmaker, LinearMatchmaker, Matchmaker
from repro.sim.machine import make_machines
from repro.sim.rng import RngStreams

TENANTS = 8
WORKFLOWS_PER_TENANT = 2

#: Pool sizes for the matchmaker sweep (16x growth end to end).
POOL_SIZES = (400, 1600, 6400)
#: Indexed µs/dispatch may grow at most this fraction of pool growth.
SUBLINEAR_FACTOR = 0.5
#: Grid tier: matchmaker finds per job released to the platform.
MAX_FINDS_PER_JOB = 3


def _jobs_per_workflow() -> int:
    return int(os.environ.get("REPRO_BENCH_SERVICE_JOBS", "1000"))


def _sweep_pool(size: int) -> list:
    rng = RngStreams(seed=17).stream(f"bench.pool.{size}")
    machines = []
    per_site = size // 4
    for i, prob in enumerate((1.0, 0.6, 0.3, 0.0)):
        machines.extend(
            make_machines(
                rng,
                site=f"site{i}",
                count=per_site,
                software_prob=prob,
            )
        )
    return machines


def _sweep_ads() -> list[ClassAd]:
    """A dispatch mix: unconstrained, software-requiring, and
    impossible jobs (the head-of-line blocker that made the old
    rescan O(queue x pool))."""
    reqs = [
        None,
        "has_python and has_biopython and has_cap3",
        "site == 'nowhere'",
    ]
    return [
        ClassAd(
            name=f"job{i}",
            attributes={"transformation": "blast2cap3"},
            requirements=reqs[i % len(reqs)],
            rank="speed",
        )
        for i in range(120)
    ]


def _us_per_dispatch(
    strategy: type[Matchmaker], size: int, rounds: int = 4
) -> float:
    matchmaker = strategy(_sweep_pool(size))
    ads = _sweep_ads()
    started = time.perf_counter()
    finds = 0
    for _ in range(rounds):
        claimed = []
        for ad in ads:
            chosen = matchmaker.find(ad)
            finds += 1
            if chosen is not None:
                matchmaker.claim(chosen)
                claimed.append(chosen)
        for name in claimed:
            matchmaker.release(name)
    elapsed = time.perf_counter() - started
    return elapsed / finds * 1e6


def test_service_load_and_matchmaker_cost():
    jobs = _jobs_per_workflow()
    lines = [
        f"Multi-tenant service load — {TENANTS} tenants x "
        f"{WORKFLOWS_PER_TENANT} workflows x {jobs} jobs",
        "",
    ]

    # -- sustained multi-tenant load (virtual clock, deterministic) -----
    spec = LoadSpec(
        tenants=TENANTS,
        workflows_per_tenant=WORKFLOWS_PER_TENANT,
        jobs_per_workflow=jobs,
        workflows_per_minute=2.0,
        tenant_weights=(2.0, 1.0),
    )
    started = time.perf_counter()
    result = run_load(spec, backend="cluster", seed=0)
    host_elapsed = time.perf_counter() - started
    expected = TENANTS * WORKFLOWS_PER_TENANT
    assert result["workflows_completed"] == expected
    assert result["workflows_succeeded"] == expected
    sustained = result["workflows_per_minute_sustained"]
    seconds_per_workflow = result["makespan_s"] / expected
    lines += [
        f"completed {expected} workflows ({result['jobs_released']:,} jobs) "
        f"in {result['makespan_s']:,.0f} virtual s "
        f"[{host_elapsed:.1f}s host]",
        f"sustained: {sustained:.2f} workflows/min "
        f"({seconds_per_workflow:,.0f} s/workflow)",
        "",
        "tenant        weight  p95 turnaround (s)",
    ]
    p95s = result["per_tenant_p95_turnaround_s"]
    assert len(p95s) == TENANTS
    for i, (tenant, p95) in enumerate(sorted(p95s.items())):
        assert p95 > 0, f"no turnaround distribution for {tenant}"
        lines.append(f"{tenant}  {spec.weight_of(i):>6g}  {p95:>18,.0f}")
    lines.append("")

    # -- grid tier: the indexed path under real dispatch traffic --------
    grid_spec = LoadSpec(
        tenants=TENANTS,
        workflows_per_tenant=1,
        jobs_per_workflow=min(jobs, 120),
        workflows_per_minute=2.0,
        require_software_prob=0.5,
    )
    grid_result = run_load(grid_spec, backend="grid", seed=0)
    assert grid_result["workflows_completed"] == TENANTS
    mm = grid_result["matchmaker"]
    assert mm["strategy"] == "IndexedMatchmaker"
    assert mm["ads_scanned"] == 0, "grid dispatch fell off the indexed path"
    assert mm["linear_fallbacks"] == 0
    # An exact count, so the gate can be tight: the wait index asks the
    # matchmaker about a parked job only when a machine it could use
    # was freed — not once per queued job per dispatch pass.
    assert mm["finds"] <= MAX_FINDS_PER_JOB * grid_result["jobs_released"], (
        f"{mm['finds']:,} finds for {grid_result['jobs_released']:,} jobs: "
        "grid dispatch is re-matching parked jobs"
    )
    lines += [
        f"grid tier: {grid_result['jobs_released']:,} jobs, "
        f"{mm['finds']:,} finds ({mm['finds_per_claim']:.2f} per claim), "
        f"{mm['bucket_probes']:,} bucket probes, 0 ads scanned",
        "",
    ]

    # -- matchmaker µs/dispatch sweep (sublinear growth gate) -----------
    lines.append("pool size   indexed µs/find   linear µs/find")
    indexed_cost = {}
    linear_cost = {}
    for size in POOL_SIZES:
        indexed_cost[size] = _us_per_dispatch(IndexedMatchmaker, size)
        linear_cost[size] = _us_per_dispatch(LinearMatchmaker, size)
        lines.append(
            f"{size:>9,}   {indexed_cost[size]:>15.2f}   "
            f"{linear_cost[size]:>14.2f}"
        )
    small, large = POOL_SIZES[0], POOL_SIZES[-1]
    pool_growth = large / small
    indexed_growth = indexed_cost[large] / indexed_cost[small]
    lines += [
        "",
        f"pool grew {pool_growth:g}x; indexed cost grew "
        f"{indexed_growth:.2f}x (gate: < {SUBLINEAR_FACTOR * pool_growth:g}x), "
        f"linear {linear_cost[large] / linear_cost[small]:.2f}x",
    ]
    assert indexed_growth < SUBLINEAR_FACTOR * pool_growth, (
        f"indexed matchmaker cost grew {indexed_growth:.1f}x over a "
        f"{pool_growth:g}x pool — not sublinear"
    )

    write_result("service_load", "\n".join(lines))
    update_bench_report(
        "service",
        {
            "spec": result["spec"],
            "makespan_s": result["makespan_s"],
            "host_elapsed_s": host_elapsed,
            "workflows_per_minute_sustained": sustained,
            "seconds_per_workflow": seconds_per_workflow,
            "per_tenant_p95_turnaround_s": p95s,
            "grid_matchmaker": mm,
            "matchmaker_sweep": {
                str(size): {
                    "indexed_us_per_dispatch": indexed_cost[size],
                    "linear_us_per_dispatch": linear_cost[size],
                }
                for size in POOL_SIZES
            },
        },
    )

    # -- the regression-gate report (repro-report compare --fail-on) ----
    slo = result["slo"]
    p95_turnaround = max(
        row["turnaround_s"]["p95"] for row in slo.values()
    )
    p95_queue_wait = max(
        row["queue_wait_s"]["p95"] for row in slo.values()
    )
    report = {
        "schema": "repro-report/1",
        "label": f"service-load-{TENANTS}x{WORKFLOWS_PER_TENANT}x{jobs}",
        "workflow": "service-load",
        "service": {
            "seconds_per_workflow": seconds_per_workflow,
            "p95_turnaround_s": p95_turnaround,
            "p95_queue_wait_s": p95_queue_wait,
            "matchmaker_us_per_dispatch": indexed_cost[large],
        },
    }
    path = RESULTS_DIR / "service_load_report.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
