"""Ablation — how big does the campus-cluster share need to be?

§IV-A: "campus clusters are not instantly available, and thus there is
a long waiting time to access nodes" — yet the paper's runs saw
negligible waiting, implying their group's allocation comfortably held
the workflow. This ablation shrinks ``group_slots`` and watches the
slot starvation appear: wall time and per-task waiting grow as the
share shrinks, until the allocation (not the biggest cluster) becomes
the bottleneck.
"""

import statistics

from conftest import write_result

from repro.core.workflow_factory import simulate_paper_run
from repro.sim.cluster import CampusClusterConfig
from repro.util.tables import Table
from repro.wms.statistics import per_transformation

SLOTS = (25, 100, 500)
SEEDS = (0, 1, 2)
N = 300


def _run(paper_model, slots: int):
    walls, waits = [], []
    for seed in SEEDS:
        result, _ = simulate_paper_run(
            N, "sandhills", seed=seed, model=paper_model,
            config=CampusClusterConfig(group_slots=slots),
        )
        assert result.success
        walls.append(result.trace.wall_time())
        cap3 = next(
            t for t in per_transformation(result.trace)
            if t.transformation == "run_cap3"
        )
        waits.append(cap3.mean_waiting)
    return statistics.median(walls), statistics.median(waits)


def test_group_allocation_ablation(paper_model, benchmark):
    results = {slots: _run(paper_model, slots) for slots in SLOTS}

    table = Table(
        ["group slots", "wall time (s)", "mean run_cap3 waiting (s)"],
        title=f"Ablation — Sandhills group allocation at n={N} "
              "(median of 3 seeds)",
    )
    for slots in SLOTS:
        wall, wait = results[slots]
        table.add_row(slots, round(wall), round(wait))
    write_result("ablation_allocation", table.render())

    # Starvation: smaller shares mean longer waits and longer runs.
    assert results[25][0] > results[100][0] >= results[500][0] * 0.95
    assert results[25][1] > 10 * results[500][1]

    # With a generous share, waiting is "small and negligible" (§VI-B)…
    assert results[500][1] < 120
    # …and the wall time is floored by the largest cluster, not slots.
    floor = paper_model.max_cluster_cost()
    assert results[500][0] < 1.6 * floor

    # With 25 slots, aggregate throughput bounds the run instead:
    # 354,000s of work over 25 slots ≈ 14,160s of pure compute.
    assert results[25][0] > paper_model.cap3_total_s / 25

    benchmark(
        lambda: simulate_paper_run(
            N, "sandhills", seed=0, model=paper_model,
            config=CampusClusterConfig(group_slots=25),
        )
    )
