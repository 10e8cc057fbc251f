"""§VI-A claims about the cluster-count sweep on Sandhills.

* "The usage of 100 or more clusters of transcripts improves the
  running time on Sandhills for approximately 80 % compared to the
  running time of 10 clusters."
* "the usage of more than 100 clusters doesn't decrease this running
  time significantly"
* "the selection of 300 clusters gives the optimum performance"

This bench sweeps a finer grid than the paper to locate the optimum.
"""

from conftest import SEEDS, write_result

from repro.core.workflow_factory import simulate_paper_run
from repro.experiments.sweep import run_sweep
from repro.perfmodel.calibration import anchors
from repro.util.tables import Table

SWEEP = (10, 50, 100, 200, 300, 400, 500)


def test_cluster_count_sweep(paper_model, benchmark):
    a = anchors()
    sweep = run_sweep(("sandhills",), SWEEP, seeds=SEEDS, model=paper_model)
    walls = {n: sweep.get("sandhills", n).median for n in SWEEP}

    table = Table(
        ["n", "sandhills wall (s)", "vs n=10"],
        title="Sandhills wall time vs cluster count (median of 3 seeds)",
    )
    for n in SWEEP:
        table.add_row(
            n, round(walls[n]), f"{100 * (1 - walls[n] / walls[10]):.1f}%"
        )
    write_result("cluster_sweep", table.render())

    # ~80% improvement from n=10 to n=100 (accept 65-90%).
    improvement = 1 - walls[100] / walls[10]
    assert 0.65 < improvement < 0.90

    # Beyond 100, changes are small: every n >= 100 within 35% of n=100.
    for n in (200, 300, 400, 500):
        assert abs(walls[n] - walls[100]) / walls[100] < 0.35

    # The optimum lies in the flat region at moderate n (the paper
    # measured 300; exact argmin depends on node-speed draws).
    best = min(walls, key=walls.get)
    assert best in (200, 300, 400)
    assert abs(walls[best] - walls[a.optimal_n]) / walls[a.optimal_n] < 0.15

    benchmark(lambda: simulate_paper_run(200, "sandhills", seed=0,
                                         model=paper_model))
