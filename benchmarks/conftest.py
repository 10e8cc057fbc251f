"""Shared helpers for the benchmark harnesses.

Every figure/table benchmark writes its rendered table to
``benchmarks/results/<name>.txt`` (so the artifacts survive the run and
EXPERIMENTS.md can reference them) and asserts the paper's qualitative
claims about the data.

Figure reproductions simulate several seeds and take medians: the paper
itself warns that "the running time for the both platforms ... may vary
for every new run due to the availability of the current resources".
"""

from __future__ import annotations

import statistics
from pathlib import Path

import pytest

from repro.core.workflow_factory import (
    build_blast2cap3_adag,
    default_catalogs,
    simulate_paper_run,
)
from repro.lint import lint, render_report
from repro.perfmodel.task_models import PaperTaskModel

RESULTS_DIR = Path(__file__).parent / "results"

#: Seeds used for median wall times in the figure benches.
SEEDS = (0, 1, 2)

#: The paper's n sweep.
NS = (10, 100, 300, 500)


def write_result(name: str, text: str) -> Path:
    """Persist a rendered table/report under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    return path


def median_walltime(n: int, platform: str, *, model: PaperTaskModel,
                    seeds=SEEDS) -> float:
    """Median simulated wall time over seeds (all runs must succeed)."""
    walls = []
    for seed in seeds:
        result, _ = simulate_paper_run(n, platform, seed=seed, model=model)
        assert result.success, f"{platform} n={n} seed={seed} failed"
        walls.append(result.trace.wall_time())
    return statistics.median(walls)


@pytest.fixture(scope="session")
def paper_model() -> PaperTaskModel:
    return PaperTaskModel()


@pytest.fixture(scope="session", autouse=True)
def certified_workflows(paper_model):
    """Pre-flight lint: every benchmark workflow must be statically
    clean before any simulated cycle is spent on it."""
    sites, transformations, replicas = default_catalogs()
    for n in (min(NS), max(NS)):
        adag = build_blast2cap3_adag(n, model=paper_model)
        for platform in ("sandhills", "osg"):
            report = lint(
                adag,
                sites=sites,
                transformations=transformations,
                replicas=replicas,
                site=platform,
            )
            assert report.ok, render_report(report)


@pytest.fixture(scope="session")
def fig4_data(paper_model):
    """Median wall times for both platforms across the n sweep.

    Session-scoped: Fig. 4, Fig. 5, the speedup and sweep benches all
    share these runs.
    """
    data: dict[tuple[str, int], float] = {}
    for platform in ("sandhills", "osg"):
        for n in NS:
            data[(platform, n)] = median_walltime(
                n, platform, model=paper_model
            )
    return data
