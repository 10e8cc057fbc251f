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

from pathlib import Path

import pytest

from repro.core.workflow_factory import build_blast2cap3_adag, default_catalogs
from repro.experiments.sweep import SweepResult, run_sweep
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
def fig4_data(paper_model) -> SweepResult:
    """Both platforms across the n sweep, ``SEEDS`` runs each (all must
    succeed); ``.get(platform, n).median`` is a figure's wall time.

    Session-scoped: the Fig. 4 and speedup benches share these runs.
    """
    return run_sweep(("sandhills", "osg"), NS, seeds=SEEDS, model=paper_model)
