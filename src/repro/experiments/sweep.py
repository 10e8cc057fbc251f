"""Multi-seed sweep runner and distribution statistics.

One *configuration* is (platform, n); a *sweep* crosses platforms × n
values × seeds. Each run is an independent simulation (its own RNG
streams), so the per-configuration spread is exactly the run-to-run
variability the paper warns about.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.workflow_factory import simulate_paper_run
from repro.perfmodel.task_models import PaperTaskModel
from repro.util.tables import Table

__all__ = ["RunStats", "SweepResult", "run_config", "run_sweep", "sweep_table"]


@dataclass(frozen=True)
class RunStats:
    """Distribution of wall times for one (platform, n) configuration."""

    platform: str
    n: int
    walltimes: tuple[float, ...]
    retries: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.walltimes:
            raise ValueError("at least one run is required")
        if len(self.walltimes) != len(self.retries):
            raise ValueError("walltimes and retries must be parallel")

    @property
    def mean(self) -> float:
        return statistics.fmean(self.walltimes)

    @property
    def median(self) -> float:
        return statistics.median(self.walltimes)

    @property
    def minimum(self) -> float:
        return min(self.walltimes)

    @property
    def maximum(self) -> float:
        return max(self.walltimes)

    @property
    def stdev(self) -> float:
        if len(self.walltimes) < 2:
            return 0.0
        return statistics.stdev(self.walltimes)

    @property
    def cv(self) -> float:
        """Coefficient of variation — the paper's "may vary" made a number."""
        return self.stdev / self.mean if self.mean else 0.0

    @property
    def total_retries(self) -> int:
        return sum(self.retries)


@dataclass
class SweepResult:
    """All configurations of one sweep, keyed by (platform, n)."""

    configs: dict[tuple[str, int], RunStats] = field(default_factory=dict)

    def get(self, platform: str, n: int) -> RunStats:
        return self.configs[(platform, n)]

    def platforms(self) -> list[str]:
        return sorted({p for p, _ in self.configs})

    def ns(self) -> list[int]:
        return sorted({n for _, n in self.configs})

    def best_n(self, platform: str, *, key: str = "median") -> int:
        """The optimal n for a platform under the chosen statistic."""
        candidates = {
            n: getattr(self.get(platform, n), key) for n in self.ns()
        }
        return min(candidates, key=candidates.get)


def run_config(
    platform: str,
    n: int,
    *,
    seeds: Iterable[int],
    model: PaperTaskModel | None = None,
) -> RunStats:
    """Simulate one configuration across seeds; all runs must succeed."""
    model = model or PaperTaskModel()
    walls, retries = [], []
    for seed in seeds:
        result, _ = simulate_paper_run(n, platform, seed=seed, model=model)
        if not result.success:
            raise RuntimeError(
                f"{platform} n={n} seed={seed} failed: {result.final.failed_jobs}"
            )
        walls.append(result.trace.wall_time())
        retries.append(result.trace.retry_count)
    return RunStats(
        platform=platform, n=n,
        walltimes=tuple(walls), retries=tuple(retries),
    )


def run_sweep(
    platforms: Sequence[str],
    ns: Sequence[int],
    *,
    seeds: Iterable[int] = range(3),
    model: PaperTaskModel | None = None,
) -> SweepResult:
    """Cross platforms × n × seeds."""
    model = model or PaperTaskModel()
    seeds = list(seeds)
    result = SweepResult()
    for platform in platforms:
        for n in ns:
            result.configs[(platform, n)] = run_config(
                platform, n, seeds=seeds, model=model
            )
    return result


def sweep_table(sweep: SweepResult, *, title: str = "sweep") -> Table:
    """Render a sweep as a distribution table."""
    table = Table(
        ["platform", "n", "median (s)", "mean (s)", "min (s)", "max (s)",
         "cv", "retries"],
        title=title,
    )
    for platform in sweep.platforms():
        for n in sweep.ns():
            s = sweep.get(platform, n)
            table.add_row(
                platform, n, round(s.median), round(s.mean),
                round(s.minimum), round(s.maximum),
                f"{s.cv:.2f}", s.total_retries,
            )
    return table
