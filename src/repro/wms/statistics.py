"""``pegasus-statistics`` equivalents.

The paper's evaluation is phrased entirely in this tool's vocabulary:

* **Workflow Wall Time** — total running time start to end (Fig. 4);
* **Kickstart Time** — actual payload duration on the remote node;
* **Waiting Time** — submit-host plus remote-host waiting before
  anything runs;
* **Download/Install Time** — OSG-only software setup time (Fig. 5).

:func:`summarize` turns a :class:`repro.dagman.events.WorkflowTrace`
into those numbers; :func:`per_transformation` gives the per-task-type
breakdown Fig. 5 plots; :func:`render_report` prints the familiar text
block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean

from repro.dagman.events import JobAttempt, WorkflowTrace
from repro.util.tables import Table
from repro.util.units import format_duration

__all__ = [
    "TransformationStats",
    "SiteStats",
    "WorkflowStatistics",
    "summarize",
    "per_transformation",
    "per_site",
    "critical_path",
    "render_report",
]


@dataclass(frozen=True)
class TransformationStats:
    """Aggregate timings for one transformation (task type)."""

    transformation: str
    count: int
    mean_kickstart: float
    max_kickstart: float
    mean_waiting: float
    max_waiting: float
    mean_download_install: float
    total_kickstart: float

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("count must be >= 1")


@dataclass
class WorkflowStatistics:
    """The whole-run summary block.

    ``total_jobs`` is the *planned* job count when the DAG (or an
    expected-jobs count) was given to :func:`summarize`, else the number
    of jobs that have at least one attempt. The planned/attempted/
    unrunnable triple makes partially-run workflows report honestly:
    descendants of a failed job never produce an attempt record, but
    they were planned work and must not silently vanish.
    """

    wall_time: float
    cumulative_kickstart: float
    total_jobs: int
    succeeded_jobs: int
    failed_attempts: int
    retries: int
    transformations: list[TransformationStats] = field(default_factory=list)
    #: Jobs in the plan (None when summarize() was given only a trace).
    planned_jobs: int | None = None
    #: Jobs with at least one attempt record.
    attempted_jobs: int = 0
    #: Planned jobs that never ran (failed ancestors made them unrunnable).
    unattempted_jobs: int = 0

    @property
    def speedup(self) -> float:
        """Cumulative work over wall time (parallel efficiency proxy)."""
        if self.wall_time == 0:
            return 0.0
        return self.cumulative_kickstart / self.wall_time


def _stats_for(transformation: str, attempts: list[JobAttempt]) -> TransformationStats:
    return TransformationStats(
        transformation=transformation,
        count=len(attempts),
        mean_kickstart=mean(a.kickstart_time for a in attempts),
        max_kickstart=max(a.kickstart_time for a in attempts),
        mean_waiting=mean(a.waiting_time for a in attempts),
        max_waiting=max(a.waiting_time for a in attempts),
        mean_download_install=mean(
            a.download_install_time for a in attempts
        ),
        total_kickstart=sum(a.kickstart_time for a in attempts),
    )


@dataclass(frozen=True)
class SiteStats:
    """Aggregate per execution site (OSG spreads work over many)."""

    site: str
    jobs: int
    failures: int
    mean_kickstart: float
    total_kickstart: float

    def __post_init__(self) -> None:
        if self.jobs < 0 or self.failures < 0:
            raise ValueError("counts must be >= 0")


def per_site(trace: WorkflowTrace) -> list[SiteStats]:
    """Per-site breakdown: where the work actually ran.

    Counts successful attempts as jobs; failures/evictions are tallied
    against the site they happened on (the paper's OSG story is that
    *which* sites you land on decides your run).
    """
    succeeded: dict[str, list[JobAttempt]] = {}
    failed: dict[str, int] = {}
    for attempt in trace:
        if attempt.status.is_success:
            succeeded.setdefault(attempt.site, []).append(attempt)
        else:
            failed[attempt.site] = failed.get(attempt.site, 0) + 1
    sites = sorted(set(succeeded) | set(failed))
    out = []
    for site in sites:
        runs = succeeded.get(site, [])
        out.append(
            SiteStats(
                site=site,
                jobs=len(runs),
                failures=failed.get(site, 0),
                mean_kickstart=(
                    mean(a.kickstart_time for a in runs) if runs else 0.0
                ),
                total_kickstart=sum(a.kickstart_time for a in runs),
            )
        )
    return out


def per_transformation(trace: WorkflowTrace) -> list[TransformationStats]:
    """Fig. 5's series: successful attempts grouped by task type."""
    groups: dict[str, list[JobAttempt]] = {}
    for attempt in trace.successful():
        groups.setdefault(attempt.transformation, []).append(attempt)
    return [
        _stats_for(name, attempts) for name, attempts in sorted(groups.items())
    ]


def critical_path(
    trace: WorkflowTrace, dag, *, attempts: str = "successful"
) -> list[JobAttempt]:
    """The *retrospective* critical path of an executed workflow.

    Walks the DAG backward from the last-finishing job, at each step
    picking the parent whose completion gated this job's release (the
    latest-finishing parent). The result is the chain of attempts whose
    durations actually determined the makespan — the place to look when
    asking "why was this run slow?" (here: invariably the heaviest
    ``run_cap3`` partition).

    ``dag`` is the executed :class:`repro.dagman.dag.Dag`.

    ``attempts`` selects which attempt represents each job on the path:
    ``"successful"`` (the default, the classic view over jobs that
    finished) or ``"final"`` — every job's latest-submitted attempt
    regardless of status, so a workflow whose tail is a hard-failed job
    still has a path reaching the makespan's end (what the attribution
    engine in :mod:`repro.observe.analysis` walks).
    """
    if attempts not in ("successful", "final"):
        raise ValueError(f"unknown attempts selector: {attempts!r}")
    final_attempt = trace.final_attempts(
        successful_only=attempts == "successful"
    )
    if not final_attempt:
        return []

    current = max(final_attempt.values(), key=lambda a: a.exec_end)
    chain = [current]
    parent_sets = dag.parent_sets()
    while True:
        parents = [
            final_attempt[p]
            for p in parent_sets[current.job_name]
            if p in final_attempt
        ]
        if not parents:
            break
        current = max(parents, key=lambda a: a.exec_end)
        chain.append(current)
    chain.reverse()
    return chain


def summarize(
    trace: WorkflowTrace,
    *,
    dag=None,
    expected_jobs: int | None = None,
) -> WorkflowStatistics:
    """Aggregate a trace into the pegasus-statistics summary.

    Pass the executed ``dag`` (a :class:`repro.dagman.dag.Dag`) or an
    ``expected_jobs`` count so the report covers *planned* work, not
    just attempted work: when a job fails hard, its descendants never
    get an attempt record, and a trace-only summary would silently
    undercount the workflow. With plan information, ``total_jobs`` is
    the planned count and ``unattempted_jobs`` reports the jobs that
    never ran.
    """
    if dag is not None and expected_jobs is not None:
        raise ValueError("pass dag or expected_jobs, not both")
    succeeded = trace.successful()
    attempted_names = {a.job_name for a in trace}
    planned: int | None = None
    if dag is not None:
        planned = len(dag.jobs)
        extra = attempted_names - set(dag.jobs)
        if extra:
            raise ValueError(
                "trace contains jobs not in the DAG: "
                + ", ".join(sorted(extra)[:5])
            )
    elif expected_jobs is not None:
        if expected_jobs < len(attempted_names):
            raise ValueError(
                f"expected_jobs={expected_jobs} is fewer than the "
                f"{len(attempted_names)} jobs present in the trace"
            )
        planned = expected_jobs
    return WorkflowStatistics(
        wall_time=trace.wall_time(),
        cumulative_kickstart=trace.cumulative_kickstart(),
        total_jobs=planned if planned is not None else len(attempted_names),
        succeeded_jobs=len(succeeded),
        failed_attempts=len(trace.failures()),
        retries=trace.retry_count,
        transformations=per_transformation(trace),
        planned_jobs=planned,
        attempted_jobs=len(attempted_names),
        unattempted_jobs=(
            planned - len(attempted_names) if planned is not None else 0
        ),
    )


def render_report(stats: WorkflowStatistics, *, title: str = "workflow") -> str:
    """Render the familiar text block plus the per-type table."""
    lines = [
        "#" * 60,
        f"# {title}",
        "#" * 60,
        f"Workflow wall time                : {format_duration(stats.wall_time)}"
        f" ({stats.wall_time:.0f} s)",
        f"Cumulative job wall time          : {format_duration(stats.cumulative_kickstart)}"
        f" ({stats.cumulative_kickstart:.0f} s)",
        f"Total jobs                        : {stats.total_jobs}",
        *(
            [
                f"  planned                         : {stats.planned_jobs}",
                f"  attempted                       : {stats.attempted_jobs}",
                f"  never ran (unrunnable)          : {stats.unattempted_jobs}",
            ]
            if stats.planned_jobs is not None
            else []
        ),
        f"Succeeded jobs                    : {stats.succeeded_jobs}",
        f"Failed/evicted attempts           : {stats.failed_attempts}",
        f"Retries                           : {stats.retries}",
        f"Parallel speedup                  : {stats.speedup:.1f}x",
        "",
    ]
    table = Table(
        [
            "transformation",
            "count",
            "mean kickstart (s)",
            "max kickstart (s)",
            "mean waiting (s)",
            "mean download/install (s)",
        ],
        title="Per-task statistics (successful attempts)",
    )
    for t in stats.transformations:
        table.add_row(
            t.transformation,
            t.count,
            round(t.mean_kickstart, 1),
            round(t.max_kickstart, 1),
            round(t.mean_waiting, 1),
            round(t.mean_download_install, 1),
        )
    lines.append(table.render())
    return "\n".join(lines)


def render_site_breakdown(trace: WorkflowTrace) -> str:
    """Per-site table (meaningful on multi-site platforms like OSG)."""
    table = Table(
        ["site", "jobs", "failures/evictions", "mean kickstart (s)",
         "total kickstart (s)"],
        title="Per-site breakdown",
    )
    for s in per_site(trace):
        table.add_row(
            s.site, s.jobs, s.failures,
            round(s.mean_kickstart, 1), round(s.total_kickstart),
        )
    return table.render()
