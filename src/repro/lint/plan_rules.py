"""Planned-DAG pass: rules over the planner's executable output.

These run when the caller hands ``lint()`` a
:class:`~repro.wms.planner.PlannedWorkflow` (the planner's preflight
always does). They catch decoration mistakes the DAX cannot show:
setup steps on sites that do not need them, retry budgets that cannot
survive preemption, clustering that makes the critical path *longer*,
and priority inversions between producers and consumers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.lint.feasibility import attempt_failure_probability
from repro.lint.findings import Finding, Severity
from repro.lint.registry import LintContext, finding, rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dagman.dag import Dag
    from repro.lint.feasibility import SitePool
    from repro.wms.catalogs import SiteEntry

__all__ = [
    "abstract_critical_path",
    "durability_advice",
    "DURABILITY_MAKESPAN_THRESHOLD_S",
]

#: Expected makespan past which an unjournaled run is a gamble: the
#: paper's OSG assemblies ran for hours, and losing hour N to a manager
#: crash re-runs hours 1..N-1 from scratch.
DURABILITY_MAKESPAN_THRESHOLD_S = 4 * 3600.0


def abstract_critical_path(ctx: LintContext) -> float:
    """Runtime-weighted longest path through the abstract workflow."""
    longest: dict[str, float] = {}
    parents: dict[str, list[str]] = {j: [] for j in ctx.adag.jobs}
    for parent, kids in ctx.children.items():
        for child in kids:
            parents[child].append(parent)
    for node in ctx.order or ():  # a cycle is DAX001's finding
        incoming = [longest[p] for p in parents[node]]
        longest[node] = ctx.adag.jobs[node].runtime + max(
            incoming, default=0.0
        )
    return max(longest.values(), default=0.0)


def _is_preemptible(site: "SiteEntry") -> bool:
    """Opportunistic sites: no shared FS, no maintained software stack
    — the OSG profile, where jobs run on borrowed VO resources and
    "may be cancelled or held" (§VI-A)."""
    return not site.shared_filesystem and not site.software_preinstalled


@rule(
    "PLAN001",
    Severity.WARNING,
    "setup step on shared-filesystem site",
    requires=("planned", "site"),
)
def _setup_on_shared_fs(ctx: LintContext) -> Iterator[Finding]:
    assert ctx.planned is not None and ctx.site is not None
    if not ctx.site.shared_filesystem:
        return
    with_setup = sorted(
        name
        for name, job in ctx.planned.dag.jobs.items()
        if job.needs_setup
    )
    if with_setup:
        yield finding(
            f"site:{ctx.site.name}",
            f"{len(with_setup)} job(s) carry a per-job download/install "
            f"setup step on shared-filesystem site {ctx.site.name!r} "
            f"(e.g. {with_setup[0]!r}); the stack should be installed "
            "once on the shared FS instead",
            "install the transformations on the site (installed_sites) "
            "or mark the site software_preinstalled",
        )


@rule(
    "PLAN002",
    Severity.WARNING,
    "no retries on a preemptible site",
    requires=("planned", "site"),
)
def _no_retries_preemptible(ctx: LintContext) -> Iterator[Finding]:
    assert ctx.planned is not None and ctx.site is not None
    if not _is_preemptible(ctx.site):
        return
    zero_retry = sorted(
        name
        for name in set(ctx.planned.job_map.values())
        if ctx.planned.dag.jobs[name].retries == 0
    )
    if zero_retry:
        yield finding(
            f"site:{ctx.site.name}",
            f"{len(zero_retry)} compute job(s) have retries=0 on "
            f"preemptible site {ctx.site.name!r} (e.g. "
            f"{zero_retry[0]!r}); a single eviction fails the whole "
            "workflow",
            "set PlannerOptions(retries=...) to a positive value",
        )


@rule(
    "PLAN003",
    Severity.WARNING,
    "clustering serializes the critical path",
    requires=("planned",),
)
def _clustering_serializes(ctx: LintContext) -> Iterator[Finding]:
    assert ctx.planned is not None
    members: dict[str, list[str]] = {}
    for abstract, executable in ctx.planned.job_map.items():
        members.setdefault(executable, []).append(abstract)
    clusters = {
        name: abstracts
        for name, abstracts in members.items()
        if len(abstracts) > 1
    }
    if not clusters:
        return
    baseline = abstract_critical_path(ctx)
    for name in sorted(clusters):
        job = ctx.planned.dag.jobs[name]
        if job.runtime > baseline > 0:
            yield finding(
                f"job:{name}",
                f"horizontal cluster {name!r} runs "
                f"{len(clusters[name])} tasks sequentially for "
                f"{job.runtime:.0f}s, longer than the entire "
                f"unclustered critical path ({baseline:.0f}s)",
                "reduce PlannerOptions(cluster_size=...) so clustered "
                "batches stay shorter than the critical path",
            )


@rule(
    "PLAN004",
    Severity.WARNING,
    "priority inversion between producer and consumer",
    requires=("planned",),
)
def _priority_inversion(ctx: LintContext) -> Iterator[Finding]:
    assert ctx.planned is not None
    dag = ctx.planned.dag
    for parent, child in dag.edges():
        if dag.jobs[child].priority > dag.jobs[parent].priority:
            yield finding(
                f"edge:{parent}->{child}",
                f"consumer {child!r} (priority "
                f"{dag.jobs[child].priority}) outranks its producer "
                f"{parent!r} (priority {dag.jobs[parent].priority}); "
                "the high-priority job still waits for the low-priority "
                "one",
                "raise the producer's priority to at least the "
                "consumer's",
            )


def durability_advice(dag: "Dag", pool: "SitePool | None") -> str | None:
    """Why this executable DAG deserves a write-ahead journal on the
    target *pool*, or None.

    Shared between PLAN006 and ``repro-run``'s inline warning: a plan
    that budgets retries the pool can spend — some job with retries can
    lose an attempt under the pool's failure model (RES003's) —
    *expects* failures, and a plan whose critical path alone exceeds the
    threshold loses real hours to a manager crash; both are runs worth
    making resumable. With no pool known, no attempt is known to fail.
    """
    reasons = []
    if pool is not None:
        with_retries = sorted(
            name for name, job in dag.jobs.items()
            if job.retries > 0 and attempt_failure_probability(job.runtime, pool) > 0
        )
        if with_retries:
            reasons.append(
                f"{len(with_retries)} job(s) budget retries that pool "
                f"{pool.site!r} can fail (e.g. {with_retries[0]!r}) — the "
                "plan expects failures"
            )
    path_s = dag.critical_path_length()
    if path_s > DURABILITY_MAKESPAN_THRESHOLD_S:
        reasons.append(
            f"the critical path alone runs {path_s / 3600.0:.1f}h "
            f"(> {DURABILITY_MAKESPAN_THRESHOLD_S / 3600.0:.0f}h) — a manager "
            "crash near the end re-runs all of it"
        )
    if not reasons:
        return None
    return "; ".join(reasons)


@rule(
    "PLAN006",
    Severity.WARNING,
    "long or retry-heavy run without a write-ahead journal",
    requires=("planned", "journal"),
)
def _unjournaled_durable_run(ctx: LintContext) -> Iterator[Finding]:
    assert ctx.planned is not None and ctx.journal is not None
    if ctx.journal:
        return
    pool = (
        ctx.pools.get(ctx.site.name)
        if ctx.site is not None and ctx.pools is not None
        else None
    )
    advice = durability_advice(ctx.planned.dag, pool)
    if advice:
        yield finding(
            f"workflow:{ctx.planned.dag.name}",
            f"this run keeps no write-ahead journal, but {advice}",
            "run with repro-run --journal DIR so a crashed manager "
            "resumes with --resume DIR instead of re-executing "
            "completed jobs",
        )


@rule(
    "PLAN005",
    Severity.WARNING,
    "no job timeout on a preemptible site",
    requires=("planned", "site"),
)
def _no_timeout_preemptible(ctx: LintContext) -> Iterator[Finding]:
    assert ctx.planned is not None and ctx.site is not None
    if not _is_preemptible(ctx.site):
        return
    no_timeout = sorted(
        name
        for name in set(ctx.planned.job_map.values())
        if ctx.planned.dag.jobs[name].timeout_s is None
    )
    if no_timeout:
        yield finding(
            f"site:{ctx.site.name}",
            f"{len(no_timeout)} compute job(s) have no timeout on "
            f"preemptible site {ctx.site.name!r} (e.g. "
            f"{no_timeout[0]!r}); a hung attempt on a borrowed node "
            "wedges the workflow with no failure to retry",
            "set PlannerOptions(timeout_s=...) so hung attempts are "
            "killed and retried",
        )
