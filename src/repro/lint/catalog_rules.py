"""Catalog/site pass: the workflow against the three catalogs.

These rules catch the paper's pre-submission failure modes: a
transformation nobody installed, the "no setup step" configuration
whose ClassAd requirements can never match a site that guarantees no
software (§V-D's failure-prone variant, detected *before* submission
instead of after hours of idling), and replica entries pointing at
sites the site catalog does not know.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.dagman.condor import (
    SOFTWARE_REQUIREMENTS,
    ClassAd,
    evaluate_requirements,
)
from repro.lint.findings import Finding, Severity
from repro.lint.registry import LintContext, finding, rule
from repro.sim.machine import SOFTWARE_ATTRS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.wms.catalogs import SiteEntry

__all__ = ["guaranteed_machine_ad"]


def guaranteed_machine_ad(site: "SiteEntry") -> ClassAd:
    """The ClassAd a site *guarantees* every machine advertises.

    On a site without pre-installed software the ``has_*`` attributes
    are guaranteed False (some machines may happen to have them, but a
    requirement that relies on them is a gamble the linter flags).
    """
    attrs: dict[str, object] = {"site": site.name, "speed": 1.0}
    for attr in SOFTWARE_ATTRS:
        attrs[attr] = bool(site.software_preinstalled)
    return ClassAd(name=site.name, attributes=attrs)


@rule(
    "CAT001",
    Severity.ERROR,
    "transformation not in catalog",
    requires=("transformations",),
)
def _unknown_transformation(ctx: LintContext) -> Iterator[Finding]:
    assert ctx.transformations is not None
    jobs_by_tx: dict[str, list[str]] = {}
    for job in ctx.adag.jobs.values():
        if job.transformation not in ctx.transformations:
            jobs_by_tx.setdefault(job.transformation, []).append(job.id)
    for tx in sorted(jobs_by_tx):
        jobs = jobs_by_tx[tx]
        shown = ", ".join(repr(j) for j in jobs[:3])
        if len(jobs) > 3:
            shown += f" (+{len(jobs) - 3} more)"
        yield finding(
            f"transformation:{tx}",
            f"transformations not in catalog: {tx!r} (used by {shown})",
            f"add a TransformationEntry for {tx!r}",
        )


@rule(
    "CAT002",
    Severity.ERROR,
    "requirements statically unsatisfiable on site",
    requires=("site", "transformations"),
)
def _unsatisfiable_requirements(ctx: LintContext) -> Iterator[Finding]:
    assert ctx.site is not None and ctx.transformations is not None
    from repro.wms.planner import PlannerOptions

    options = ctx.options or PlannerOptions()
    site_ad = guaranteed_machine_ad(ctx.site)

    # Jobs and the requirements they would carry: read them off the
    # planned DAG when available (covers hand-set requirements), else
    # derive them exactly as the planner would.
    job_requirements: dict[str, str] = {}
    if ctx.planned is not None:
        for abstract, executable in ctx.planned.job_map.items():
            req = ctx.planned.dag.jobs[executable].requirements
            if req:
                job_requirements[abstract] = req
    else:
        for job in ctx.adag.jobs.values():
            if job.transformation not in ctx.transformations:
                continue  # CAT001's case
            entry = ctx.transformations.lookup(job.transformation)
            preinstalled = ctx.site.software_preinstalled or (
                entry.installed_at(ctx.site.name)
            )
            if not preinstalled and options.setup_mode == "never":
                job_requirements[job.id] = SOFTWARE_REQUIREMENTS

    by_expr: dict[str, list[str]] = {}
    for job_id, expr in job_requirements.items():
        if not evaluate_requirements(expr, site_ad):
            by_expr.setdefault(expr, []).append(job_id)
    for expr in sorted(by_expr):
        jobs = by_expr[expr]
        yield finding(
            f"site:{ctx.site.name}",
            f"requirements {expr!r} of {len(jobs)} job(s) are statically "
            f"unsatisfiable: site {ctx.site.name!r} guarantees no machine "
            "matching them (jobs would idle until the unmatched timeout)",
            'plan with setup_mode="auto" so jobs carry their own '
            "download/install step, or target a site with the software "
            "pre-installed",
        )


@rule(
    "CAT003",
    Severity.WARNING,
    "replica registered at unknown site",
    requires=("replicas", "sites"),
)
def _replica_unknown_site(ctx: LintContext) -> Iterator[Finding]:
    assert ctx.replicas is not None and ctx.sites is not None
    seen: set[tuple[str, str]] = set()
    for lfn, pfn, site_name in ctx.replicas.entries():
        if site_name in ctx.sites or (lfn, site_name) in seen:
            continue
        seen.add((lfn, site_name))
        yield finding(
            f"file:{lfn}",
            f"replica {pfn!r} for {lfn!r} is registered at site "
            f"{site_name!r}, which is not in the site catalog",
            f"add site {site_name!r} to the site catalog or re-register "
            "the replica",
        )


@rule(
    "CAT004",
    Severity.ERROR,
    "target site not in site catalog",
    requires=("sites",),
)
def _unknown_target_site(ctx: LintContext) -> Iterator[Finding]:
    assert ctx.sites is not None
    # ctx.site is resolved by lint(); when resolution failed the
    # requested name is stashed on the context by the runner.
    if ctx.requested_site and ctx.site is None:
        yield finding(
            f"site:{ctx.requested_site}",
            f"site not in catalog: {ctx.requested_site!r}",
            "add a SiteEntry or pick one of the cataloged sites",
        )
