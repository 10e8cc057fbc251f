"""``repro.lint`` — whole-workflow static analysis.

A rule-based analysis framework that catches, *before submission*, the
failure modes the paper hit at runtime on OSG: unsatisfiable software
requirements, inputs that can never be staged, write-write conflicts,
retry budgets that cannot survive preemption, and clustering that
serializes the critical path. Five passes:

* **DAX pass** (``DAX0xx``) — structural rules over the abstract
  workflow: cycles, orphaned inputs, write-write conflicts, dead jobs,
  size disagreements;
* **dataflow/provenance pass** (``FLOW0xx``) — a fixpoint over the
  file-flow graph: transitively starved jobs, dead outputs, reuse
  candidates, disconnected islands (:mod:`repro.lint.dataflow`);
* **catalog/site pass** (``CAT0xx``) — the workflow against the
  replica/transformation/site catalogs: unresolvable transformations,
  statically unsatisfiable ClassAd requirements, replicas at unknown
  sites;
* **planned-DAG pass** (``PLAN0xx``) — the planner's executable output:
  needless setup steps, zero retries on preemptible sites, clustering
  regressions, priority inversions;
* **resource-feasibility pass** (``RES0xx``) — symbolic matchmaking
  against :class:`~repro.lint.feasibility.SitePool` descriptors derived
  from the simulator configs: never-matchable jobs, pool
  oversubscription, provably insufficient retry budgets and timeouts
  (:mod:`repro.lint.feasibility`).

Usage::

    from repro.lint import lint, render_report
    report = lint(adag, sites=sites, transformations=tc,
                  replicas=rc, site="osg")
    if not report.ok:
        print(render_report(report))

The planner runs this automatically (``PlannerOptions.lint``), and the
``repro-lint`` console script wraps it for the command line.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from repro.lint.findings import Report, Severity, render_report
from repro.lint.registry import LintContext, registered_rules

# Importing the rule modules registers their rules.
from repro.lint import catalog_rules as _catalog_rules  # noqa: E402,F401
from repro.lint import dataflow as _dataflow  # noqa: E402,F401
from repro.lint import dax_rules as _dax_rules  # noqa: E402,F401
from repro.lint import feasibility as _feasibility  # noqa: E402,F401
from repro.lint import plan_rules as _plan_rules  # noqa: E402,F401

from repro.lint.feasibility import SitePool, default_pools

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.wms.catalogs import (
        ReplicaCatalog,
        SiteCatalog,
        SiteEntry,
        TransformationCatalog,
    )
    from repro.wms.dax import ADag
    from repro.wms.planner import PlannedWorkflow, PlannerOptions


__all__ = [
    "Severity",
    "Report",
    "lint",
    "registered_rules",
    "render_report",
]


def lint(
    adag: "ADag",
    *,
    sites: "SiteCatalog | None" = None,
    transformations: "TransformationCatalog | None" = None,
    replicas: "ReplicaCatalog | None" = None,
    site: "str | SiteEntry | None" = None,
    options: "PlannerOptions | None" = None,
    planned: "PlannedWorkflow | None" = None,
    pools: "Mapping[str, SitePool] | None" = None,
    journal: bool | None = None,
) -> Report:
    """Run every applicable rule against ``adag`` and its context.

    Only ``adag`` is required; rules whose context (catalogs, target
    site, planned DAG) is missing are skipped and listed in
    ``Report.skipped_rules``. ``site`` may be a name (looked up in
    ``sites``) or a :class:`~repro.wms.catalogs.SiteEntry` directly.

    ``pools`` overrides the resource descriptors the feasibility pass
    matches against; by default they are derived from the simulator
    configurations whenever a site catalog is given.
    ``journal`` tells the durability rule (PLAN006) whether the run
    will keep a write-ahead journal: ``False`` arms the rule, ``True``
    satisfies it, ``None`` (default) skips it. The linter never raises
    on workflow defects — broken workflows are exactly its subject
    matter.
    """
    requested_site: str | None = None
    site_entry: "SiteEntry | None" = None
    if isinstance(site, str):
        requested_site = site
        if sites is not None and site in sites:
            site_entry = sites.lookup(site)
    elif site is not None:
        site_entry = site

    if pools is None and sites is not None:
        pools = default_pools(sites)

    ctx = LintContext(
        adag=adag,
        sites=sites,
        transformations=transformations,
        replicas=replicas,
        site=site_entry,
        options=options,
        planned=planned,
        requested_site=requested_site,
        pools=dict(pools) if pools is not None else None,
        journal=journal,
    )
    report = Report(workflow=adag.name)
    for r in registered_rules():
        if not r.applicable(ctx):
            report.skipped_rules.append(r.id)
            continue
        report.checked_rules.append(r.id)
        report.findings.extend(r.run(ctx))
    report.sort()
    return report
