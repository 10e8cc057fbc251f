"""``repro-lint``: the pre-flight workflow analyzer on the command line.

Lints either a DAX file (``--dax workflow.dax``) or the bundled
blast2cap3 workflow at a given scale (``-n``), against the default
catalogs and a target site. Exit status 0 means no findings at or
above ``--fail-on``, 1 means at least one, 2 means the input could not
be read. Diagnostics go to stderr; with ``--json`` stdout carries
*only* the report document.

Examples::

    repro-lint -n 300 --site osg --setup-mode never   # the paper's trap
    repro-lint --dax run1/workflow.dax --site sandhills --json
    repro-lint -n 100 --site osg --pools doctored.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.lint import lint, render_report
from repro.lint.findings import Report

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Static pre-flight analysis of a workflow: DAX, "
        "dataflow, catalog, planned-DAG, and resource-feasibility "
        "rules.",
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--dax", help="path to a DAX XML file to lint")
    source.add_argument(
        "-n", "--clusters", type=int, default=100,
        help="lint the bundled blast2cap3 workflow at this scale",
    )
    parser.add_argument(
        "--site", choices=("sandhills", "osg", "cloud", "local"),
        default="sandhills", help="target site for the catalog/plan passes",
    )
    parser.add_argument(
        "--setup-mode", choices=("auto", "never"), default="auto",
        help="planner setup mode to lint against (the paper's "
        "failure-prone configuration is --setup-mode never on osg)",
    )
    parser.add_argument("--retries", type=int, default=3)
    parser.add_argument(
        "--cluster-size", type=int, default=1,
        help="horizontal clustering factor to lint against",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the report as JSON instead of text",
    )
    parser.add_argument(
        "--pools", metavar="PATH",
        help="JSON file of site-pool overrides for the feasibility "
        'pass, e.g. {"osg": {"software": ["has_python"]}} to model a '
        "pool without the rest of the stack",
    )
    parser.add_argument(
        "--no-journal", dest="journal", action="store_false", default=None,
        help="the run will NOT keep a journal: arm PLAN006, which "
        "warns when retries or a long critical path make an "
        "unjournaled run risky (omit the flag to skip the rule)",
    )
    parser.add_argument(
        "--fail-on", choices=("error", "warning"), default="error",
        help="exit 1 when findings of this severity (or worse) remain "
        "(default: error)",
    )
    return parser


def _fails(report: Report, fail_on: str) -> bool:
    if fail_on == "warning":
        return bool(report.errors() or report.warnings())
    return not report.ok


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    from repro.core.workflow_factory import (
        build_blast2cap3_adag,
        default_catalogs,
    )
    from repro.lint.feasibility import default_pools, pools_from_mapping
    from repro.perfmodel.task_models import PaperTaskModel
    from repro.wms.dax import ADag
    from repro.wms.planner import PlannerOptions, PlanningError, plan

    if args.dax:
        path = Path(args.dax)
        if not path.exists():
            print(f"no such DAX file: {path}", file=sys.stderr)
            return 2
        try:
            adag = ADag.read(path)
        except (ValueError, OSError) as exc:
            print(f"cannot parse {path}: {exc}", file=sys.stderr)
            return 2
    else:
        try:
            adag = build_blast2cap3_adag(args.clusters, model=PaperTaskModel())
        except ValueError as exc:
            parser.error(str(exc))

    sites, transformations, replicas = default_catalogs()
    pools = None
    if args.pools:
        try:
            overrides = json.loads(Path(args.pools).read_text())
            pools = pools_from_mapping(
                overrides, base=default_pools(sites)
            )
        except (OSError, ValueError) as exc:
            print(f"cannot load pools {args.pools}: {exc}",
                  file=sys.stderr)
            return 2

    try:
        options = PlannerOptions(
            retries=args.retries,
            cluster_size=args.cluster_size,
            setup_mode=args.setup_mode,
            lint="off",  # we run the linter ourselves, with the planned DAG
        )
    except ValueError as exc:
        parser.error(str(exc))

    # Best effort: include the planned-DAG pass when the workflow plans
    # at all; when planning itself fails the static passes still run
    # and explain why.
    planned = None
    try:
        planned = plan(
            adag,
            site_name=args.site,
            sites=sites,
            transformations=transformations,
            replicas=replicas,
            options=options,
        )
    except (PlanningError, ValueError):
        pass
    report = lint(
        adag,
        sites=sites,
        transformations=transformations,
        replicas=replicas,
        site=args.site,
        options=options,
        planned=planned,
        pools=pools,
        journal=args.journal,
    )
    print(report.to_json() if args.json else render_report(report))
    return 1 if _fails(report, args.fail_on) else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
