"""Golden lint reports: ``Report.to_json()`` pinned *across commits*.

The rules read shared views of the workflow graph from
:class:`~repro.lint.registry.LintContext` (each job's input and output
names, the tolerant topological order, the availability fixpoint). A
change to how those views are computed must keep every report finding
for finding, so this table holds one sha256 per report:

* the bundled blast2cap3 workflow at n = 12 and 300, linted the way
  ``repro-lint`` lints it (plan with ``lint="off"``, then lint with the
  planned DAG) and the way the planner's preflight does, on
  ``sandhills``, ``osg`` and ``osg`` with ``setup_mode="never"``;
* each defective fixture of ``tests/test_lint_rules.py`` that breaks
  the graph (cycle, write-write, missing input, island, in-place file,
  reuse candidate), with the context its seed gives and again against
  the default catalogs on ``sandhills``.

Regenerate (after convincing yourself the move is intended) with
``PYTHONPATH=src:. python tests/test_lint_report_golden.py``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.workflow_factory import build_blast2cap3_adag, default_catalogs
from repro.lint import lint
from repro.perfmodel.task_models import PaperTaskModel
from repro.wms.planner import PlannerOptions, PlanningError, plan
from tests.test_lint_rules import (
    seed_dax001,
    seed_dax002,
    seed_dax003,
    seed_dax008,
    seed_flow003,
    seed_flow004,
)

#: site -> setup mode of the bundled-workflow rows
SITES = {"sandhills": "auto", "osg": "auto", "osg-never": "never"}

#: fixture name -> the function that seeds its defect
FIXTURES = {
    "cycle": seed_dax001,
    "missing-input": seed_dax002,
    "write-write": seed_dax003,
    "in-place": seed_dax008,
    "reuse": seed_flow003,
    "island": seed_flow004,
}


def _cli_report(adag, site: str, setup_mode: str = "auto") -> str:
    """What ``repro-lint --json`` prints for ``adag`` on ``site``."""
    sites, tc, rc = default_catalogs()
    options = PlannerOptions(setup_mode=setup_mode, lint="off")
    try:
        planned = plan(adag, site_name=site, sites=sites, transformations=tc,
                       replicas=rc, options=options)
    except (PlanningError, ValueError):
        planned = None
    return lint(adag, sites=sites, transformations=tc, replicas=rc,
                site=site, options=options, planned=planned).to_json()


def _preflight_report(adag, site: str, setup_mode: str) -> str:
    sites, tc, rc = default_catalogs()
    planned = plan(adag, site_name=site, sites=sites, transformations=tc,
                   replicas=rc,
                   options=PlannerOptions(setup_mode=setup_mode, lint="warn"))
    return planned.lint_report.to_json()


def report_text(case: str) -> str:
    kind, name, *rest = case.split("/")
    if kind == "bundled":
        site = name.split("-")[0]
        setup_mode = SITES[name]
        adag = build_blast2cap3_adag(int(rest[0]), model=PaperTaskModel())
        if rest[1] == "cli":
            return _cli_report(adag, site, setup_mode)
        return _preflight_report(adag, site, setup_mode)
    adag, kwargs = FIXTURES[name]()
    if rest[0] == "seed":
        return lint(adag, **kwargs).to_json()
    return _cli_report(adag, "sandhills")


CASES = [
    f"bundled/{site}/{n}/{path}"
    for site in SITES
    for n in (12, 300)
    for path in ("cli", "preflight")
] + [f"fixture/{name}/{ctx}" for name in FIXTURES for ctx in ("seed", "catalogs")]


def digest(case: str) -> str:
    return hashlib.sha256(report_text(case).encode()).hexdigest()


GOLDEN: dict[str, str] = {
    "bundled/sandhills/12/cli": "2f4cba223906736ab40cb3215323b598c2c343a3030f63036c8bb2333bbf03f5",
    "bundled/sandhills/12/preflight": "2f4cba223906736ab40cb3215323b598c2c343a3030f63036c8bb2333bbf03f5",
    "bundled/sandhills/300/cli": "bdd50c4f0b47364e9da8b24b3edd666fec37171dd2be5e7419558aa38322d744",
    "bundled/sandhills/300/preflight": "bdd50c4f0b47364e9da8b24b3edd666fec37171dd2be5e7419558aa38322d744",
    "bundled/osg/12/cli": "33012c87f41bcec01378dc565698b003609931562ac4accd1b37528a46a893b0",
    "bundled/osg/12/preflight": "33012c87f41bcec01378dc565698b003609931562ac4accd1b37528a46a893b0",
    "bundled/osg/300/cli": "21aaf47d8d24e3c1f43f62bee302223dead4f436735fa596c3bb3c298e2cb2e2",
    "bundled/osg/300/preflight": "21aaf47d8d24e3c1f43f62bee302223dead4f436735fa596c3bb3c298e2cb2e2",
    "bundled/osg-never/12/cli": "4e3b5e605269de3a06c8490af4b0136b078fa7428aaaa76e442eb2e56b1b5d03",
    "bundled/osg-never/12/preflight": "4e3b5e605269de3a06c8490af4b0136b078fa7428aaaa76e442eb2e56b1b5d03",
    "bundled/osg-never/300/cli": "79a86f8e87112b6ac825e858a0a66665d331d7695e63f145a09994365a6419ff",
    "bundled/osg-never/300/preflight": "79a86f8e87112b6ac825e858a0a66665d331d7695e63f145a09994365a6419ff",
    "fixture/cycle/seed": "7739400b4e5cdadccb909dfbe396500b300fbb14fc4d2beb230bd14b6456c99e",
    "fixture/cycle/catalogs": "d5868c1a19e7aeeaf4202c6c3b20260959ec26bcaf47caffffca8065c42304ae",
    "fixture/missing-input/seed": "79ac0a8393bf9f618f1edacb63a46f4001db1af56175a70dabb784b4909ce38a",
    "fixture/missing-input/catalogs": "ca04113a39cc72a2a342050e3aa47374640f2b6458d4be265cc61d1b60eeb51b",
    "fixture/write-write/seed": "b7c16abb7a89b119c98149533431002c521c8be9626be3c348d5658d5e02687a",
    "fixture/write-write/catalogs": "8fb3e473c85e9521477914517e22a4a6e3f4ad0d2b2bdd3d5b779904eaa165ec",
    "fixture/in-place/seed": "96cd54fa4fbe4004ff6a5daf8d47c408755911927c793bbfe23cf524cca6b10f",
    "fixture/in-place/catalogs": "195de180b246f26e48b5b717a39d7cade96b4f22c03ab4522827d3767178e0ea",
    "fixture/reuse/seed": "d0a79699a49a6e635daacc70caea49bba38396661b4b66351a7c7be4fb2c5c81",
    "fixture/reuse/catalogs": "d272465e227e947963bcad74366fe58a89ad8af83174fce3774edfdc34d7fcdd",
    "fixture/island/seed": "3af2493adf48784740427026d629ce10719166040ed2822e4a53f61276e95810",
    "fixture/island/catalogs": "6235b9f01688a54fb885eac4cc49b12b339647b1a3986f7c70c76d76924f3d88",
}


@pytest.mark.parametrize("case", CASES)
def test_report_matches_golden(case):
    assert digest(case) == GOLDEN[case], report_text(case)


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    for case in CASES:
        print(f"    \"{case}\": \"{digest(case)}\",")
