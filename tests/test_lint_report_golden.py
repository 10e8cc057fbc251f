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
``PYTHONPATH=src python tests/test_lint_report_golden.py``.
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
    "bundled/sandhills/12/cli": "901d61a78a8208118662a197d749c860d1354743f87ab4415bfc234cd7d11f99",
    "bundled/sandhills/12/preflight": "901d61a78a8208118662a197d749c860d1354743f87ab4415bfc234cd7d11f99",
    "bundled/sandhills/300/cli": "8fa73ace0136abffb756e4ba4f45ef41521e41f78016f2f5d69864bfaf7ab5fa",
    "bundled/sandhills/300/preflight": "8fa73ace0136abffb756e4ba4f45ef41521e41f78016f2f5d69864bfaf7ab5fa",
    "bundled/osg/12/cli": "08d0ecb09ac1c4d11ef066436ed9698ba55a706066cd185065c955a56cfa3287",
    "bundled/osg/12/preflight": "08d0ecb09ac1c4d11ef066436ed9698ba55a706066cd185065c955a56cfa3287",
    "bundled/osg/300/cli": "91b0f5e6eaa0518e906b9e83f7fbae15af31799e21efddf8fed5889e603c8fbc",
    "bundled/osg/300/preflight": "91b0f5e6eaa0518e906b9e83f7fbae15af31799e21efddf8fed5889e603c8fbc",
    "bundled/osg-never/12/cli": "e93d0eb3655e7176b184373ef59a1b1a6a825fd05ffb974406784ceb867c93c2",
    "bundled/osg-never/12/preflight": "e93d0eb3655e7176b184373ef59a1b1a6a825fd05ffb974406784ceb867c93c2",
    "bundled/osg-never/300/cli": "2041b47ccb90ff5f679c58ee0abe0908d57ed5769e84b41c397a34c6409cc9e2",
    "bundled/osg-never/300/preflight": "2041b47ccb90ff5f679c58ee0abe0908d57ed5769e84b41c397a34c6409cc9e2",
    "fixture/cycle/seed": "33a086b29c069d39e957637622f27e7efe92c407e0dbd7ddefbb7e670b1fe467",
    "fixture/cycle/catalogs": "077c07b0c20d79425936c01afc1e7e8513c4924edbf5b9cd869a7077b4f213ad",
    "fixture/missing-input/seed": "be16df987502c0ae193a02c3e96c3c3abd9f35218f0e2caae36b265394e7ddb1",
    "fixture/missing-input/catalogs": "2b36d90bf968bb6504ca8e0dacac2caa941fd68374f778807f18e87fbfc57ef2",
    "fixture/write-write/seed": "cd17f571d0e6663097a10c7a59b6012f53b4fa453b535ff2101eb89406ef6fce",
    "fixture/write-write/catalogs": "7db5a7b07dade8a0ce175ea5b48b750a5b550bb152214b39d9887e4f7718aa23",
    "fixture/in-place/seed": "8716648ea94133d86cbeed66bf1246c4df4ab881568d97b2bc7fc2b430f79dbc",
    "fixture/in-place/catalogs": "fde79a9e694c6a6d7ed0882b25f29c500a349b0009e0447c9e34c0641508ca7f",
    "fixture/reuse/seed": "67c77d85671a5650d2b994a5674a08debf1671a40c56adab34d30247cf5324a0",
    "fixture/reuse/catalogs": "462ba269cffe4f2298e3e7fd78524e052ff9f36c2aad48439992021aa2287fbb",
    "fixture/island/seed": "4e6008638817110597de68a91c7eb726e19d57e6bafc2083e1c7407367250efc",
    "fixture/island/catalogs": "a1c38a9090ae8c1ed196fe28f37387dd05de498a70b6f15b1a4b49012e28fc79",
}


@pytest.mark.parametrize("case", CASES)
def test_report_matches_golden(case):
    assert digest(case) == GOLDEN[case], report_text(case)


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    for case in CASES:
        print(f"    \"{case}\": \"{digest(case)}\",")
