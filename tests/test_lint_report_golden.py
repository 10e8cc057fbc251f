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
    "bundled/sandhills/12/cli": "4085aa3bff349f494998318967bf76f66b8b85900f61717b3fe3d35cb075e724",
    "bundled/sandhills/12/preflight": "4085aa3bff349f494998318967bf76f66b8b85900f61717b3fe3d35cb075e724",
    "bundled/sandhills/300/cli": "62ab4524ef259db8b5a2e5d7c5d5d0d97fd6e37fa971940309e98cd9fc6bfa4c",
    "bundled/sandhills/300/preflight": "62ab4524ef259db8b5a2e5d7c5d5d0d97fd6e37fa971940309e98cd9fc6bfa4c",
    "bundled/osg/12/cli": "b7413df6dce58fd0e1c3b568ca581c1d272c3bd1ef8e626292f70fd6df00847a",
    "bundled/osg/12/preflight": "b7413df6dce58fd0e1c3b568ca581c1d272c3bd1ef8e626292f70fd6df00847a",
    "bundled/osg/300/cli": "6ceb6e2c354ff62fafc221ae686d12af418039b482bbe231443bee1197dc1a9d",
    "bundled/osg/300/preflight": "6ceb6e2c354ff62fafc221ae686d12af418039b482bbe231443bee1197dc1a9d",
    "bundled/osg-never/12/cli": "42a196ae30c6bbe4eeb082dd6ea9f7164d511d0f698f98006b3b7fc200b87c57",
    "bundled/osg-never/12/preflight": "42a196ae30c6bbe4eeb082dd6ea9f7164d511d0f698f98006b3b7fc200b87c57",
    "bundled/osg-never/300/cli": "f5088afee5e7232d2c16a90a6d11c00739545999fad7d061141b80a5658cdda1",
    "bundled/osg-never/300/preflight": "f5088afee5e7232d2c16a90a6d11c00739545999fad7d061141b80a5658cdda1",
    "fixture/cycle/seed": "d5df21c0cb561d65b9780083ad9dbe3cedab2aef3bbc4dc29028d0dea49262fb",
    "fixture/cycle/catalogs": "cfe8abe2e12a831d7958787b94ca7335b2d8dbc17881f6294fd4989df07d7828",
    "fixture/missing-input/seed": "d9d80b09a2d58cd8d16f45a167319415c0f6bfe1c2a974d0b2211946cf273493",
    "fixture/missing-input/catalogs": "d03ee7f345d7c83106979403546bf7785f792b074a7d6255367ce82290e4d011",
    "fixture/write-write/seed": "6f27c37554ff9ad291ce6ec663319dfb513fdd7d188f6e3ea26870abcc3193ee",
    "fixture/write-write/catalogs": "815ad01a151e17a777a9f7443e3f1998439c51f0191705af0e03a98c6744d92a",
    "fixture/in-place/seed": "f7d6004f2d57e346e64f8e6b73d8f05b0085b5bf03ef9ca01753a2c6f27a05bd",
    "fixture/in-place/catalogs": "976831fb90300e5cd3a39771035b751466bb97077989398d20c30c186a8b97cc",
    "fixture/reuse/seed": "d6256fd0408e5f5dd6bfc8efa890208e772a20f8ca170226d52ec234355b685f",
    "fixture/reuse/catalogs": "b1a450d6bff9e6396947ff4e1f5aad8fb58e8f188e574fc7fb029f7b20405367",
    "fixture/island/seed": "ca0e92c5847b12c25d2df037663c9b8130d7ba65e4a6f06318392f1dd0c55d4e",
    "fixture/island/catalogs": "b93fc1f1b60080929d9ca75ef2226add6a18685e05cdbc29b2e36c106c007ff7",
}


@pytest.mark.parametrize("case", CASES)
def test_report_matches_golden(case):
    assert digest(case) == GOLDEN[case], report_text(case)


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    for case in CASES:
        print(f"    \"{case}\": \"{digest(case)}\",")
