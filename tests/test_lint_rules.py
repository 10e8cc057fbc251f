"""Table-driven tests for the repro.lint rule catalog.

One minimal fixture workflow per rule: the clean workflow yields zero
findings, and each seeded defect yields exactly its rule id. Plus the
planner-preflight integration, the ``repro-lint`` CLI contract, and a
hypothesis property: linting any valid factory-built workflow yields
no ERROR findings.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.workflow_factory import (
    build_blast2cap3_adag,
    default_catalogs,
)
from repro.core.pipeline_workflow import build_pipeline_adag
from repro.dagman.dag import CycleError, Dag, DagJob, topological_sort
from repro.lint import (
    DeterminismOptions,
    Severity,
    lint,
    registered_rules,
    render_report,
)
from repro.lint.cli import main as lint_main
from repro.lint.feasibility import default_pools, pools_from_mapping
from repro.perfmodel.task_models import PaperTaskModel
from repro.sim.network import CAMPUS_SHARED_FS
from repro.wms.catalogs import (
    ReplicaCatalog,
    SiteCatalog,
    SiteEntry,
    TransformationCatalog,
    TransformationEntry,
    local_site,
    osg_site,
    sandhills_site,
)
from repro.wms.dax import ADag, AbstractJob, File
from repro.wms.planner import PlannerOptions, plan


def job(jid, inputs=(), outputs=(), transformation="t", **kw):
    j = AbstractJob(id=jid, transformation=transformation, **kw)
    for f in inputs:
        j.add_input(f if isinstance(f, File) else File(f))
    for f in outputs:
        j.add_output(f if isinstance(f, File) else File(f))
    return j


def adag_of(*jobs):
    adag = ADag(name="fixture")
    for j in jobs:
        adag.add_job(j)
    return adag


def full_catalogs(names=("split", "work", "merge"), installed=("sandhills", "local")):
    sites = SiteCatalog()
    sites.add(sandhills_site())
    sites.add(osg_site())
    sites.add(local_site())
    tc = TransformationCatalog()
    for name in names:
        tc.add(TransformationEntry(name=name, installed_sites=frozenset(installed)))
    rc = ReplicaCatalog()
    return sites, tc, rc


def fan_out(n=3):
    adag = ADag(name="fan")
    raw = File("raw.txt", size=1000)
    split = job("split", transformation="split", inputs=[raw], runtime=10)
    merge = job("merge", transformation="merge", runtime=5)
    for i in range(n):
        part = File(f"part_{i}.txt", size=100)
        split.add_output(part)
        out = File(f"out_{i}.txt", size=10)
        adag.add_job(
            job(f"work_{i}", transformation="work", inputs=[part],
                outputs=[out], runtime=100)
        )
        merge.add_input(out)
    merge.add_output(File("final.txt", size=40))
    adag.add_job(split)
    adag.add_job(merge)
    return adag


# ---------------------------------------------------------------------------
# fixture builders: each returns (adag, lint_kwargs) seeding ONE defect
# ---------------------------------------------------------------------------


def seed_dax001():
    a = job("a", inputs=["fb.dat"], outputs=["fa.dat"])
    b = job("b", inputs=["fa.dat"], outputs=["fb.dat"])
    return adag_of(a, b), {}


def seed_dax002():
    a = job("a", inputs=["ghost.txt"], outputs=["out.dat"])
    return adag_of(a), {"replicas": ReplicaCatalog()}


def seed_dax003():
    return adag_of(
        job("a", outputs=["x.dat"]), job("b", outputs=["x.dat"])
    ), {}


def seed_dax004():
    return adag_of(
        job("a", outputs=["x.dat"]), job("sink", inputs=["x.dat"])
    ), {}


def seed_dax005():
    return adag_of(
        job("a", outputs=[File("x.dat", size=100)]),
        job("b", inputs=[File("x.dat", size=999)], outputs=["y.dat"]),
    ), {}


def seed_dax006():
    return adag_of(job("bare")), {}


def seed_dax007():
    adag = adag_of(
        job("a", outputs=["x.dat"]),
        job("b", inputs=["x.dat"], outputs=["y.dat"]),
    )
    adag.add_dependency("a", "b")
    return adag, {}


def seed_dax008():
    return adag_of(job("j", inputs=["f.dat"], outputs=["f.dat", "g.dat"])), {}


def seed_cat001():
    tc = TransformationCatalog()
    return adag_of(
        job("a", transformation="frobnicate", inputs=["in.txt"],
            outputs=["out.txt"])
    ), {"transformations": tc}


def seed_cat002():
    adag = fan_out()
    sites, tc, _ = full_catalogs()
    return adag, {
        "sites": sites,
        "transformations": tc,
        "site": "osg",
        "options": PlannerOptions(setup_mode="never"),
    }


def seed_cat003():
    sites = SiteCatalog()
    sites.add(sandhills_site())
    rc = ReplicaCatalog()
    rc.add("data.bin", "gsiftp://gone/data.bin", site="decommissioned")
    return adag_of(job("a", outputs=["out.txt"])), {
        "sites": sites,
        "replicas": rc,
    }


def seed_cat004():
    sites = SiteCatalog()
    sites.add(sandhills_site())
    return adag_of(job("a", outputs=["out.txt"])), {
        "sites": sites,
        "site": "mars",
    }


def _planned(adag, site_name, sites, tc, rc, **opts):
    return plan(
        adag, site_name=site_name, sites=sites, transformations=tc,
        replicas=rc, options=PlannerOptions(lint="off", **opts),
    )


def seed_plan001():
    # A shared-FS site without the software stack: the planner decorates
    # compute jobs with per-job setup, which the linter calls out.
    adag = fan_out()
    sites, tc, rc = full_catalogs(installed=())
    shared_nosw = SiteEntry(
        name="shared-nosw", shared_filesystem=True,
        software_preinstalled=False, network=CAMPUS_SHARED_FS,
    )
    sites.add(shared_nosw)
    rc.add("raw.txt", "file:///raw.txt")
    planned = _planned(adag, "shared-nosw", sites, tc, rc)
    return adag, {
        "sites": sites, "transformations": tc, "replicas": rc,
        "site": "shared-nosw", "planned": planned,
    }


def seed_plan002():
    # timeout_s set so only the retry defect fires (not PLAN005 too).
    adag = fan_out()
    sites, tc, rc = full_catalogs()
    rc.add("raw.txt", "file:///raw.txt")
    planned = _planned(adag, "osg", sites, tc, rc, retries=0,
                       timeout_s=3600.0)
    return adag, {
        "sites": sites, "transformations": tc, "replicas": rc,
        "site": "osg", "planned": planned,
    }


def seed_plan003():
    adag = fan_out(6)
    sites, tc, rc = full_catalogs()
    rc.add("raw.txt", "file:///raw.txt")
    planned = _planned(adag, "sandhills", sites, tc, rc, cluster_size=6)
    return adag, {
        "sites": sites, "transformations": tc, "replicas": rc,
        "site": "sandhills", "planned": planned,
    }


def seed_plan004():
    adag = fan_out()
    sites, tc, rc = full_catalogs()
    rc.add("raw.txt", "file:///raw.txt")
    planned = _planned(adag, "sandhills", sites, tc, rc)
    planned.dag.jobs["merge"] = replace(
        planned.dag.jobs["merge"], priority=10
    )
    return adag, {
        "sites": sites, "transformations": tc, "replicas": rc,
        "site": "sandhills", "planned": planned,
    }


def seed_plan005():
    # Default retries (> 0) keep PLAN002 quiet; no timeout on a
    # preemptible site is the seeded defect.
    adag = fan_out()
    sites, tc, rc = full_catalogs()
    rc.add("raw.txt", "file:///raw.txt")
    planned = _planned(adag, "osg", sites, tc, rc)
    return adag, {
        "sites": sites, "transformations": tc, "replicas": rc,
        "site": "osg", "planned": planned,
    }


def seed_plan006():
    # Default retries (> 0) mean the plan expects failures; declaring
    # journal=False (run will keep no write-ahead journal) arms the
    # durability rule. Sandhills keeps the preemptible-site rules quiet.
    adag = fan_out()
    sites, tc, rc = full_catalogs()
    rc.add("raw.txt", "file:///raw.txt")
    planned = _planned(adag, "sandhills", sites, tc, rc)
    return adag, {
        "sites": sites, "transformations": tc, "replicas": rc,
        "site": "sandhills", "planned": planned, "journal": False,
    }


def seed_flow001():
    # a's input is unresolvable (DAX002's finding); b is *transitively*
    # starved through a, which is FLOW001's.
    a = job("a", inputs=["ghost.txt"], outputs=["x.dat"])
    b = job("b", inputs=["x.dat"], outputs=["y.dat"])
    return adag_of(a, b), {"replicas": ReplicaCatalog()}


def seed_flow002():
    # p runs fine and computes mid.dat, but its only consumer is starved
    # on an unrelated missing input: mid.dat is produced then discarded.
    rc = ReplicaCatalog()
    rc.add("raw.txt", "file:///raw.txt")
    p = job("p", inputs=["raw.txt"], outputs=["mid.dat"])
    c = job("c", inputs=["mid.dat", "ghost.txt"], outputs=["final.txt"])
    return adag_of(p, c), {"replicas": rc}


def seed_flow003():
    rc = ReplicaCatalog()
    rc.add("raw.txt", "file:///raw.txt")
    rc.add("x.dat", "file:///cache/x.dat")
    a = job("a", inputs=["raw.txt"], outputs=["x.dat"])
    b = job("b", inputs=["x.dat"], outputs=["y.dat"])
    return adag_of(a, b), {"replicas": rc}


def seed_flow004():
    a = job("a", outputs=["x.dat"])
    b = job("b", inputs=["x.dat"], outputs=["y.dat"])
    island = job("island", inputs=["seed2.txt"], outputs=["lost.dat"])
    return adag_of(a, b, island), {}


def seed_res001():
    # Planned with hard software requirements, then checked against a
    # doctored pool where no slot can ever advertise CAP3. Site and
    # transformations are deliberately omitted so CAT002 (which checks
    # the *guaranteed* machine, a weaker claim) stays out of scope.
    adag = fan_out()
    sites, tc, rc = full_catalogs()
    rc.add("raw.txt", "file:///raw.txt")
    planned = _planned(adag, "osg", sites, tc, rc, setup_mode="never")
    doctored = pools_from_mapping(
        {"osg": {"software": ["has_python", "has_biopython"]}},
        base={"osg": default_pools()["osg"]},
    )
    return adag, {"planned": planned, "pools": doctored}


def seed_res002():
    adag = fan_out(3)
    sites, tc, rc = full_catalogs()
    rc.add("raw.txt", "file:///raw.txt")
    planned = _planned(adag, "sandhills", sites, tc, rc)
    tiny = replace(default_pools()["sandhills"], slots=2)
    return adag, {
        "site": sandhills_site(), "planned": planned,
        "pools": {"sandhills": tiny},
    }


def seed_res003():
    # Long jobs on the preemptible pool with one retry: the chance of
    # losing both attempts to eviction is provably above threshold.
    # timeout_s is generous so RES004 stays quiet; retries >= 1 keeps
    # PLAN002 quiet.
    adag = ADag(name="fan")
    raw = File("raw.txt", size=1000)
    split = job("split", transformation="split", inputs=[raw], runtime=10)
    merge = job("merge", transformation="merge", runtime=5)
    for i in range(3):
        part = File(f"part_{i}.txt", size=100)
        split.add_output(part)
        out = File(f"out_{i}.txt", size=10)
        adag.add_job(
            job(f"work_{i}", transformation="work", inputs=[part],
                outputs=[out], runtime=5000)
        )
        merge.add_input(out)
    merge.add_output(File("final.txt", size=40))
    adag.add_job(split)
    adag.add_job(merge)
    sites, tc, rc = full_catalogs()
    rc.add("raw.txt", "file:///raw.txt")
    planned = _planned(adag, "osg", sites, tc, rc, retries=1,
                       timeout_s=36000.0)
    return adag, {
        "site": osg_site(), "planned": planned,
        "pools": default_pools(),
    }


def seed_res004():
    # timeout_s below the best-case runtime of the work jobs even on
    # the fastest modeled sandhills slot: every attempt is killed.
    adag = fan_out()
    sites, tc, rc = full_catalogs()
    rc.add("raw.txt", "file:///raw.txt")
    planned = _planned(adag, "sandhills", sites, tc, rc, timeout_s=10.0)
    return adag, {
        "site": sandhills_site(), "planned": planned,
        "pools": default_pools(),
    }


def seed_det001():
    # A fake runner whose fingerprint depends on the perturbation name:
    # every perturbed replay diverges from baseline.
    opts = DeterminismOptions(
        runner=lambda platform, perturbation, _opts: perturbation,
    )
    return fan_out(), {"determinism": opts}


#: Rules whose seed *inherently* co-fires another rule: transitive
#: starvation (FLOW001/FLOW002) always roots in a missing file, which
#: is DAX002's finding — both firing is the designed division of labor.
CO_FIRES = {
    "FLOW001": {"DAX002"},
    "FLOW002": {"DAX002"},
}


SEEDS = {
    "DAX001": seed_dax001,
    "DAX002": seed_dax002,
    "DAX003": seed_dax003,
    "DAX004": seed_dax004,
    "DAX005": seed_dax005,
    "DAX006": seed_dax006,
    "DAX007": seed_dax007,
    "DAX008": seed_dax008,
    "CAT001": seed_cat001,
    "CAT002": seed_cat002,
    "CAT003": seed_cat003,
    "CAT004": seed_cat004,
    "PLAN001": seed_plan001,
    "PLAN002": seed_plan002,
    "PLAN003": seed_plan003,
    "PLAN004": seed_plan004,
    "PLAN005": seed_plan005,
    "PLAN006": seed_plan006,
    "FLOW001": seed_flow001,
    "FLOW002": seed_flow002,
    "FLOW003": seed_flow003,
    "FLOW004": seed_flow004,
    "RES001": seed_res001,
    "RES002": seed_res002,
    "RES003": seed_res003,
    "RES004": seed_res004,
    "DET001": seed_det001,
}


class TestRuleTable:
    def test_every_registered_rule_has_a_seed(self):
        assert sorted(SEEDS) == [r.id for r in registered_rules()]
        assert len(SEEDS) >= 10

    @pytest.mark.parametrize("rule_id", sorted(SEEDS))
    def test_seeded_defect_fires_exactly_its_rule(self, rule_id):
        adag, kwargs = SEEDS[rule_id]()
        report = lint(adag, **kwargs)
        fired = {f.rule for f in report.findings}
        allowed = {rule_id} | CO_FIRES.get(rule_id, set())
        assert rule_id in fired, render_report(report)
        assert fired <= allowed, render_report(report)
        assert rule_id in report.checked_rules

    def test_clean_blast2cap3_yields_zero_findings(self):
        adag = build_blast2cap3_adag(10, model=PaperTaskModel())
        sites, tc, rc = default_catalogs()
        planned = plan(adag, site_name="sandhills", sites=sites,
                       transformations=tc, replicas=rc)
        report = lint(adag, sites=sites, transformations=tc, replicas=rc,
                      site="sandhills", planned=planned, journal=True)
        assert report.findings == []
        # the determinism audit is opt-in; every static pass ran
        # (journal=True satisfies PLAN006 rather than skipping it)
        assert report.skipped_rules == ["DET001"]
        assert report.ok

    def test_clean_pipeline_yields_zero_findings(self):
        assert lint(build_pipeline_adag(3)).findings == []

    def test_severities(self):
        by_id = {r.id: r.severity for r in registered_rules()}
        assert by_id["DAX001"] is Severity.ERROR
        assert by_id["DAX003"] is Severity.ERROR
        assert by_id["CAT002"] is Severity.ERROR
        assert by_id["DAX007"] is Severity.INFO
        assert by_id["PLAN002"] is Severity.WARNING

    def test_report_renders_and_serializes(self):
        import json

        adag, kwargs = seed_dax003()
        report = lint(adag, **kwargs)
        text = render_report(report)
        assert "DAX003" in text and "ERROR" in text
        data = json.loads(report.to_json())
        assert data["ok"] is False
        assert data["findings"][0]["rule"] == "DAX003"

    def test_rules_skip_without_context(self):
        report = lint(adag_of(job("a", outputs=["x"])))
        assert "CAT001" in report.skipped_rules
        assert "PLAN004" in report.skipped_rules
        assert "DAX003" in report.checked_rules




class TestCycleHelper:
    def test_topological_sort_raises_cycle_error(self):
        with pytest.raises(CycleError) as excinfo:
            topological_sort(["a", "b"], {"a": {"b"}, "b": {"a"}})
        assert excinfo.value.members == ("a", "b")

    def test_cycle_error_is_value_error(self):
        dag = Dag()
        dag.add_job(DagJob(name="a", transformation="t"))
        dag.add_job(DagJob(name="b", transformation="t"))
        dag.add_edge("a", "b")
        with pytest.raises(ValueError, match="would create a cycle"):
            dag.add_edge("b", "a")
        # rollback: the DAG is still orderable and the edge is gone
        assert dag.topological_order() == ["a", "b"]
        assert dag.children("b") == set()


class TestPlannerPreflight:
    def test_plan_attaches_clean_report(self):
        adag = fan_out()
        sites, tc, rc = full_catalogs()
        rc.add("raw.txt", "file:///raw.txt")
        planned = plan(adag, site_name="sandhills", sites=sites,
                       transformations=tc, replicas=rc)
        assert planned.lint_report is not None
        assert planned.lint_report.findings == []

    def test_lint_off_skips_preflight(self):
        adag = fan_out()
        sites, tc, rc = full_catalogs()
        rc.add("raw.txt", "file:///raw.txt")
        planned = plan(adag, site_name="sandhills", sites=sites,
                       transformations=tc, replicas=rc,
                       options=PlannerOptions(lint="off"))
        assert planned.lint_report is None

    def test_warn_mode_surfaces_warnings_without_raising(self):
        adag = fan_out()
        sites, tc, rc = full_catalogs()
        rc.add("raw.txt", "file:///raw.txt")
        planned = plan(adag, site_name="osg", sites=sites,
                       transformations=tc, replicas=rc,
                       options=PlannerOptions(retries=0, lint="warn"))
        assert planned.lint_report.by_rule("PLAN002")

    def test_invalid_lint_mode_rejected(self):
        with pytest.raises(ValueError, match="lint mode"):
            PlannerOptions(lint="loud")


WRITE_WRITE_DAX = """\
<adag name="conflicted" jobCount="2">
  <job id="a" name="t" runtime="1.0">
    <uses name="x.dat" link="output" size="10" />
  </job>
  <job id="b" name="t" runtime="1.0">
    <uses name="x.dat" link="output" size="10" />
  </job>
</adag>
"""


class TestCli:
    def test_write_write_conflict_exits_nonzero(self, tmp_path, capsys):
        dax = tmp_path / "conflicted.dax"
        dax.write_text(WRITE_WRITE_DAX)
        rc = lint_main(["--dax", str(dax), "--site", "sandhills"])
        assert rc == 1
        assert "DAX003" in capsys.readouterr().out

    def test_bundled_workflow_is_clean_for_every_site(self, capsys):
        for site in ("sandhills", "osg", "cloud", "local"):
            rc = lint_main(["-n", "12", "--site", site])
            assert rc == 0, capsys.readouterr().out
        assert "clean" in capsys.readouterr().out

    def test_paper_trap_detected(self, capsys):
        rc = lint_main(
            ["-n", "12", "--site", "osg", "--setup-mode", "never"]
        )
        assert rc == 1
        assert "CAT002" in capsys.readouterr().out

    def test_json_output(self, capsys):
        import json

        rc = lint_main(["-n", "5", "--site", "sandhills", "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True

    def test_missing_dax_file(self, capsys):
        rc = lint_main(["--dax", "/nonexistent/w.dax"])
        assert rc == 2


class TestFactoryWorkflowsAlwaysLintClean:
    @given(
        n=st.integers(min_value=1, max_value=25),
        site=st.sampled_from(["sandhills", "osg", "cloud"]),
        retries=st.integers(min_value=1, max_value=5),
        cluster_size=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_no_errors_on_valid_generated_workflows(
        self, n, site, retries, cluster_size
    ):
        adag = build_blast2cap3_adag(n, model=PaperTaskModel())
        sites, tc, rc = default_catalogs()
        planned = plan(
            adag, site_name=site, sites=sites, transformations=tc,
            replicas=rc,
            options=PlannerOptions(retries=retries,
                                   cluster_size=cluster_size,
                                   lint="off"),
        )
        report = lint(adag, sites=sites, transformations=tc, replicas=rc,
                      site=site, planned=planned)
        assert not report.errors(), render_report(report)

    @given(n_lanes=st.integers(min_value=1, max_value=8))
    @settings(max_examples=15, deadline=None)
    def test_pipeline_adag_dax_pass_clean(self, n_lanes):
        report = lint(build_pipeline_adag(n_lanes))
        assert not report.errors()
