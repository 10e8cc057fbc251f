"""Tests for the abstract→executable planner."""

import pytest

from repro.dagman.condor import SOFTWARE_REQUIREMENTS
from repro.wms.catalogs import (
    ReplicaCatalog,
    SiteCatalog,
    TransformationCatalog,
    TransformationEntry,
    local_site,
    osg_site,
    sandhills_site,
)
from repro.wms.dax import ADag, AbstractJob, File
from repro.wms.planner import (
    PlannerOptions,
    PlanningError,
    plan,
)


def catalogs(transformation_names, *, installed=("sandhills", "local")):
    sites = SiteCatalog()
    sites.add(sandhills_site())
    sites.add(osg_site())
    sites.add(local_site())
    tc = TransformationCatalog()
    for name in transformation_names:
        tc.add(
            TransformationEntry(
                name=name, installed_sites=frozenset(installed)
            )
        )
    rc = ReplicaCatalog()
    return sites, tc, rc


def fan_out_adag(n=4):
    """split -> n workers -> merge, with one external input."""
    adag = ADag(name="fan")
    raw = File("raw.txt", size=1000)
    split = AbstractJob(id="split", transformation="split", runtime=10)
    split.add_input(raw)
    parts = []
    for i in range(n):
        part = File(f"part_{i}.txt", size=100)
        parts.append(part)
        split.add_output(part)
    adag.add_job(split)
    merge = AbstractJob(id="merge", transformation="merge", runtime=5)
    for i, part in enumerate(parts):
        out = File(f"out_{i}.txt", size=10)
        adag.add_job(
            AbstractJob(id=f"work_{i}", transformation="work", runtime=100)
            .add_input(part)
            .add_output(out)
        )
        merge.add_input(out)
    merge.add_output(File("final.txt", size=40))
    adag.add_job(merge)
    return adag


class TestPlanningBasics:
    def test_compute_jobs_and_edges_mapped(self):
        adag = fan_out_adag()
        sites, tc, rc = catalogs(("split", "work", "merge"))
        rc.add("raw.txt", "file:///raw.txt")
        planned = plan(adag, site_name="sandhills", sites=sites,
                       transformations=tc, replicas=rc)
        dag = planned.dag
        assert "split" in dag.jobs
        assert dag.parent_sets()["work_0"] >= {"split"}
        assert "merge" in dict(dag.child_sets())["work_0"]

    def test_stage_in_added_for_external_inputs(self):
        adag = fan_out_adag()
        sites, tc, rc = catalogs(("split", "work", "merge"))
        rc.add("raw.txt", "file:///raw.txt")
        planned = plan(adag, site_name="sandhills", sites=sites,
                       transformations=tc, replicas=rc)
        assert "stage_in_raw_txt" in planned.dag.jobs
        assert "split" in dict(planned.dag.child_sets())["stage_in_raw_txt"]
        assert planned.dag.jobs["stage_in_raw_txt"].runtime > 0

    def test_stage_out_collects_finals(self):
        adag = fan_out_adag()
        sites, tc, rc = catalogs(("split", "work", "merge"))
        rc.add("raw.txt", "file:///raw.txt")
        planned = plan(adag, site_name="sandhills", sites=sites,
                       transformations=tc, replicas=rc)
        assert "stage_out_final" in planned.dag.jobs
        assert planned.dag.parent_sets()["stage_out_final"] == {"merge"}

    def test_osg_stage_in_slower_than_campus(self):
        adag = fan_out_adag()
        sites, tc, rc = catalogs(("split", "work", "merge"))
        rc.add("raw.txt", "file:///raw.txt")
        campus = plan(adag, site_name="sandhills", sites=sites,
                      transformations=tc, replicas=rc)
        grid = plan(adag, site_name="osg", sites=sites,
                    transformations=tc, replicas=rc)
        assert (
            grid.dag.jobs["stage_in_raw_txt"].runtime
            > campus.dag.jobs["stage_in_raw_txt"].runtime
        )

    def test_missing_transformation_raises(self):
        adag = fan_out_adag()
        sites, tc, rc = catalogs(("split",))
        rc.add("raw.txt", "file:///raw.txt")
        with pytest.raises(PlanningError, match="transformations not in catalog"):
            plan(adag, site_name="sandhills", sites=sites,
                 transformations=tc, replicas=rc)

    def test_missing_replica_raises(self):
        adag = fan_out_adag()
        sites, tc, rc = catalogs(("split", "work", "merge"))
        with pytest.raises(PlanningError, match="without replicas"):
            plan(adag, site_name="sandhills", sites=sites,
                 transformations=tc, replicas=rc)

    def test_unknown_site_raises(self):
        adag = fan_out_adag()
        sites, tc, rc = catalogs(("split", "work", "merge"))
        rc.add("raw.txt", "file:///raw.txt")
        with pytest.raises(PlanningError, match="site"):
            plan(adag, site_name="xsede", sites=sites,
                 transformations=tc, replicas=rc)

    def test_retries_propagated(self):
        adag = fan_out_adag()
        sites, tc, rc = catalogs(("split", "work", "merge"))
        rc.add("raw.txt", "file:///raw.txt")
        planned = plan(adag, site_name="sandhills", sites=sites,
                       transformations=tc, replicas=rc,
                       options=PlannerOptions(retries=7))
        assert planned.dag.jobs["work_0"].retries == 7

    def test_options_validation(self):
        with pytest.raises(ValueError):
            PlannerOptions(retries=-1)
        with pytest.raises(ValueError):
            PlannerOptions(cluster_size=0)


class TestSetupDecoration:
    def test_sandhills_jobs_need_no_setup(self):
        adag = fan_out_adag()
        sites, tc, rc = catalogs(("split", "work", "merge"))
        rc.add("raw.txt", "file:///raw.txt")
        planned = plan(adag, site_name="sandhills", sites=sites,
                       transformations=tc, replicas=rc)
        assert not any(
            j.needs_setup for j in planned.dag.jobs.values()
        )

    def test_osg_jobs_decorated_with_setup(self):
        adag = fan_out_adag()
        sites, tc, rc = catalogs(("split", "work", "merge"))
        rc.add("raw.txt", "file:///raw.txt")
        planned = plan(adag, site_name="osg", sites=sites,
                       transformations=tc, replicas=rc)
        compute = [planned.dag.jobs[n] for n in planned.job_map.values()]
        assert all(j.needs_setup for j in compute)

    def test_setup_mode_never_uses_classads_instead(self):
        adag = fan_out_adag()
        sites, tc, rc = catalogs(("split", "work", "merge"))
        rc.add("raw.txt", "file:///raw.txt")
        # lint="warn": the preflight flags this configuration as
        # unsatisfiable on osg (CAT002) but must not block the plan.
        planned = plan(adag, site_name="osg", sites=sites,
                       transformations=tc, replicas=rc,
                       options=PlannerOptions(setup_mode="never",
                                              lint="warn"))
        compute = [planned.dag.jobs[n] for n in planned.job_map.values()]
        assert all(not j.needs_setup for j in compute)
        assert all(j.requirements == SOFTWARE_REQUIREMENTS for j in compute)
        assert planned.lint_report is not None
        assert [f.rule for f in planned.lint_report.errors()] == ["CAT002"]

    def test_setup_mode_never_fails_preflight_by_default(self):
        from repro.wms.planner import LintFailure

        adag = fan_out_adag()
        sites, tc, rc = catalogs(("split", "work", "merge"))
        rc.add("raw.txt", "file:///raw.txt")
        with pytest.raises(LintFailure) as excinfo:
            plan(adag, site_name="osg", sites=sites,
                 transformations=tc, replicas=rc,
                 options=PlannerOptions(setup_mode="never"))
        assert excinfo.value.report.by_rule("CAT002")
        assert "unsatisfiable" in str(excinfo.value)

    def test_transformation_installed_on_osg_skips_setup(self):
        adag = fan_out_adag()
        sites, tc, rc = catalogs(
            ("split", "work", "merge"), installed=("sandhills", "osg")
        )
        rc.add("raw.txt", "file:///raw.txt")
        planned = plan(adag, site_name="osg", sites=sites,
                       transformations=tc, replicas=rc)
        assert not planned.dag.jobs["work_0"].needs_setup


class TestCleanup:
    def test_cleanup_jobs_after_consumers(self):
        adag = fan_out_adag()
        sites, tc, rc = catalogs(("split", "work", "merge"))
        rc.add("raw.txt", "file:///raw.txt")
        planned = plan(adag, site_name="sandhills", sites=sites,
                       transformations=tc, replicas=rc,
                       options=PlannerOptions(add_cleanup=True))
        assert "cleanup_part_0_txt" in planned.dag.jobs
        assert planned.dag.parent_sets()["cleanup_part_0_txt"] == {"work_0"}

    def test_finals_and_externals_not_cleaned(self):
        adag = fan_out_adag()
        sites, tc, rc = catalogs(("split", "work", "merge"))
        rc.add("raw.txt", "file:///raw.txt")
        planned = plan(adag, site_name="sandhills", sites=sites,
                       transformations=tc, replicas=rc,
                       options=PlannerOptions(add_cleanup=True))
        assert "cleanup_raw_txt" not in planned.dag.jobs
        assert "cleanup_final_txt" not in planned.dag.jobs


class TestClustering:
    def test_workers_merged_into_superjobs(self):
        adag = fan_out_adag(n=6)
        sites, tc, rc = catalogs(("split", "work", "merge"))
        rc.add("raw.txt", "file:///raw.txt")
        planned = plan(adag, site_name="sandhills", sites=sites,
                       transformations=tc, replicas=rc,
                       options=PlannerOptions(cluster_size=3))
        merged = [n for n in planned.dag.jobs if n.startswith("merge_work")]
        assert len(merged) == 2
        # Sequential super-job: runtimes add up.
        assert planned.dag.jobs[merged[0]].runtime == 300.0

    def test_cluster_preserves_dependencies(self):
        adag = fan_out_adag(n=6)
        sites, tc, rc = catalogs(("split", "work", "merge"))
        rc.add("raw.txt", "file:///raw.txt")
        planned = plan(adag, site_name="sandhills", sites=sites,
                       transformations=tc, replicas=rc,
                       options=PlannerOptions(cluster_size=3))
        parents = planned.dag.parent_sets()
        children = dict(planned.dag.child_sets())
        for cname in (n for n in planned.dag.jobs if n.startswith("merge_work")):
            assert "split" in parents[cname]
            assert "merge" in children[cname]

    def test_job_map_points_to_clusters(self):
        adag = fan_out_adag(n=4)
        sites, tc, rc = catalogs(("split", "work", "merge"))
        rc.add("raw.txt", "file:///raw.txt")
        planned = plan(adag, site_name="sandhills", sites=sites,
                       transformations=tc, replicas=rc,
                       options=PlannerOptions(cluster_size=2))
        assert planned.job_map["work_0"].startswith("merge_work")
        assert planned.job_map["split"] == "split"

    def test_cluster_size_one_is_identity(self):
        adag = fan_out_adag(n=4)
        sites, tc, rc = catalogs(("split", "work", "merge"))
        rc.add("raw.txt", "file:///raw.txt")
        planned = plan(adag, site_name="sandhills", sites=sites,
                       transformations=tc, replicas=rc,
                       options=PlannerOptions(cluster_size=1))
        assert all(not n.startswith("merge_work") for n in planned.dag.jobs)

    def test_whole_dag_still_acyclic_and_runnable(self):
        adag = fan_out_adag(n=9)
        sites, tc, rc = catalogs(("split", "work", "merge"))
        rc.add("raw.txt", "file:///raw.txt")
        planned = plan(adag, site_name="sandhills", sites=sites,
                       transformations=tc, replicas=rc,
                       options=PlannerOptions(cluster_size=4))
        order = planned.dag.topological_order()
        assert len(order) == len(planned.dag)
