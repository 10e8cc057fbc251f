"""Tests for the blast2cap3 workflow factory: DAG structure (Figs. 2-3),
real local execution parity, and simulated paper-scale runs."""

import pytest

from repro.bio.fasta import read_fasta, write_fasta
from repro.blast.tabular import write_tabular
from repro.core.blast2cap3 import blast2cap3_parallel
from repro.core.workflow_factory import (
    build_blast2cap3_adag,
    default_catalogs,
    run_local,
    simulate_paper_run,
    workflow_figure,
)
from repro.datagen.transcripts import TranscriptomeSpec
from repro.datagen.workload import generate_blast2cap3_workload
from repro.perfmodel.task_models import PaperTaskModel
from repro.wms.planner import PlannerOptions, plan


class TestAdagStructure:
    def test_job_inventory_matches_fig2(self):
        adag = build_blast2cap3_adag(5)
        names = set(adag.jobs)
        assert {"create_transcript_list", "create_alignment_list", "split",
                "merge_joined", "merge_unjoined", "concat_final"} <= names
        assert {f"run_cap3_{i}" for i in range(1, 6)} <= names
        assert len(adag) == 6 + 5

    def test_dependency_structure(self):
        adag = build_blast2cap3_adag(3)
        edges = adag.edges()
        assert ("split", "run_cap3_1") in edges
        assert ("create_transcript_list", "run_cap3_1") in edges
        assert ("run_cap3_2", "merge_joined") in edges
        assert ("run_cap3_2", "merge_unjoined") in edges
        assert ("merge_joined", "concat_final") in edges
        assert ("merge_unjoined", "concat_final") in edges
        assert ("create_alignment_list", "split") in edges

    def test_external_inputs_are_the_papers_two_files(self):
        adag = build_blast2cap3_adag(4)
        assert {f.name for f in adag.external_inputs()} == {
            "transcripts.fasta", "alignments.out",
        }

    def test_final_output(self):
        adag = build_blast2cap3_adag(4)
        assert [f.name for f in adag.final_outputs()] == [
            "merged_transcriptome.fasta"
        ]

    def test_paper_model_annotates_runtimes(self):
        model = PaperTaskModel()
        adag = build_blast2cap3_adag(10, model=model)
        cap3_runtimes = [
            adag.jobs[f"run_cap3_{i}"].runtime for i in range(1, 11)
        ]
        assert sum(cap3_runtimes) == pytest.approx(model.cap3_total_s)
        assert adag.jobs["split"].runtime == model.split_runtime(10)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            build_blast2cap3_adag(0)

    def test_dax_roundtrip(self):
        from repro.wms.dax import ADag

        adag = build_blast2cap3_adag(3, model=PaperTaskModel())
        back = ADag.from_xml(adag.to_xml())
        assert back.edges() == adag.edges()
        assert back.jobs["run_cap3_2"].runtime == adag.jobs["run_cap3_2"].runtime


class TestFigures:
    def test_fig2_shapes(self):
        adag = build_blast2cap3_adag(3)
        dot = workflow_figure(adag).render()
        assert "shape=ellipse" in dot  # tasks are ovals
        assert "shape=box, style=rounded" in dot  # files are squares
        assert "color=red" not in dot

    def test_fig3_red_setup_tasks(self):
        adag = build_blast2cap3_adag(3)
        dot = workflow_figure(adag, osg=True).render()
        assert "color=red" in dot

    def test_figure_covers_all_jobs_and_files(self):
        adag = build_blast2cap3_adag(4)
        graph = workflow_figure(adag)
        # jobs + distinct files
        files = {f.name for j in adag.jobs.values() for f, _ in j.uses}
        assert graph.node_count == len(adag) + len(files)


class TestPlanningBothSites:
    def test_osg_plan_decorates_compute_jobs(self):
        adag = build_blast2cap3_adag(4, model=PaperTaskModel())
        sites, tc, rc = default_catalogs()
        campus = plan(adag, site_name="sandhills", sites=sites,
                      transformations=tc, replicas=rc)
        grid = plan(adag, site_name="osg", sites=sites,
                    transformations=tc, replicas=rc)
        assert not campus.dag.jobs["run_cap3_1"].needs_setup
        assert grid.dag.jobs["run_cap3_1"].needs_setup

    def test_auxiliary_jobs_added(self):
        adag = build_blast2cap3_adag(4, model=PaperTaskModel())
        sites, tc, rc = default_catalogs()
        planned = plan(adag, site_name="sandhills", sites=sites,
                       transformations=tc, replicas=rc)
        aux = set(planned.auxiliary_jobs)
        assert "stage_in_transcripts_fasta" in aux
        assert "stage_in_alignments_out" in aux
        assert "stage_out_final" in aux


@pytest.fixture(scope="module")
def staged_workload(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("workload")
    wl = generate_blast2cap3_workload(
        n_proteins=8,
        spec=TranscriptomeSpec(
            mean_fragments_per_gene=3.0, noise_transcripts=2, error_rate=0.002
        ),
        seed=55,
    )
    transcripts = tmp / "transcripts.fasta"
    alignments = tmp / "alignments.out"
    write_fasta(transcripts, wl.transcripts)
    write_tabular(alignments, wl.hits)
    return wl, transcripts, alignments


class TestRunLocal:
    def test_real_execution_matches_serial(self, staged_workload, tmp_path):
        wl, transcripts, alignments = staged_workload
        result = run_local(
            transcripts, alignments, tmp_path / "work", n=3, max_workers=4
        )
        assert result.dagman.success
        workflow_records = {
            (r.id, r.seq) for r in read_fasta(result.final_output)
        }
        serial = blast2cap3_parallel(wl.transcripts, wl.hits, jobs=1)
        assert workflow_records == {
            (r.id, r.seq) for r in serial.output_records
        }

    def test_trace_covers_all_jobs(self, staged_workload, tmp_path):
        wl, transcripts, alignments = staged_workload
        result = run_local(
            transcripts, alignments, tmp_path / "work", n=2, max_workers=2
        )
        job_names = {a.job_name for a in result.dagman.trace}
        assert "run_cap3_1" in job_names
        assert "stage_in_transcripts_fasta" in job_names
        assert all(a.status.is_success for a in result.dagman.trace)


class TestSimulatedRuns:
    def test_sandhills_run_succeeds_with_no_failures(self):
        result, planned = simulate_paper_run(10, "sandhills", seed=1)
        assert result.success
        assert result.trace.retry_count == 0
        assert planned.site.name == "sandhills"

    def test_osg_run_has_setup_time(self):
        result, _ = simulate_paper_run(10, "osg", seed=1)
        assert result.success
        cap3 = [
            a for a in result.trace.successful()
            if a.transformation == "run_cap3"
        ]
        assert all(a.download_install_time > 0 for a in cap3)

    def test_unknown_platform(self):
        with pytest.raises(ValueError, match="unknown platform"):
            simulate_paper_run(10, "xsede")  # type: ignore[arg-type]

    def test_more_than_95_percent_reduction(self):
        model = PaperTaskModel()
        result, _ = simulate_paper_run(100, "sandhills", seed=1, model=model)
        reduction = 1 - result.trace.wall_time() / model.serial_walltime()
        assert reduction > 0.95
