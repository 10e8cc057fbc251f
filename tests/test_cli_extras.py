"""Tests for the newer CLI features: cloud site, clustering/cleanup
flags, live attempt streaming, and --validate."""

import json

import pytest

from repro.bio.fasta import write_fasta
from repro.blast.tabular import write_tabular
from repro.core.cli import main as blast2cap3_main
from repro.dagman.scheduler import DagmanScheduler
from repro.datagen.workload import generate_blast2cap3_workload
from repro.wms.cli import main_plan, main_run, main_statistics
from repro.observe import EventBus, EventLogWriter
from repro.wms.monitor import read_trace


class TestCloudCli:
    def test_plan_and_run_on_cloud(self, tmp_path, capsys):
        d = tmp_path / "cloud-run"
        assert main_plan(["--submit-dir", str(d), "-n", "10",
                          "--site", "cloud"]) == 0
        assert main_run(["--submit-dir", str(d), "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "cloud cost: $" in out
        assert main_statistics(["--submit-dir", str(d)]) == 0

    def test_blacklist_flags_reach_the_cloud_platform(self, tmp_path):
        # Regression: repro-run built the Blacklist, then constructed
        # CloudPlatform without it, so --blacklist-* did nothing there.
        d = tmp_path / "cloud-chaos"
        assert main_plan(["--submit-dir", str(d), "-n", "10",
                          "--site", "cloud", "--retries", "30"]) == 0
        assert main_run(["--submit-dir", str(d), "--seed", "1",
                         "--chaos-start-failure", "0.3",
                         "--blacklist-threshold", "1"]) == 0
        events = [json.loads(line)
                  for line in (d / "events.jsonl").read_text().splitlines()]
        failed_starts = [e for e in events
                         if e["event"] == "fault.injected"]
        tripped = [e for e in events if e["event"] == "blacklist.add"]
        assert failed_starts and len(tripped) == len(failed_starts)
        assert all(e["site"] == "cloud" for e in tripped)


class TestPlannerFlags:
    def test_cluster_size_flag_merges_jobs(self, tmp_path):
        d = tmp_path / "clustered"
        main_plan(["--submit-dir", str(d), "-n", "20",
                   "--cluster-size", "5"])
        meta = json.loads((d / "plan.json").read_text())
        merged = [n for n in meta["jobs"] if n.startswith("merge_run_cap3")]
        assert len(merged) == 4  # 20 tasks / 5 per super-job
        assert main_run(["--submit-dir", str(d), "--seed", "0"]) == 0

    def test_cleanup_flag_adds_jobs(self, tmp_path):
        d = tmp_path / "cleaned"
        main_plan(["--submit-dir", str(d), "-n", "5", "--cleanup"])
        meta = json.loads((d / "plan.json").read_text())
        assert any(n.startswith("cleanup_") for n in meta["jobs"])
        assert main_run(["--submit-dir", str(d), "--seed", "0"]) == 0


class TestMonitordHook:
    def test_attempts_streamed_to_jsonl(self, tmp_path):
        from repro.core.workflow_factory import (
            build_blast2cap3_adag,
            default_catalogs,
        )
        from repro.perfmodel.task_models import PaperTaskModel
        from repro.sim.cluster import CampusCluster
        from repro.sim.engine import Simulator
        from repro.sim.rng import RngStreams
        from repro.wms.planner import plan

        adag = build_blast2cap3_adag(5, model=PaperTaskModel())
        sites, tc, rc = default_catalogs()
        planned = plan(adag, site_name="sandhills", sites=sites,
                       transformations=tc, replicas=rc)
        log = tmp_path / "live.jsonl"
        bus = EventBus()
        env = CampusCluster(Simulator(), streams=RngStreams(seed=0), bus=bus)
        with EventLogWriter(log, bus):
            result = DagmanScheduler(planned.dag, env, bus=bus).run()
        assert result.success
        assert read_trace(log) == result.trace


class TestValidateFlag:
    @pytest.fixture()
    def inputs(self, tmp_path):
        wl = generate_blast2cap3_workload(n_proteins=4, seed=9)
        t, a = tmp_path / "t.fasta", tmp_path / "a.out"
        write_fasta(t, wl.transcripts)
        write_tabular(a, wl.hits)
        return t, a, tmp_path

    def test_serial_validate(self, inputs, capsys):
        t, a, tmp = inputs
        rc = blast2cap3_main([
            "--transcripts", str(t), "--alignments", str(a),
            "--output", str(tmp / "o.fasta"), "--parallel", "--jobs", "1",
            "--validate",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Validation" in out
        assert "N50" in out
