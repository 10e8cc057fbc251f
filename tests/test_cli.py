"""Tests for the command-line tools (plan/run/status/statistics/analyzer
and the blast2cap3 driver)."""

import json
import shutil

import pytest

from repro.bio.fasta import read_fasta, write_fasta
from repro.blast.tabular import write_tabular
from repro.core.cli import main as blast2cap3_main
from repro.datagen.transcripts import TranscriptomeSpec
from repro.datagen.workload import generate_blast2cap3_workload
from repro.observe.report import main as main_report
from repro.wms.analyzer import analyze, render_analysis
from repro.wms.cli import (
    main_analyzer,
    main_plan,
    main_plots,
    main_run,
    main_statistics,
    main_status,
)
from repro.wms.monitor import load_run


@pytest.fixture(scope="module")
def submit_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("submit")
    rc = main_plan(["--submit-dir", str(d), "-n", "20", "--site", "sandhills"])
    assert rc == 0
    rc = main_run(["--submit-dir", str(d), "--seed", "1"])
    assert rc == 0
    return d


class TestPegasusStyleCli:
    def test_plan_writes_artifacts(self, submit_dir):
        assert (submit_dir / "workflow.dax").exists()
        assert (submit_dir / "workflow.dag").exists()
        assert (submit_dir / "plan.json").exists()
        dag_text = (submit_dir / "workflow.dag").read_text()
        assert "JOB run_cap3_1 run_cap3.sub" in dag_text

    def test_run_writes_trace(self, submit_dir):
        assert (submit_dir / "trace.jsonl").exists()

    def test_status(self, submit_dir, capsys):
        assert main_status(["--submit-dir", str(submit_dir)]) == 0
        out = capsys.readouterr().out
        assert "jobs done (100.0%)" in out

    def test_statistics(self, submit_dir, capsys):
        assert main_statistics(["--submit-dir", str(submit_dir)]) == 0
        out = capsys.readouterr().out
        assert "Workflow wall time" in out
        assert "run_cap3" in out

    def test_analyzer_on_success(self, submit_dir, capsys):
        assert main_analyzer(["--submit-dir", str(submit_dir)]) == 0
        assert "all jobs completed successfully" in capsys.readouterr().out

    def test_analyzer_prints_what_render_analysis_prints(self, tmp_path, capsys):
        """One post-mortem: the command renders the failed run through
        ``wms/analyzer.py``, from the trace and the planned job names."""
        d = tmp_path / "doomed"
        assert main_plan(["--submit-dir", str(d), "-n", "6", "--site", "osg",
                          "--retries", "1"]) == 0
        assert main_run(["--submit-dir", str(d), "--seed", "0"]) == 1
        capsys.readouterr()
        assert main_analyzer(["--submit-dir", str(d)]) == 1
        printed = capsys.readouterr().out
        run = load_run(d)
        report = analyze(run.trace, run.dag.jobs)
        assert report.failed and report.unrunnable
        assert printed == render_analysis(report) + "\n"

    def test_status_without_trace_exits_2(self, tmp_path):
        d = tmp_path / "fresh"
        main_plan(["--submit-dir", str(d), "-n", "5"])
        with pytest.raises(SystemExit) as exc:
            main_status(["--submit-dir", str(d)])
        assert exc.value.code == 2

    def test_osg_plan_and_run(self, tmp_path, capsys):
        d = tmp_path / "osg"
        assert main_plan(["--submit-dir", str(d), "-n", "10",
                          "--site", "osg"]) == 0
        assert main_run(["--submit-dir", str(d), "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "succeeded" in out

    def test_nan_runtime_in_plan_is_refused_not_simulated(
        self, tmp_path, capsys
    ):
        """``json`` reads a bare ``NaN``; as a runtime it used to pass
        ``runtime < 0``, put NaN keys in the event heap and end in
        "workflow FAILED ... 0 failed, 0 unrunnable", exit 1."""
        d = tmp_path / "nan"
        assert main_plan(["--submit-dir", str(d), "-n", "4",
                          "--site", "sandhills"]) == 0
        plan = d / "plan.json"
        meta = json.loads(plan.read_text())
        meta["jobs"]["run_cap3_2"]["runtime"] = float("nan")
        plan.write_text(json.dumps(meta))
        assert "NaN" in plan.read_text()
        capsys.readouterr()
        assert main_run(["--submit-dir", str(d)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line == (
            f"{plan}: job 'run_cap3_2': runtime must be >= 0, got nan"
        )
        assert not (d / "events.jsonl").exists()


    def test_unknown_site_in_plan_is_refused_like_any_other_plan_defect(
        self, tmp_path, capsys
    ):
        d = tmp_path / "mars"
        assert main_plan(["--submit-dir", str(d), "-n", "4"]) == 0
        plan = d / "plan.json"
        plan.write_text(json.dumps(json.loads(plan.read_text()) | {"site": "mars"}))
        capsys.readouterr()
        assert main_run(["--submit-dir", str(d)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"{plan}: unknown site 'mars'; choose from [")


def exit_code(main, argv):
    try:
        return main(argv)
    except SystemExit as stop:  # the post-run commands leave this way
        return stop.code


PLAN_READERS = {
    "repro-run": (main_run, ["--submit-dir", "{d}"]),
    "repro-status": (main_status, ["--submit-dir", "{d}"]),
    "repro-statistics": (main_statistics, ["--submit-dir", "{d}"]),
    "repro-plots": (main_plots, ["--submit-dir", "{d}"]),
    "repro-analyzer": (main_analyzer, ["--submit-dir", "{d}"]),
    "repro-report analyze": (main_report, ["analyze", "{d}"]),
}


def unknown_parent(meta):
    meta["edges"][0][0] = "nobody"


def back_edge(meta):
    # split -> run_cap3_1 is planned; the reverse closes a cycle
    meta["edges"].append(["run_cap3_1", "split"])


class Refusals:
    def refused(self, command, d, capsys):
        main, argv = PLAN_READERS[command]
        capsys.readouterr()
        assert exit_code(main, [a.format(d=d) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        (line,) = err.splitlines()
        return line.removeprefix("repro-report: ")


@pytest.mark.parametrize("command", PLAN_READERS)
class TestDamagedPlan(Refusals):
    """A missing or torn ``plan.json`` used to be a traceback
    (``FileNotFoundError``, ``JSONDecodeError``, ``KeyError``)."""

    def test_empty_submit_dir(self, command, tmp_path, capsys):
        line = self.refused(command, tmp_path, capsys)
        assert str(tmp_path) in line
        if command in ("repro-run", "repro-status"):
            assert line == (f"{tmp_path / 'plan.json'}: missing — run "
                            "repro-plan first")

    @pytest.mark.parametrize("text, reason", [
        ('{"jobs": [', "not JSON: "),
        ("[]", "not a plan (missing 'jobs')"),
        ("{}", "not a plan (missing 'jobs')"),
        ('{"jobs": {}, "edges": []}', "not a plan (missing 'site')"),
    ], ids=["truncated", "list", "empty-object", "no-site"])
    def test_plan_that_is_not_a_plan(
        self, command, text, reason, submit_dir, tmp_path, capsys
    ):
        d = tmp_path / "run"
        shutil.copytree(submit_dir, d)
        (d / "plan.json").write_text(text)
        line = self.refused(command, d, capsys)
        assert line.startswith(f"{d / 'plan.json'}: {reason}")

    @pytest.mark.parametrize("edit, reason", [
        (lambda meta: meta["jobs"]["split"].pop("runtime"),
         "job 'split': missing 'runtime'"),
        (lambda meta: meta["jobs"]["split"].update(retries=-1),
         "job 'split': retries must be >= 0"),
        (lambda meta: meta["jobs"].update(split=7), "job 'split': "),
        (unknown_parent, "edge ['nobody', "),
        (back_edge, "edge ['run_cap3_1', 'split']: closes a cycle"),
        (lambda meta: meta["edges"].append(["split"]), "edge ['split']: "),
    ], ids=["delete-a-key", "bad-value", "job-not-an-object", "bad-edge",
            "cycle", "edge-not-a-pair"])
    def test_plan_edited_by_hand(
        self, command, edit, reason, submit_dir, tmp_path, capsys
    ):
        """The first and the fourth were ``KeyError`` tracebacks out of
        the rebuild, which lived a package away from the shape check."""
        d = tmp_path / "run"
        shutil.copytree(submit_dir, d)
        meta = json.loads((d / "plan.json").read_text())
        edit(meta)
        (d / "plan.json").write_text(json.dumps(meta, indent=2))
        line = self.refused(command, d, capsys)
        assert line.startswith(f"{d / 'plan.json'}: {reason}")


@pytest.mark.parametrize("command", sorted(set(PLAN_READERS) - {"repro-run"}))
class TestDamagedUtilization(Refusals):
    @pytest.mark.parametrize("damage, where", [
        (lambda text: text[:-3], ""),
        (lambda text: "", ":1: "),
        (lambda text: text.replace("\n", "\ngarbage\n", 1), ":2: "),
        (lambda text: text.replace("\t", " "), ":1: "),
    ], ids=["truncated", "emptied", "garbage-line", "spaces-for-tabs"])
    def test_damaged_utilization(
        self, command, damage, where, submit_dir, tmp_path, capsys
    ):
        """``repro-plots`` split every line on tabs and let the
        ``ValueError`` out; the loader they all share refuses the series
        by ``path:line``."""
        d = tmp_path / "run"
        shutil.copytree(submit_dir, d)
        series = d / "utilization.tsv"
        series.write_text(damage(series.read_text()))
        line = self.refused(command, d, capsys)
        assert line.startswith(f"{series}{where}")



class TestStatusFollow:
    """``--follow`` decodes lines with the reader every other command
    uses: it used to call ``json.loads`` itself, so a garbage line was a
    ``JSONDecodeError`` traceback (exit 1) where the same directory
    without ``--follow`` printed ``events.jsonl:4: not JSON: …``, exit 2."""

    def follow(self, d):
        return exit_code(main_status, ["--submit-dir", str(d), "--follow",
                                       "--interval", "0"])

    @pytest.mark.parametrize("bad, reason", [
        ("garbage", "not JSON: "),
        ("{}", "not an event or attempt record: "),
        ('{"event": "job.submit"}', "not an event or attempt record: "),
        ("[1]", "not a JSON object"),
    ], ids=["garbage", "empty-object", "no-time", "not-an-object"])
    def test_damaged_line_is_exit_2_naming_it(
        self, bad, reason, submit_dir, tmp_path, capsys
    ):
        d = tmp_path / "run"
        shutil.copytree(submit_dir, d)
        log = d / "events.jsonl"
        lines = log.read_text().splitlines(keepends=True)
        lines[3] = bad + "\n"
        log.write_text("".join(lines))
        capsys.readouterr()
        assert self.follow(d) == 2
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        (line,) = err.splitlines()
        assert line.startswith(f"{log}:4: {reason}")
        # the same refusal as without --follow
        assert exit_code(main_status, ["--submit-dir", str(d)]) == 2
        assert capsys.readouterr().err == err

    def test_torn_final_line_waits_for_the_rest(
        self, submit_dir, tmp_path, capsys, monkeypatch
    ):
        d = tmp_path / "run"
        shutil.copytree(submit_dir, d)
        log = d / "events.jsonl"
        text = log.read_text()
        cut = text.rindex("\n", 0, len(text) - 1) + 20  # inside workflow.end
        log.write_text(text[:cut])
        naps = []

        def nap(seconds):
            naps.append(seconds)
            with open(log, "a") as fh:
                fh.write(text[cut:])

        monkeypatch.setattr("time.sleep", nap)
        capsys.readouterr()
        assert self.follow(d) == 0
        assert naps == [0.0]
        out, err = capsys.readouterr()
        assert err == ""
        assert out.count("---") == 2

@pytest.fixture(scope="module")
def real_inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("inputs")
    wl = generate_blast2cap3_workload(
        n_proteins=6,
        spec=TranscriptomeSpec(mean_fragments_per_gene=2.5,
                               noise_transcripts=2, error_rate=0.002),
        seed=88,
    )
    transcripts = tmp / "transcripts.fasta"
    alignments = tmp / "alignments.out"
    write_fasta(transcripts, wl.transcripts)
    write_tabular(alignments, wl.hits)
    return transcripts, alignments


class TestBlast2Cap3Cli:
    def test_serial_mode(self, real_inputs, tmp_path, capsys):
        transcripts, alignments = real_inputs
        out = tmp_path / "merged.fasta"
        rc = blast2cap3_main([
            "--transcripts", str(transcripts),
            "--alignments", str(alignments),
            "--output", str(out),
            "--serial",
        ])
        assert rc == 0
        assert out.exists()
        assert "reduction" in capsys.readouterr().out

    def test_workflow_mode_matches_serial(self, real_inputs, tmp_path):
        transcripts, alignments = real_inputs
        serial_out = tmp_path / "serial.fasta"
        wf_out = tmp_path / "workflow.fasta"
        blast2cap3_main([
            "--transcripts", str(transcripts),
            "--alignments", str(alignments),
            "--output", str(serial_out), "--serial",
        ])
        rc = blast2cap3_main([
            "--transcripts", str(transcripts),
            "--alignments", str(alignments),
            "--output", str(wf_out),
            "-n", "3", "--workers", "2",
            "--workdir", str(tmp_path / "scratch"),
        ])
        assert rc == 0
        serial_records = {(r.id, r.seq) for r in read_fasta(serial_out)}
        wf_records = {(r.id, r.seq) for r in read_fasta(wf_out)}
        assert serial_records == wf_records

    @pytest.mark.parametrize("mode", ["--serial", "--parallel"])
    def test_alignment_naming_a_missing_transcript_is_exit_2(
        self, mode, real_inputs, tmp_path, capsys
    ):
        """Both in-process modes used to end in a ``KeyError`` traceback,
        exit 1, each with its own message."""
        transcripts, alignments = real_inputs
        records = list(read_fasta(transcripts))
        missing = records[0].id
        fewer = tmp_path / "fewer.fasta"
        write_fasta(fewer, records[1:])
        out = tmp_path / "merged.fasta"
        capsys.readouterr()
        rc = blast2cap3_main([
            "--transcripts", str(fewer),
            "--alignments", str(alignments),
            "--output", str(out), mode, "--jobs", "2",
        ])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"repro-blast2cap3: alignments name transcript {missing!r}, "
            "which is not among the transcripts"
        ]
        assert not out.exists()
