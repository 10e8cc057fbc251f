"""End-to-end crash recovery: a real SIGKILL, a real resume.

The in-process property tests (``test_journal.py``) sweep crash points
with ``CrashInjected``; this module kills an actual ``repro-run``
subprocess with SIGKILL mid-journal-write — no atexit handlers, no
flushes, a genuinely unclean death — then resumes from the journal
directory and checks the merged run against an uninterrupted baseline.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.observe.log import event_from_json
from repro.wms.cli import main_plan, main_run

REPO_SRC = Path(__file__).resolve().parent.parent / "src"

RUN_SHIM = (
    "import sys; from repro.wms.cli import main_run; "
    "sys.exit(main_run(sys.argv[1:]))"
)


def _plan(submit: Path, *, n=6, site="sandhills") -> None:
    rc = main_plan([
        "--submit-dir", str(submit), "-n", str(n), "--site", site,
    ])
    assert rc == 0


def _run_subprocess(args: list[str], env_extra=None) -> subprocess.CompletedProcess:
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    ).rstrip(os.pathsep)
    return subprocess.run(
        [sys.executable, "-c", RUN_SHIM, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def _trace_rows(submit: Path) -> list[dict]:
    rows = []
    for line in (submit / "trace.jsonl").read_text().splitlines():
        rows.append(json.loads(line))
    return rows


@pytest.mark.slow
def test_sigkill_mid_run_then_resume(tmp_path):
    baseline = tmp_path / "baseline"
    _plan(baseline)
    rc = main_run([
        "--submit-dir", str(baseline), "--journal",
        str(tmp_path / "jr-baseline"),
    ])
    assert rc == 0
    baseline_rows = _trace_rows(baseline)
    baseline_jobs = {
        r["job_name"] for r in baseline_rows if r["status"] == "succeeded"
    }

    submit = tmp_path / "crashed"
    jdir = tmp_path / "jr"
    _plan(submit)

    # A real unclean death: SIGKILL from inside the journal append.
    proc = _run_subprocess([
        "--submit-dir", str(submit), "--journal", str(jdir),
        "--crash-at-record", "12", "--crash-mode", "kill",
    ])
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    assert (jdir / "wal.jsonl").stat().st_size, "crash left no log"

    # Resume in-process: recovery must reconcile the dead manager's
    # pids, truncate the torn tail, and finish the workflow.
    rc = main_run(["--submit-dir", str(submit), "--resume", str(jdir)])
    assert rc == 0
    # One log and its snapshot, nothing else.
    assert sorted(p.name for p in jdir.iterdir()) == ["snapshot.json", "wal.jsonl"]

    # The merged trace equals the uninterrupted run's outcome: every
    # job succeeded, exactly once, and journaled-done jobs did not
    # re-execute after the resume.
    rows = _trace_rows(submit)
    succeeded = [r["job_name"] for r in rows if r["status"] == "succeeded"]
    assert set(succeeded) == baseline_jobs
    assert len(succeeded) == len(set(succeeded)), "duplicate execution"

    # A rescue-style resume DAG was written for DAGMan interop.
    resume_dags = list(submit.glob("*.resume.dag"))
    assert resume_dags

    # events.jsonl survived the SIGKILL line-complete and parses
    # end-to-end across both processes' appends.
    events = [
        event_from_json(json.loads(line))
        for line in (submit / "events.jsonl").read_text().splitlines()
    ]
    assert sum(e.kind.value == "workflow.end" for e in events) >= 1

    # Re-resuming a finished journal is a no-op, not a re-run.
    rc = main_run(["--submit-dir", str(submit), "--resume", str(jdir)])
    assert rc == 0
    assert _trace_rows(submit) == rows


@pytest.mark.slow
def test_crash_flag_requires_journal(tmp_path):
    submit = tmp_path / "s"
    _plan(submit, n=4)
    rc = main_run(["--submit-dir", str(submit), "--crash-at-record", "3"])
    assert rc == 2


@pytest.mark.slow
def test_raise_mode_exit_code_names_resume_command(tmp_path, capsys):
    submit = tmp_path / "s"
    jdir = tmp_path / "jr"
    _plan(submit, n=4)
    capsys.readouterr()  # drain the planner's chatter
    rc = main_run([
        "--submit-dir", str(submit), "--journal", str(jdir),
        "--crash-at-record", "6", "--crash-mode", "raise",
    ])
    assert rc == 3
    captured = capsys.readouterr()
    combined = captured.out + captured.err
    assert "--resume" in combined and str(jdir) in combined
