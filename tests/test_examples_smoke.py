"""Smoke tests: the shipped examples must run end to end.

Each of the six examples is executed in a subprocess (its own
interpreter, like a user would run it) and sanity-checked by output
markers. The two longest carry the ``slow`` mark; tier-1 runs them too,
since it deselects no mark.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name: str, timeout: int = 240) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, (
        f"{name} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
    )
    return proc.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "blast2cap3 summary" in out
        assert "reduction" in out

    def test_transcriptome_pipeline(self):
        out = run_example("transcriptome_pipeline.py")
        assert "pipeline stages" in out
        assert "N50" in out
        assert "reference recovered" in out

    def test_workflow_observability(self):
        out = run_example("workflow_observability.py")
        assert "jobs done (100.0%)" in out
        assert "legend:" in out
        assert "provenance of" in out
        assert "critical path" in out

    def test_rescue_and_retry(self):
        out = run_example("rescue_and_retry.py")
        assert "first submission" in out
        # Either path is valid output (failure + rescue, or lucky seed).
        assert "rescue DAG written" in out or "unlucky seed" in out

    @pytest.mark.slow
    def test_campus_vs_osg(self):
        out = run_example("campus_vs_osg.py", timeout=400)
        assert "Fig. 4" in out
        assert "Fig. 5" in out
        assert "fig2_sandhills.dot" in out

    @pytest.mark.slow
    def test_protein_guided_assembly(self):
        out = run_example("protein_guided_assembly.py", timeout=500)
        assert "parity: workflow output identical" in out
