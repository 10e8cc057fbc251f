"""Cold start as exact counts: a command imports what it runs.

Each command runs once in a fresh interpreter against one planned and
run ``-n 12`` submit directory, and reports ``sys.modules`` when it
returns. Module counts repeat to the digit, so they gate here and no
timing does: every gate is what the command loads today plus two.
numpy (≈ 150 ms, a third of every cold start while ``repro/__init__``
imported the aligners) must stay out of every command but
``repro-plan``, whose ``PaperTaskModel`` draws the task runtimes from a
seeded ``numpy.random`` stream that pins every simulated makespan.

``python tests/test_cold_start.py`` prints the table (CI's 'Cold-start
gate') and exits 1 when a row is over its gate.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: Run in the child: import a module, or call ``module:function`` with
#: the remaining arguments, then describe ``sys.modules`` on the last line.
PROBE = """
import importlib, json, sys
target, argv = sys.argv[1], sys.argv[2:]
module, _, function = target.partition(":")
loaded = importlib.import_module(module)
try:
    code = getattr(loaded, function)(argv) if function else 0
except SystemExit as exit:
    code = exit.code
ours = [m for m in sys.modules if m == "repro" or m.startswith("repro.")]
print()
print(json.dumps({"code": code, "repro": len(ours), "total": len(sys.modules),
                  "numpy": "numpy" in sys.modules}))
"""

#: label -> (target, argv with ``{d}`` for the submit directory, most
#: ``repro.*`` modules it may load, whether numpy may load). In running
#: order: the plan and the run make the directory the others read.
COMMANDS = {
    "import repro": ("repro", [], 4, False),
    "import repro.wms.cli": ("repro.wms.cli", [], 8, False),
    "repro-plan": ("repro.wms.cli:main_plan",
                   ["--submit-dir", "{d}", "-n", "12", "--site", "sandhills"],
                   74, True),
    "repro-run": ("repro.wms.cli:main_run", ["--submit-dir", "{d}"], 52, False),
    "repro-status": ("repro.wms.cli:main_status", ["--submit-dir", "{d}"],
                     17, False),
    "repro-statistics": ("repro.wms.cli:main_statistics",
                         ["--submit-dir", "{d}"], 20, False),
    "repro-analyzer": ("repro.wms.cli:main_analyzer", ["--submit-dir", "{d}"],
                       17, False),
    "repro-plots": ("repro.wms.cli:main_plots", ["--submit-dir", "{d}"],
                    18, False),
    "repro-report analyze": ("repro.observe.report:main",
                             ["analyze", "{d}", "--quiet"], 24, False),
    "repro-service bench": ("repro.service.cli:main",
                            ["bench", "--tenants", "2", "--workflows", "1",
                             "--jobs", "10", "--quiet"], 45, False),
}


def measure(label: str, submit: Path) -> dict:
    target, argv, _gate, _numpy = COMMANDS[label]
    done = subprocess.run(
        [sys.executable, "-c", PROBE, target,
         *(arg.format(d=submit) for arg in argv)],
        env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def over_gate(label: str, row: dict) -> list[str]:
    _target, _argv, gate, numpy_allowed = COMMANDS[label]
    problems = []
    if row["code"] != 0:
        problems.append(f"exit code {row['code']}")
    if row["repro"] > gate:
        problems.append(f"{row['repro']} repro.* modules, gate {gate}")
    if row["numpy"] != numpy_allowed:
        problems.append("numpy loaded" if row["numpy"] else "numpy not loaded")
    return problems


def measure_all(submit: Path) -> dict[str, dict]:
    return {label: measure(label, submit) for label in COMMANDS}


@pytest.fixture(scope="module")
def rows(tmp_path_factory) -> dict[str, dict]:
    return measure_all(tmp_path_factory.mktemp("cold") / "submit")


@pytest.mark.parametrize("label", COMMANDS)
def test_command_loads_what_it_runs(rows, label) -> None:
    assert over_gate(label, rows[label]) == []


def test_counts_repeat_to_the_digit(rows, tmp_path) -> None:
    for label in ("import repro.wms.cli", "repro-service bench"):
        assert measure(label, tmp_path) == rows[label]


def main() -> int:
    failed = 0
    print(f"{'command':<22} {'repro.*':>7} {'gate':>5} {'total':>6}  numpy")
    with tempfile.TemporaryDirectory() as tmp:
        rows = measure_all(Path(tmp) / "submit")
    for label, row in rows.items():
        problems = over_gate(label, row)
        failed += bool(problems)
        print(f"{label:<22} {row['repro']:>7} {COMMANDS[label][2]:>5} "
              f"{row['total']:>6}  {'yes' if row['numpy'] else 'no':<5}"
              + ("  FAIL: " + "; ".join(problems) if problems else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
