"""The submit directory has one owner, ``repro/wms/monitor.py``.

Two rules a grep could state, checked on the syntax tree so that
docstrings and comments may go on naming the files:

* no other module under ``src/repro`` spells an artefact's file name as
  a string literal — it imports the constant, so the layout is decided
  in one place;
* nothing under ``repro/observe`` imports ``repro.wms.cli`` — a library
  does not reach into a command-line module to read a file.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro
from repro.wms import monitor

PACKAGE = Path(repro.__file__).resolve().parent
OWNER = PACKAGE / "wms" / "monitor.py"

ARTEFACTS = {
    value for name, value in vars(monitor).items() if name.endswith("_FILE")
}


def docstrings(tree: ast.AST) -> set[int]:
    """``id`` of every string constant that is a docstring."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                found.add(id(body[0].value))
    return found


def spelled_artefacts(source: str) -> list[tuple[int, str]]:
    """``(line, literal)`` of every string literal that is an artefact's
    name, bare or as the last component of a path."""
    tree = ast.parse(source)
    skip = docstrings(tree)
    return [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and id(node) not in skip
        and node.value.rsplit("/", 1)[-1] in ARTEFACTS
    ]


def imported_modules(source: str) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_the_owner_names_all_ten_files():
    assert len(ARTEFACTS) == 10
    assert {"plan.json", "events.jsonl", "trace.jsonl", "metrics.json",
            "utilization.tsv", "trace.chrome.json", "trace.otlp.json",
            "trace.perfetto.json"} <= ARTEFACTS


def test_no_other_module_spells_an_artefact_name():
    spelled = {
        f"{path.relative_to(PACKAGE)}:{line}: {literal!r}"
        for path in sorted(PACKAGE.rglob("*.py")) if path != OWNER
        for line, literal in spelled_artefacts(path.read_text())
    }
    assert spelled == set()


def test_observe_does_not_import_the_command_line():
    offenders = [
        str(path.relative_to(PACKAGE))
        for path in sorted((PACKAGE / "observe").rglob("*.py"))
        if "repro.wms.cli" in imported_modules(path.read_text())
    ]
    assert offenders == []


def test_the_checks_see_what_they_are_for():
    source = (
        '"""Reads plan.json."""\n'
        "from repro.wms import cli\n"
        "def f(d):\n"
        '    "events.jsonl is the record"\n'
        '    return d / "plan.json", f"{d}/trace.jsonl", "explain.json"\n'
    )
    assert spelled_artefacts(source) == [(5, "plan.json"), (5, "/trace.jsonl")]
    assert "repro.wms.cli" in imported_modules(source)
