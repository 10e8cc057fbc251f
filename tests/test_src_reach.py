"""Every module under ``src/repro`` is reached from something that runs.

Roots: the ``[project.scripts]`` entry points, every ``python -m
repro.X`` step in ``.github/workflows/ci.yml``, and every ``repro.*``
module that a file under ``benchmarks/`` or ``examples/`` names. A file
names a module with an ``import`` or ``from`` statement at any depth
(inside a function too), or with a string literal that is exactly
``"repro.a.b"`` or ``"repro.a.b:attr"`` — how ``TaskCall`` payloads and
the lazy re-export tables point at modules. The set is closed over
``src/`` by the same rule; importing a module runs the packages above
it, so they count as reached too.

A module the closure leaves out is code that only tests run: delete it,
or give it a line in ``ALLOWED`` that says why it stays.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

ALLOWED = {
    "repro.perfmodel.fit": "the calibration provenance: "
    "tests/test_perfmodel_fit.py re-derives PaperTaskModel's defaults "
    "from it",
}

_LITERAL = re.compile(r"repro(?:\.\w+)+(?::\w+)?")


def _module_names() -> set[str]:
    names = set()
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.add(".".join(parts))
    return names


MODULES = _module_names()


def module_source(name: str) -> str:
    base = SRC.joinpath(*name.split("."))
    path = base / "__init__.py" if base.is_dir() else base.with_suffix(".py")
    return path.read_text()


def resolve(dotted: str) -> set[str]:
    """The module ``dotted`` names — its longest prefix that is a
    module, so ``repro.a.func`` is ``repro.a`` — and the packages above
    it."""
    parts = dotted.split(".")
    while len(parts) > 1 and ".".join(parts) not in MODULES:
        parts.pop()
    return {".".join(parts[:i]) for i in range(1, len(parts) + 1)}


def named_modules(source: str) -> set[str]:
    """Every ``repro`` module ``source`` names, by the rule above."""
    dotted: list[str] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            dotted += [f"{node.module}.{alias.name}" for alias in node.names]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _LITERAL.fullmatch(node.value)):
            dotted.append(node.value.split(":")[0])
    found: set[str] = set()
    for name in dotted:
        if name.split(".")[0] == "repro":
            found |= resolve(name)
    return found


def roots() -> set[str]:
    found: set[str] = set()
    pyproject = (ROOT / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    for entry in re.findall(r'"(repro[\w.]*):\w+"', scripts):
        found |= resolve(entry)
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    for entry in re.findall(r"python3?\s+-m\s+(repro(?:\.\w+)+)", ci):
        found |= resolve(entry)
    for path in [*(ROOT / "benchmarks").rglob("*.py"),
                 *(ROOT / "examples").glob("*.py")]:
        found |= named_modules(path.read_text())
    return found


def reached() -> set[str]:
    seen: set[str] = set()
    todo = list(roots())
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo += named_modules(module_source(name)) - seen
    return seen


def test_every_src_module_is_reached_or_allowed():
    assert sorted(MODULES - reached()) == sorted(ALLOWED)


def test_the_roots_are_found():
    assert {"repro.wms.cli", "repro.lint.cli", "repro.core.cli",
            "repro.core.pipeline"} <= roots()


def test_the_rule_sees_what_it_is_for():
    source = (
        '"""Mentions repro.cap3.assembler in prose only."""\n'
        "import os\n"
        "def f():\n"
        "    from repro.core import tasks\n"
        "    from repro.bio.kmer import KmerIndex\n"
        '    return "repro.execution.payloads:noop", "see repro.sim"\n'
    )
    assert named_modules(source) == {
        "repro", "repro.core", "repro.core.tasks", "repro.bio",
        "repro.bio.kmer", "repro.execution", "repro.execution.payloads",
    }
