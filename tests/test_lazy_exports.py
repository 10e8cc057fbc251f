"""The packages' public surface: a name is re-exported only because
something imports it through its package.

Two packages re-export through a table (``repro/_lazy.py``):
``repro.observe`` and ``repro.resilience``. ``repro.sim`` re-exports
eagerly, because its ``PLATFORMS`` table holds the classes, and
``repro.lint`` because it defines ``lint()`` beside its names. Every
other package ``__init__`` is its docstring. Pinned
here: every name left in an ``__all__`` has an importer; every name of
``__all__`` is importable from its package and is the same object as in
its defining module; a table is the exact mirror of the import lines
kept under ``TYPE_CHECKING``; no package attribute hides a submodule;
and no module is importable only because ``repro/__init__`` ran first.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
import subprocess
import sys
import types
from collections import defaultdict
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]
ROOT = SRC.parent

#: Every package under ``repro``.
PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.ispkg
)
#: Packages that still re-export through a table.
LAZY_PACKAGES = ["repro.observe", "repro.resilience"]
#: ``repro.lint`` defines ``lint()`` and registers its rules, and
#: ``repro.sim`` builds ``PLATFORMS``: code of their own beside their
#: re-exports.
WITH_CODE = ["repro.lint", "repro.sim"]
#: Packages whose ``__init__`` is a table or nothing.
REEXPORT_ONLY = [name for name in PACKAGES if name not in WITH_CODE]
CONSOLE_SCRIPT_MODULES = [
    "repro.lint.cli", "repro.wms.cli", "repro.observe.report",
    "repro.service.cli", "repro.core.cli",
]
#: Submodules named like a function they define: a package re-export of
#: that function would hide the module.
NAMESAKE_MODULES = [
    "repro.observe.chrome_trace", "repro.blast.blastx",
    "repro.execution.kickstart",
]


def submodules(package: types.ModuleType) -> set[str]:
    return {info.name for info in pkgutil.iter_modules(package.__path__)}


def table(package: types.ModuleType) -> dict[str, tuple[str, str]]:
    return getattr(package, "_EXPORTS", {})


def public(package: types.ModuleType) -> list[str]:
    return getattr(package, "__all__", [])


def imported_names(package: types.ModuleType) -> tuple[dict, dict]:
    """``name -> (module, attr)`` of the package's ``from ... import``
    lines: (those under ``if TYPE_CHECKING:``, those at top level)."""
    tree = ast.parse(Path(package.__file__).read_text())
    typed: dict[str, tuple[str, str]] = {}
    eager: dict[str, tuple[str, str]] = {}
    for node in tree.body:
        guarded = (isinstance(node, ast.If)
                   and ast.unparse(node.test) == "TYPE_CHECKING")
        for stmt in node.body if guarded else [node]:
            if isinstance(stmt, ast.ImportFrom):
                for alias in stmt.names:
                    (typed if guarded else eager)[alias.asname or alias.name] = (
                        stmt.module, alias.name)
    return typed, eager


def bound_names(package: types.ModuleType) -> set[str]:
    """Every name the package's ``__init__`` binds, its docstring aside."""
    names: set[str] = set()
    for node in ast.parse(Path(package.__file__).read_text()).body:
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                names.add(sub.id)
            elif isinstance(sub, ast.alias):
                names.add(sub.asname or sub.name.split(".")[0])
            elif isinstance(sub, (ast.FunctionDef, ast.ClassDef)):
                names.add(sub.name)
    return names


def names_imported_through_packages() -> dict[str, set[str]]:
    """package -> the names ``from <package> import ...`` statements
    under ``src/``, ``tests/``, ``benchmarks/`` and ``examples/`` ask it
    for. This file does not count: it imports to test, not to use."""
    found: dict[str, set[str]] = defaultdict(set)
    for top in ("src", "tests", "benchmarks", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path == Path(__file__).resolve():
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.ImportFrom) and node.level == 0
                        and node.module in PACKAGES):
                    found[node.module].update(a.name for a in node.names)
    return found


def test_every_reexport_has_an_importer() -> None:
    used = names_imported_through_packages()
    unused = [
        f"{name}.{attr}"
        for name in PACKAGES
        for attr in public(importlib.import_module(name))
        if attr not in used[name]
    ]
    assert unused == [], (
        f"{len(unused)} name(s) in an __all__ that nothing imports "
        f"through its package: {', '.join(unused)}"
    )


@pytest.mark.parametrize(
    "name", [p for p in PACKAGES if p not in LAZY_PACKAGES + WITH_CODE]
)
def test_a_package_without_a_table_is_its_docstring(name) -> None:
    assert bound_names(importlib.import_module(name)) <= {"__version__"}


@pytest.mark.parametrize("name", REEXPORT_ONLY)
class TestSurface:
    def test_table_mirrors_the_typing_block_and_all(self, name) -> None:
        package = importlib.import_module(name)
        typed, eager = imported_names(package)
        assert table(package) == typed
        assert set(eager) <= {"TYPE_CHECKING", "lazy_exports"}
        assert set(typed) == set(public(package))

    def test_every_name_is_its_defining_modules_object(self, name) -> None:
        package = importlib.import_module(name)
        for attr, (module, defined) in table(package).items():
            assert getattr(package, attr) is getattr(
                importlib.import_module(module), defined), attr
            # resolved on every access, never stored in the package
            assert attr not in vars(package), attr

    def test_star_import_and_dir(self, name) -> None:
        package = importlib.import_module(name)
        namespace: dict[str, object] = {}
        exec(f"from {name} import *", namespace)
        assert set(public(package)) <= set(namespace)
        assert set(public(package)) <= set(dir(package))

    def test_unknown_name_is_an_attribute_error(self, name) -> None:
        package = importlib.import_module(name)
        assert not hasattr(package, "no_such_name")
        with pytest.raises(AttributeError, match=f"module '{name}' has no "
                                                 "attribute 'no_such_name'"):
            package.no_such_name
        with pytest.raises(ImportError):
            exec(f"from {name} import no_such_name", {})

    def test_no_lazy_name_collides_with_a_submodule(self, name) -> None:
        package = importlib.import_module(name)
        assert set(table(package)) & submodules(package) == set()


def test_no_reexport_is_named_like_a_submodule() -> None:
    """The import system binds a submodule under its name on the
    package: a lazy re-export of that name is never asked for, and an
    eager one hides the module."""
    found = {}
    for name in PACKAGES:
        package = importlib.import_module(name)
        clash = set(public(package)) & submodules(package)
        if clash:
            found[name] = clash
    assert found == {}


@pytest.mark.parametrize("module", NAMESAKE_MODULES)
def test_import_as_gives_the_submodule(module) -> None:
    """``import pkg.mod as m`` reads ``mod`` off the package, so after
    the package is imported that attribute must still be the module."""
    importlib.import_module(module.rpartition(".")[0])
    namespace: dict[str, object] = {}
    exec(f"import {module} as m", namespace)
    assert namespace["m"] is sys.modules[module]


def test_every_table_resolves_through_the_helper() -> None:
    for name in LAZY_PACKAGES:
        package = importlib.import_module(name)
        assert package.__getattr__.__module__ == "repro._lazy"


class TestNothingIsCached:
    """A value stored at first touch would outlive the substitution
    that put it in the defining module."""

    def test_monkeypatch_is_seen_and_undone(self) -> None:
        import repro.observe
        import repro.observe.trace

        original = repro.observe.trace.write_otlp_trace
        assert repro.observe.write_otlp_trace is original

        def fake(*args: object) -> None:
            raise AssertionError("never called")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("repro.observe.trace.write_otlp_trace", fake)
            assert repro.observe.write_otlp_trace is fake
            from repro.observe import write_otlp_trace
            assert write_otlp_trace is fake
        assert repro.observe.write_otlp_trace is original

    def test_wrapper_installed_before_or_after_first_access(self) -> None:
        """What ``benchmarks/budget/layers.py`` ``wrap_function`` does:
        swap the function in every namespace that holds it."""
        import repro.resilience
        import repro.resilience.journal as journal

        original = journal.recover
        swapped: list[types.ModuleType] = []

        def wrap() -> object:
            def wrapped(*args: object, **kwargs: object) -> object:
                return original(*args, **kwargs)

            for module in list(sys.modules.values()):
                if getattr(module, "__dict__", {}).get("recover") is original:
                    setattr(module, "recover", wrapped)
                    swapped.append(module)
            return wrapped

        def undo() -> None:
            while swapped:
                setattr(swapped.pop(), "recover", original)

        try:
            first = wrap()
            from repro.resilience import recover
            assert recover is first
            undo()
            assert repro.resilience.recover is original  # first access done
            second = wrap()
            from repro.resilience import recover
            assert recover is second
        finally:
            undo()
        assert repro.resilience.recover is original


@pytest.mark.parametrize("module", PACKAGES + CONSOLE_SCRIPT_MODULES)
def test_imports_on_its_own_in_a_fresh_interpreter(module) -> None:
    """No import order that only worked because ``repro/__init__``
    imported half the tree first."""
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", f"import {module}"],
        env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
