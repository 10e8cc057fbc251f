"""The packages' public surface after their re-exports went lazy.

Every package ``__init__`` that only re-exports declares an
``_EXPORTS`` table (``repro/_lazy.py``) where it used to import. The
surface must be what it was: every name of ``__all__`` importable from
the package and the same object as in its defining module, the table
the exact mirror of the import lines kept under ``TYPE_CHECKING``, and
no module importable only because ``repro/__init__`` ran first.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: Packages whose ``__init__`` is a table and nothing else.
LAZY_PACKAGES = [
    "repro", "repro.core", "repro.wms", "repro.observe", "repro.resilience",
    "repro.dagman", "repro.service", "repro.bio", "repro.blast", "repro.cap3",
    "repro.perfmodel", "repro.datagen", "repro.experiments",
    "repro.execution", "repro.util",
]
#: A re-export named like a submodule of its package cannot be lazy.
EAGER = {
    "repro.observe": {"chrome_trace"},
    "repro.blast": {"blastx"},
    "repro.execution": {"kickstart"},
}
CONSOLE_SCRIPT_MODULES = [
    "repro.lint.cli", "repro.wms.cli", "repro.observe.report",
    "repro.service.cli", "repro.core.cli",
]


def submodules(package: types.ModuleType) -> set[str]:
    return {info.name for info in pkgutil.iter_modules(package.__path__)}


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


@pytest.mark.parametrize("name", LAZY_PACKAGES)
class TestSurface:
    def test_table_mirrors_the_typing_block_and_all(self, name) -> None:
        package = importlib.import_module(name)
        typed, eager = imported_names(package)
        assert package._EXPORTS == typed
        eager_names = set(eager) - {"TYPE_CHECKING", "lazy_exports"}
        assert eager_names == EAGER.get(name, set())
        assert set(typed) | eager_names == set(package.__all__) - {"__version__"}

    def test_every_name_is_its_defining_modules_object(self, name) -> None:
        package = importlib.import_module(name)
        for public, (module, attr) in package._EXPORTS.items():
            assert getattr(package, public) is getattr(
                importlib.import_module(module), attr), public
            # resolved on every access, never stored in the package
            assert public not in vars(package), public

    def test_star_import_and_dir(self, name) -> None:
        package = importlib.import_module(name)
        namespace: dict[str, object] = {}
        exec(f"from {name} import *", namespace)
        assert set(package.__all__) <= set(namespace)
        assert set(package.__all__) <= set(dir(package))

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
        assert set(package._EXPORTS) & submodules(package) == set()
        # ... and the ones that do collide are the eager ones, bound to
        # the callable whatever imported the submodule before or after.
        for public in EAGER.get(name, ()):
            assert public in submodules(package)
            importlib.import_module(f"{name}.{public}")
            value = getattr(package, public)
            assert callable(value) and not isinstance(value, types.ModuleType)


def test_the_collision_set_is_exactly_the_eager_names() -> None:
    found = {}
    for name in LAZY_PACKAGES:
        package = importlib.import_module(name)
        clash = set(package.__all__) & submodules(package)
        if clash:
            found[name] = clash
    assert found == EAGER


def test_lint_resolves_its_one_lazy_name_through_the_helper() -> None:
    import repro.lint
    from repro.lint.determinism import DeterminismOptions

    assert repro.lint.DeterminismOptions is DeterminismOptions
    assert "DeterminismOptions" not in vars(repro.lint)
    assert "DeterminismOptions" in dir(repro.lint)
    for package in (repro.lint, repro.observe):
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


@pytest.mark.parametrize(
    "module", LAZY_PACKAGES + ["repro.sim", "repro.lint"] + CONSOLE_SCRIPT_MODULES
)
def test_imports_on_its_own_in_a_fresh_interpreter(module) -> None:
    """No import order that only worked because ``repro/__init__``
    imported half the tree first."""
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", f"import {module}"],
        env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
