"""Package re-exports that resolve on first use (PEP 562).

A package ``__init__`` that only re-exports names from its submodules
declares them in a table and hands it here::

    _EXPORTS = {"EventBus": ("repro.observe.bus", "EventBus"), ...}
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

so importing the package imports nothing else, and a command loads the
modules it runs instead of everything the package can name. The
``from ... import ...`` lines the table replaces stay in the package
under ``if TYPE_CHECKING:`` for mypy, ruff and readers.

A name is looked up in its defining module on **every** access and
never stored in the package's globals: a stored value would pin
whatever the defining module held at first touch, and outlive a
``monkeypatch`` or a tracing wrapper put there and later undone.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, tuple[str, str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of ``package`` for
    ``exports``: public name → (defining module, attribute)."""

    def __getattr__(name: str) -> object:
        try:
            module, attr = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        return getattr(import_module(module), attr)

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
