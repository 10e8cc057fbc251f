"""Shared utilities: units, text tables, DOT emission, and I/O helpers.

These are deliberately dependency-light: everything in :mod:`repro.util`
may be imported from any other subpackage without creating cycles.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.util.units import (
        format_bytes,
        format_duration,
        parse_bytes,
        parse_duration,
    )
    from repro.util.tables import Table
    from repro.util.dot import DotGraph
    from repro.util.iolib import atomic_write, file_checksum, sha256_text

_EXPORTS = {
    "format_bytes": ("repro.util.units", "format_bytes"),
    "format_duration": ("repro.util.units", "format_duration"),
    "parse_bytes": ("repro.util.units", "parse_bytes"),
    "parse_duration": ("repro.util.units", "parse_duration"),
    "Table": ("repro.util.tables", "Table"),
    "DotGraph": ("repro.util.dot", "DotGraph"),
    "atomic_write": ("repro.util.iolib", "atomic_write"),
    "file_checksum": ("repro.util.iolib", "file_checksum"),
    "sha256_text": ("repro.util.iolib", "sha256_text"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "format_bytes",
    "format_duration",
    "parse_bytes",
    "parse_duration",
    "Table",
    "DotGraph",
    "atomic_write",
    "file_checksum",
    "sha256_text",
]
