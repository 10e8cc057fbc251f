"""Filesystem helpers: atomic writes and content checksums.

Workflow tools must never leave half-written catalogs, DAG files, or
rescue files behind when interrupted — DAGMan in particular re-reads its
own outputs on recovery. One durability core writes a temp file in the
target's directory, fsyncs it, renames it over the target and fsyncs
the directory, or removes the temp file if anything raises; so a crash
immediately after the rename cannot surface an empty or truncated file,
and a failed write leaves the previous file as it was. It has two entry
points:

* :func:`atomic_open` — a context manager yielding a **streaming** text
  handle, for writers whose output is large (the paper's
  ``alignments.out`` is 155 MB; the run's trace exports print into it
  record by record, so no document is ever whole in memory);
* :func:`atomic_write` — the one-shot for a payload already in hand
  (catalogs, id lists, JSON blobs, the journal snapshot's bytes).
"""

from __future__ import annotations

import gzip
import io
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator, TextIO

__all__ = [
    "atomic_open",
    "atomic_write",
    "ensure_dir",
    "open_text_auto",
]


def _fsync_dir(path: Path) -> None:
    """fsync a directory so a just-renamed entry survives a crash."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without dir-fsync
        pass
    finally:
        os.close(fd)


def ensure_dir(path: str | Path) -> Path:
    """Create ``path`` (and parents) *durably* and return it.

    ``mkdir -p`` alone is not crash-safe: the new directory entry lives
    in its parent, and until the parent is fsynced a crash can lose the
    entry while files inside survive as orphans — exactly the failure a
    recovery journal cannot afford in its own home. So every directory
    this call actually creates gets its parent fsynced, bottom-up.

    Directory fsync failures on platforms that do not support it are
    tolerated (same contract as the rename path of
    :func:`atomic_write`); the creation itself still raises normally.
    """
    path = Path(path)
    missing: list[Path] = []
    probe = path
    while not probe.exists():
        missing.append(probe)
        parent = probe.parent
        if parent == probe:  # filesystem root
            break
        probe = parent
    path.mkdir(parents=True, exist_ok=True)
    # Deepest-last in ``missing``; sync parents root-first so each
    # fsynced entry's own parent is already durable.
    for created in reversed(missing):
        _fsync_dir(created.parent)
    return path


@contextmanager
def _replacing(path: Path) -> Iterator[BinaryIO]:
    """The durability core: a binary handle on a temp file beside
    ``path``, fsynced and renamed over it (then the directory fsynced)
    on clean exit, removed on error."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        try:
            # The handle may be closed by a wrapper; the fd stays ours.
            with open(fd, "wb", closefd=False) as raw:
                yield raw
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp_name, path)
        _fsync_dir(path.parent)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


@contextmanager
def atomic_open(path: str | Path, *, encoding: str = "utf-8") -> Iterator[TextIO]:
    """Open ``path`` for streaming text writes with atomic-replace semantics.

    Yields a text handle on the durability core's temp file; on clean
    exit the data is flushed, fsynced, and renamed over ``path``. On
    error ``path`` is untouched. ``.gz`` paths are gzip-compressed on
    the fly (the trailer is written before the fsync). Parent
    directories are created as needed.
    """
    path = Path(path)
    with _replacing(path) as raw:
        stream = gzip.GzipFile(fileobj=raw, mode="wb") if path.suffix == ".gz" else raw
        with io.TextIOWrapper(stream, encoding=encoding) as handle:
            yield handle


def atomic_write(path: str | Path, data: str | bytes) -> Path:
    """Write ``data`` (text as UTF-8) to ``path`` through the durability
    core and return the path. Parent directories are created as needed.
    """
    path = Path(path)
    with _replacing(path) as raw:
        raw.write(data.encode() if isinstance(data, str) else data)
    return path


def open_text_auto(path: str | Path) -> TextIO:
    """Open a text file for reading, transparently gunzipping ``.gz``.

    Real sequencing data ships compressed (the paper's 404 MB
    ``transcripts.fasta`` would normally live as ``.fasta.gz``); the
    FASTA/FASTQ/tabular readers route through here so both forms work.
    """
    path = Path(path)
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8")
    return open(path, "r", encoding="utf-8")
