"""Filesystem helpers: atomic writes and content checksums.

Workflow tools must never leave half-written catalogs, DAG files, or
rescue files behind when interrupted — DAGMan in particular re-reads its
own outputs on recovery. Two write paths share the same
write-to-temp-then-rename semantics on the same filesystem:

* :func:`atomic_open` — a context manager yielding a **streaming** text
  handle, for writers whose output is large (the paper's
  ``alignments.out`` is 155 MB; buffering it in a ``StringIO`` first
  would hold the whole file in memory);
* :func:`atomic_write` — the convenience one-shot for small payloads
  (catalogs, id lists, JSON blobs).

Both fsync the temp file before the rename and the parent directory
after it, so a crash immediately after ``os.replace`` cannot surface an
empty or truncated file — the durability DAGMan recovery relies on.
"""

from __future__ import annotations

import gzip
import io
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO

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
    tolerated (same contract as the rename path in
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
def atomic_open(path: str | Path, *, encoding: str = "utf-8") -> Iterator[TextIO]:
    """Open ``path`` for streaming text writes with atomic-replace semantics.

    Yields a text handle backed by a temp file in ``path``'s directory;
    on clean exit the data is flushed, fsynced, and renamed over
    ``path`` (and the directory fsynced). On error the temp file is
    removed and ``path`` is untouched. ``.gz`` paths are
    gzip-compressed on the fly.

    Parent directories are created as needed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        raw = os.fdopen(fd, "wb")
        handle: TextIO
        if path.suffix == ".gz":
            handle = io.TextIOWrapper(
                gzip.GzipFile(fileobj=raw, mode="wb"), encoding=encoding
            )
        else:
            handle = io.TextIOWrapper(raw, encoding=encoding)
        try:
            yield handle
            handle.flush()
            if path.suffix == ".gz":
                # Finalize the gzip trailer before syncing the raw file.
                handle.detach().close()  # type: ignore[union-attr]
            raw.flush()
            os.fsync(raw.fileno())
        finally:
            try:
                handle.close()
            except ValueError:  # detached wrapper above
                pass
            if not raw.closed:
                raw.close()
        os.replace(tmp_name, path)
        _fsync_dir(path.parent)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write(path: str | Path, data: str | bytes) -> Path:
    """Write ``data`` to ``path`` atomically (temp file + fsync + rename).

    Parent directories are created as needed. Returns the final path.
    The temp file is fsynced before the rename and the directory after,
    so the replace is durable, not merely atomic.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    mode = "wb" if isinstance(data, bytes) else "w"
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, mode) as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
        _fsync_dir(path.parent)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
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
