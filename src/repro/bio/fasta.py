"""FASTA reading and writing.

blast2cap3's inputs (``transcripts.fasta``) and outputs (merged contigs,
unjoined transcripts) are all FASTA. The reader is a streaming generator
so that multi-hundred-MB files — the paper's ``transcripts.fasta`` is
404 MB — never have to fit in memory at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, TextIO

__all__ = ["FastaRecord", "read_fasta", "write_fasta"]

#: Line width used when wrapping sequence output.
LINE_WIDTH = 70


@dataclass(frozen=True)
class FastaRecord:
    """One FASTA entry.

    ``id`` is the first whitespace-delimited token of the header;
    ``description`` is the full header line without the ``>``.
    """

    id: str
    seq: str
    description: str = ""

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("FASTA record id must be non-empty")
        if any(ws in self.id for ws in (" ", "\t")):
            raise ValueError(f"FASTA id may not contain whitespace: {self.id!r}")

    def __len__(self) -> int:
        return len(self.seq)

    def format(self) -> str:
        """Render this record as FASTA text (wrapped, trailing newline)."""
        header = self.description if self.description else self.id
        lines = [f">{header}"]
        for i in range(0, len(self.seq), LINE_WIDTH):
            lines.append(self.seq[i : i + LINE_WIDTH])
        if not self.seq:
            lines.append("")
        return "\n".join(lines) + "\n"


def _open_text(source: str | Path | TextIO) -> tuple[TextIO, bool]:
    if isinstance(source, (str, Path)):
        from repro.util.iolib import open_text_auto

        return open_text_auto(source), True
    return source, False


def read_fasta(source: str | Path | TextIO) -> Iterator[FastaRecord]:
    """Stream :class:`FastaRecord` objects from a path or open handle.

    Blank lines are ignored; a sequence body before any header is an
    error. Headers with no id (``>`` alone) are an error.
    """
    handle, owned = _open_text(source)
    try:
        header: str | None = None
        chunks: list[str] = []
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            if line.startswith(">"):
                if header is not None:
                    yield _make_record(header, chunks)
                header = line[1:].strip()
                if not header:
                    raise ValueError(f"empty FASTA header at line {lineno}")
                chunks = []
            else:
                if header is None:
                    raise ValueError(
                        f"sequence data before any FASTA header at line {lineno}"
                    )
                chunks.append(line.strip())
        if header is not None:
            yield _make_record(header, chunks)
    finally:
        if owned:
            handle.close()


def _make_record(header: str, chunks: list[str]) -> FastaRecord:
    rec_id = header.split()[0]
    return FastaRecord(id=rec_id, seq="".join(chunks), description=header)


def write_fasta(
    dest: str | Path | TextIO, records: Iterable[FastaRecord]
) -> int:
    """Write records as FASTA. Returns the number of records written.

    When ``dest`` is a path the write is atomic (temp file + rename)
    and ``.gz`` paths are compressed.
    """
    if isinstance(dest, (str, Path)):
        from repro.util.iolib import atomic_open

        with atomic_open(dest) as handle:
            return write_fasta(handle, records)
    count = 0
    for record in records:
        dest.write(record.format())
        count += 1
    return count
