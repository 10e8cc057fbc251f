"""The journal's read path as it was before it stayed in bytes, and a
dict-to-line framer for the tests that hand-craft records.

``decode_record`` verified a WAL line by parsing it, re-serialising the
parsed dict to compact JSON, encoding that and comparing its CRC32 with
the line's — 13.5 µs per replayed record against 5 µs for the parse
alone — and ``RecoveredState.trace()`` sent every retained record
through ``json.loads`` → ``event_from_json`` → a ``RunEvent`` built
only to take ``.record``. By construction the definition of which lines
are valid and which attempts a journal holds: ``tests/
test_journal_bytes.py`` holds :func:`repro.resilience.journal
.decode_record` and :func:`~repro.resilience.journal.recover` to them.

One deliberate difference: this decoder accepts any spelling of a line
whose *compact form* matches the checksum (re-spaced, re-indented);
the one in ``src/`` checks the bytes it is handed, so it accepts a
subset.
"""

from __future__ import annotations

import json
import zlib
from typing import Iterable

from repro.dagman.events import WorkflowTrace
from repro.observe.log import compact_json, event_from_json

__all__ = ["decode_record_reference", "encode_record", "trace_reference"]


def decode_record_reference(line: bytes | str) -> dict | None:
    """Parse → re-serialise → CRC; ``None`` means torn/corrupt."""
    if isinstance(line, bytes):
        # recover() decoded each line before handing it over and called
        # one that would not decode torn
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError:
            return None
    try:
        data = json.loads(line)
    except ValueError:
        return None
    if not isinstance(data, dict):
        return None
    crc = data.pop("crc", None)
    if not isinstance(crc, str):
        return None
    canonical = compact_json(data)
    expected = format(zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF, "08x")
    if crc != expected:
        return None
    if type(data.get("seq")) is not int:  # a bool is not a seq
        return None
    return data


def trace_reference(records: Iterable[bytes | str]) -> WorkflowTrace:
    """The attempts of ``JournalState.records``, one line at a time
    through the event reader."""
    trace = WorkflowTrace()
    for raw in records:
        record = event_from_json(json.loads(raw)).record
        if record is not None:
            trace.add(record)
    return trace


def encode_record(seq: int, body: dict) -> str:
    """One WAL line for ``body``: ``{"crc":…,"seq":seq,…body}``, the CRC32
    taken over the compact JSON of ``seq`` followed by the body."""
    text = compact_json({"seq": seq, **body})
    return '{"crc":"%08x",%s\n' % (zlib.crc32(text.encode()), text[1:])
