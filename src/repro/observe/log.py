"""JSONL event-log persistence — monitord's ``*.jobstate.log``, typed.

Each event is one self-contained JSON line, so logs stream, append,
tail, and survive crashes. A terminal line (``job.finish`` /
``job.evict``) is an ``event`` discriminator and an event timestamp
``t`` followed by the attempt record exactly as
:meth:`JobAttempt.to_json <repro.dagman.events.JobAttempt.to_json>`
renders it; ``trace.jsonl`` (:func:`repro.wms.monitor.write_trace`) is
the same record with no header. This module is the only reader of
either: :func:`iter_events` turns a headerless attempt line into the
terminal event of that attempt, so
:func:`~repro.observe.bus.events_to_trace` recovers the same trace from
both files.
"""

from __future__ import annotations

import json
import sys
from dataclasses import fields
from pathlib import Path
from typing import IO, Iterable, Iterator

from repro.dagman.events import JobAttempt
from repro.observe.bus import EventBus
from repro.observe.events import (
    TERMINAL_KINDS,
    EventKind,
    RunEvent,
    attempt_events,
)

__all__ = [
    "EventLogWriter",
    "compact_json",
    "event_to_json",
    "event_to_json_line",
    "event_from_json",
    "decode_event_line",
    "serialize_event",
    "write_events",
    "read_events",
    "iter_events",
]

#: Line keys that are header or attempt record; every other key of a
#: line is the event's ``detail``.
_KNOWN = frozenset({"event", "t", *(f.name for f in fields(JobAttempt))})


#: ``json.dumps(obj, separators=(",", ":"))`` without the encoder that
#: call builds each time: the one compact form every event-log line and
#: journal record is written in (and the journal's CRC is taken over).
compact_json = json.JSONEncoder(separators=(",", ":")).encode


#: One-slot serialization memo. A run's bus fans each event out to
#: several persistence subscribers (event log, write-ahead journal);
#: caching the last event's flattened dict and compact line means the
#: flatten + serialize work happens once per event, not once per
#: subscriber. Holding a strong reference to the event itself makes the
#: ``is`` check sound (an id can't be recycled while we still hold it).
_memo: tuple[RunEvent, dict, str] | None = None


def serialize_event(event: RunEvent) -> tuple[dict, str]:
    """The flattened dict *and* compact JSON line for *event*, memoized
    per event object (see the memo above). Both values may be shared
    across callers — treat them as read-only."""
    global _memo
    memo = _memo
    if memo is not None and memo[0] is event:
        return memo[1], memo[2]
    data = _flatten(event)
    line = compact_json(data)
    _memo = (event, data, line)
    return data, line


def event_to_json(event: RunEvent) -> dict:
    """Flatten one event to a JSON-able dict (one log line).

    The result may be shared across callers (see the memo above) —
    treat it as read-only; copy before mutating.
    """
    return serialize_event(event)[0]


def event_to_json_line(event: RunEvent) -> str:
    """One compact JSON line (no newline) for *event*, memo-shared with
    :func:`event_to_json` so co-subscribers serialize each event once."""
    return serialize_event(event)[1]


def _flatten(event: RunEvent) -> dict:
    out: dict[str, object] = {"event": event.kind.value, "t": event.time}
    if event.job_name is not None:
        out["job_name"] = event.job_name
    if event.transformation is not None:
        out["transformation"] = event.transformation
    if event.site is not None:
        out["site"] = event.site
    if event.machine is not None:
        out["machine"] = event.machine
    if event.attempt is not None:
        out["attempt"] = event.attempt
    if event.record is not None:
        out.update(event.record.to_json())
    if event.detail:
        for key, value in event.detail.items():
            out.setdefault(key, value)
    return out


def event_from_json(data: dict) -> RunEvent:
    """Parse one log line back into a :class:`RunEvent`.

    A line without an ``event`` key is a bare attempt record
    (``trace.jsonl``); it becomes the terminal event of that attempt
    (``job.finish`` or ``job.evict``).
    """
    if "event" not in data:
        return attempt_events(JobAttempt.from_json(data))[-1]
    kind = EventKind(data["event"])
    detail = {k: v for k, v in data.items() if k not in _KNOWN}
    if "status" in data:
        detail["status"] = data["status"]
    return RunEvent(
        kind,
        data["t"],
        job_name=data.get("job_name"),
        transformation=data.get("transformation"),
        site=data.get("site"),
        machine=data.get("machine"),
        attempt=data.get("attempt"),
        record=JobAttempt.from_json(data) if kind in TERMINAL_KINDS else None,
        detail=detail,
    )


class EventLogWriter:
    """Bus subscriber that appends one JSON line per event.

    Lines are flushed per event so a concurrent ``repro-status
    --follow`` (or plain ``tail -f``) sees them as they happen.
    """

    def __init__(self, path: str | Path, bus: EventBus | None = None) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: IO[str] | None = open(self.path, "a", encoding="utf-8")
        self._unsubscribe = bus.subscribe(self) if bus is not None else None

    def __call__(self, event: RunEvent) -> None:
        if self._fh is None:
            raise ValueError(f"event log {self.path} is closed")
        self._fh.write(event_to_json_line(event) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "EventLogWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def write_events(path: str | Path, events: Iterable[RunEvent]) -> int:
    """Write a whole event stream as JSONL; returns the event count."""
    events = list(events)
    payload = "".join(event_to_json_line(e) + "\n" for e in events)
    from repro.util.iolib import atomic_write

    atomic_write(path, payload)
    return len(events)


class _NotJSON(ValueError):
    """A log line that does not parse at all (torn, or garbage)."""


def decode_event_line(raw: bytes, where: str) -> RunEvent | None:
    """One line of a JSONL log as its event, ``None`` for a blank line.

    A line that is not JSON, or is JSON but neither an event nor an
    attempt record, raises a ``ValueError`` that starts with ``where``
    (``path:lineno``). The one line decoder of :func:`iter_events` and
    ``repro-status --follow``.
    """
    if not raw.strip():
        return None
    try:
        data = json.loads(raw)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise _NotJSON(f"{where}: not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{where}: not a JSON object")
    try:
        return event_from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"{where}: not an event or attempt record: {exc!r}"
        ) from None


def iter_events(path: str | Path) -> Iterator[RunEvent]:
    """Stream events from a JSONL log (``events.jsonl`` or ``trace.jsonl``).

    A final line with no newline that does not parse is what a killed
    writer leaves behind: it is skipped with one note on stderr and the
    complete prefix stands. Any other line is decoded by
    :func:`decode_event_line`, whose ``ValueError`` names
    ``path:lineno``.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            where = f"{path}:{lineno}"
            try:
                event = decode_event_line(raw, where)
            except _NotJSON:
                if raw.endswith(b"\n"):
                    raise
                print(
                    f"{where}: ignoring torn final line "
                    "(the writer was killed mid-record)",
                    file=sys.stderr,
                )
                return
            if event is not None:
                yield event


def read_events(path: str | Path) -> list[RunEvent]:
    """Load a JSONL log into memory (see :func:`iter_events`)."""
    return list(iter_events(path))
