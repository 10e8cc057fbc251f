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
from _json import make_encoder
from dataclasses import fields
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import IO, Iterable, Iterator

from repro.dagman.events import JobAttempt, JobStatus
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
    "write_events",
    "read_events",
    "iter_events",
]

#: The one compact encoder: ``json.dumps(obj, separators=(",", ":"))``
#: without the encoder that call builds each time (the C one, made
#: once; no cycle check, which no record needs). Every event-log line
#: and journal record is written in this form, and the journal's CRC
#: is taken over it.
_compact = make_encoder(
    None, json.JSONEncoder().default, _json_str, None, ":", ",",
    False, False, True,
)


def compact_json(obj: object) -> str:
    """*obj* in the compact form (see :data:`_compact`)."""
    return "".join(_compact(obj, 0))


#: One-slot line memo. A run's bus fans each event out to several
#: persistence subscribers (event log, write-ahead journal); keeping the
#: last event's line means it is printed once per event, not once per
#: subscriber. Holding a strong reference to the event itself makes the
#: ``is`` check sound (an id can't be recycled while we still hold it).
_memo: tuple[RunEvent, str] | None = None


def event_to_json(event: RunEvent) -> dict:
    """Flatten one event to a JSON-able dict: the mapping the line of
    :func:`event_to_json_line` spells, key for key and in order (a new
    dict per call)."""
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


def event_to_json_line(event: RunEvent) -> str:
    """One compact JSON line (no newline) for *event*: the bytes
    ``compact_json(event_to_json(event))`` gives, printed from a
    template without building the dict where the event has a template's
    shape, and memo-shared so that co-subscribers print each event
    once."""
    global _memo
    memo = _memo
    if memo is not None and memo[0] is event:
        return memo[1]
    line = _print_line(event)
    _memo = (event, line)
    return line


# The line printers. The lines a run emits most print from templates:
# keys, separators and braces are literal text, and only values go
# through the escaper. A line no template takes is the compact encoding
# of :func:`event_to_json`, which spells the same flattening.

_HEADS = {kind: '{"event":%s,"t":' % _json_str(kind.value) for kind in EventKind}
#: Line keys that are header or attempt record; every other key of a
#: line is the event's ``detail``.
_KNOWN = frozenset({"event", "t", *(f.name for f in fields(JobAttempt))})
#: The whole ``job.finish`` / ``job.evict`` line as the platforms emit
#: it, by kind and status: every header field set (the record's values
#: are the ones printed), no ``error``, a profile, and no ``detail`` key
#: but the ``status`` the record already holds. ``%r`` and ``%d`` spell
#: a finite ``float`` and an ``int`` as the encoder does; anything else
#: is encoded from :func:`event_to_json`.
_TERMINAL = {
    kind: {
        status: _HEADS[kind]
        + '%s,"job_name":%s,"transformation":%s,"site":%s,"machine":%s'
        ',"attempt":%d,"submit_time":%r,"setup_start":%s,"exec_start":%s'
        ',"exec_end":%s,"status":' + _json_str(status.value)
        + ',"profile":{"cpu_user_s":%r,"cpu_sys_s":%r,"max_rss_kb":%d'
        ',"read_ops":%d,"write_ops":%d,"source":%s}}'
        for status in JobStatus
    }
    for kind in TERMINAL_KINDS
}


# The frequent non-terminal lines, each from one template when the
# event has exactly the shape its emitter gives it: ``job.submit`` (the
# scheduler: no site or machine yet, and the planner's expected
# runtime), ``job.state_change`` (the scheduler: an attempt once there
# has been one, and the parent that released a ready node), and
# ``job.match`` / ``job.setup_start`` / ``job.exec_start`` (a platform:
# every header field). Values arrive spelled as the encoder spells them
# (``%d`` for an ``int``); any other shape — a tag in ``detail``, a
# header field missing, a value of another type — is encoded from
# :func:`event_to_json`.
# Each printer repeats the header checks in line: a shared helper cost
# about a fourteenth of the event log's time on a paper-scale run.
_JOB = '%s,"job_name":%s,"transformation":%s'
_SUBMIT = _HEADS[EventKind.SUBMIT] + _JOB + ',"attempt":%d,"expected_s":%s}'
_STATE_CHANGE = _HEADS[EventKind.STATE_CHANGE] + _JOB + '%s,"from":%s,"to":%s%s}'
_RELEASED_KEYS = ("from", "to", "released_by", "released_attempt")
_PLACED = _JOB + ',"site":%s,"machine":%s,"attempt":%d'
_MATCH = _HEADS[EventKind.MATCH] + _PLACED + ',"queue_depth":%d}'
#: ``job.setup_start`` has ``job.exec_start``'s shape: one placed-event
#: template, by kind.
_STARTED = {
    kind: _HEADS[kind] + _PLACED + "}"
    for kind in (EventKind.SETUP_START, EventKind.EXEC_START)
}


#: The last event time spelled, and its spelling. Every event of one
#: simulated instant carries the clock's one float object, so most
#: lines spell the time the line before them did; holding the float
#: keeps the ``is`` check sound (its id cannot be reused meanwhile).
_last_time: tuple[object, str] = (None, "null")


def _time_text(t: float) -> str:
    """``repr(t)`` for a finite float *t*, from :data:`_last_time` when
    *t* is the float it holds."""
    global _last_time
    last = _last_time
    if last[0] is t:
        return last[1]
    text = repr(t)
    _last_time = (t, text)
    return text


def _print_submit(event: RunEvent) -> str | None:
    t, job, transformation = event.time, event.job_name, event.transformation
    attempt, detail = event.attempt, event.detail
    if (
        len(detail) != 1
        or event.site is not None
        or event.machine is not None
        or type(t) is not float
        or t - t != 0  # not finite
        or type(job) is not str
        or type(transformation) is not str
        or type(attempt) is not int
    ):
        return None
    expected = detail.get("expected_s")
    if not (type(expected) is int or (type(expected) is float and expected - expected == 0)):
        return None
    return _SUBMIT % (
        _time_text(t), _json_str(job), _json_str(transformation), attempt,
        repr(expected),
    )


def _print_state_change(event: RunEvent) -> str | None:
    t, job, transformation = event.time, event.job_name, event.transformation
    attempt, detail = event.attempt, event.detail
    keys = tuple(detail)
    if keys == _RELEASED_KEYS:
        by, by_attempt = detail["released_by"], detail["released_attempt"]
        if type(by) is not str or type(by_attempt) is not int:
            return None
        released = ',"released_by":%s,"released_attempt":%d' % (_json_str(by), by_attempt)
    elif keys == _RELEASED_KEYS[:2]:
        released = ""
    else:
        return None
    source, target = detail["from"], detail["to"]
    if (
        event.site is not None
        or event.machine is not None
        or type(t) is not float
        or t - t != 0  # not finite
        or type(job) is not str
        or type(transformation) is not str
        or type(source) is not str
        or type(target) is not str
    ):
        return None
    if attempt is None:
        numbered = ""
    elif type(attempt) is int:
        numbered = ',"attempt":%d' % attempt
    else:
        return None
    return _STATE_CHANGE % (
        _time_text(t), _json_str(job), _json_str(transformation), numbered,
        _json_str(source), _json_str(target), released,
    )


def _placed(event: RunEvent) -> tuple[object, ...] | None:
    """The header values of a platform's event in :data:`_PLACED`, or
    ``None`` when one is missing or not of its plain type."""
    t, job, transformation = event.time, event.job_name, event.transformation
    site, machine, attempt = event.site, event.machine, event.attempt
    if (
        type(t) is not float
        or t - t != 0  # not finite
        or type(job) is not str
        or type(transformation) is not str
        or type(site) is not str
        or type(machine) is not str
        or type(attempt) is not int
    ):
        return None
    return (
        _time_text(t), _json_str(job), _json_str(transformation), _json_str(site),
        _json_str(machine), attempt,
    )


def _print_match(event: RunEvent) -> str | None:
    detail = event.detail
    if len(detail) != 1:
        return None
    depth = detail.get("queue_depth")
    if type(depth) is not int:
        return None
    header = _placed(event)
    return None if header is None else _MATCH % (*header, depth)


def _print_started(event: RunEvent) -> str | None:
    if event.detail:
        return None
    header = _placed(event)
    return None if header is None else _STARTED[event.kind] % header


_PLAIN = {
    EventKind.SUBMIT: _print_submit,
    EventKind.STATE_CHANGE: _print_state_change,
    EventKind.MATCH: _print_match,
    EventKind.SETUP_START: _print_started,
    EventKind.EXEC_START: _print_started,
}


def _print_terminal(
    event: RunEvent, record: JobAttempt, templates: dict[JobStatus, str]
) -> str | None:
    """The line of a terminal event from its kind's :data:`_TERMINAL`
    *templates*, or ``None`` when the event is not of that shape."""
    profile = record.profile
    detail = event.detail
    if (
        profile is None
        or record.error
        or (detail and (len(detail) != 1 or "status" not in detail))
        or event.job_name is None
        or event.transformation is None
        or event.site is None
        or event.machine is None
        or event.attempt is None
    ):
        return None
    t, submit, setup = event.time, record.submit_time, record.setup_start
    start, end = record.exec_start, record.exec_end
    user, system = profile.cpu_user_s, profile.cpu_sys_s
    job, transformation = record.job_name, record.transformation
    site, machine, source = record.site, record.machine, profile.source
    attempt, rss = record.attempt, profile.max_rss_kb
    reads, writes = profile.read_ops, profile.write_ops
    if not (
        type(t) is type(submit) is type(setup) is type(start) is type(end)
        is type(user) is type(system) is float
        and type(job) is type(transformation) is type(site) is type(machine)
        is type(source) is str
        and type(attempt) is type(rss) is type(reads) is type(writes) is int
    ):
        return None
    total = t + submit + setup + start + end + user + system
    if total - total != 0:  # not all finite (an overflow only falls back)
        return None
    # A platform stamps a finish at the record's own exec_end, and a
    # job with no setup phase starts it when it starts executing: the
    # same float objects, spelled once.
    t_text, setup_text = _time_text(t), repr(setup)
    return templates[record.status] % (
        t_text, _json_str(job), _json_str(transformation), _json_str(site),
        _json_str(machine), attempt, submit, setup_text,
        setup_text if start is setup else repr(start),
        t_text if end is t else repr(end),
        user, system, rss, reads, writes, _json_str(source),
    )


def _print_line(event: RunEvent) -> str:
    record = event.record
    if record is not None:
        templates = _TERMINAL.get(event.kind)
        if templates is not None:
            line = _print_terminal(event, record, templates)
            if line is not None:
                return line
    else:
        plain = _PLAIN.get(event.kind)
        if plain is not None:
            line = plain(event)
            if line is not None:
                return line
    return compact_json(event_to_json(event))


def event_from_json(data: dict) -> RunEvent:
    """Parse one log line back into a :class:`RunEvent`.

    A line without an ``event`` key is a bare attempt record
    (``trace.jsonl``); it becomes the terminal event of that attempt
    (``job.finish`` or ``job.evict``).
    """
    if "event" not in data:
        return attempt_events(JobAttempt.from_json(data))[-1]
    kind = EventKind(data["event"])
    # ``status`` stays in ``detail`` where the line has it, so a decoded
    # line prints back byte for byte.
    detail = {k: v for k, v in data.items() if k not in _KNOWN or k == "status"}
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

    Each line, newline included, goes to the file in one unbuffered
    write as its event arrives — nothing waits in a buffer — so a
    concurrent ``repro-status --follow`` (or plain ``tail -f``) sees
    every line as it happens.
    """

    def __init__(self, path: str | Path, bus: EventBus | None = None) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: IO[bytes] | None = open(self.path, "ab", buffering=0)
        self._unsubscribe = bus.subscribe(self) if bus is not None else None

    def __call__(self, event: RunEvent) -> None:
        fh = self._fh
        if fh is None:
            raise ValueError(f"event log {self.path} is closed")
        data = (event_to_json_line(event) + "\n").encode()
        while data:  # a short write (a full disk, a signal) writes the rest
            data = data[fh.write(data):]

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
    """Write a whole event stream as JSONL, line by line; returns the
    event count."""
    from repro.util.iolib import atomic_open

    count = 0
    with atomic_open(path) as out:
        for count, e in enumerate(events, 1):
            out.write(event_to_json_line(e) + "\n")
    return count


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
