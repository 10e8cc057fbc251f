"""The journal's append path as it was before each record's work was
done once.

Per durable event the writer flattened the event into a dict
(``event_to_json``) only so :meth:`JournalState.apply` could read a
handful of its keys, printed the line through the general printer, and
framed it by building the checksummed text ``{"seq":N,…}`` and then the
line out of copies of it. Each snapshot sorted the whole ``done`` set
again, and ``Journal(resume=)`` copied the recovered state through
``to_json`` / ``from_json``. By construction the definition of what
the journal writes: ``tests/test_journal_append.py`` feeds generated
durable streams to :class:`ReferenceJournal` and to
:class:`repro.resilience.journal.Journal` and demands the same bytes
in every file, the same state after every record and the same
:func:`~repro.resilience.journal.recover` result.
"""

from __future__ import annotations

import dataclasses
import os
import zlib

from repro.observe.events import RunEvent
from repro.observe.log import compact_json, event_to_json
from repro.resilience.journal import (
    FSYNC_BATCH,
    Journal,
    JournalError,
    JournalState,
    RecoveredState,
)

__all__ = ["ReferenceJournal", "ReferenceState", "frame_record_reference"]


def frame_record_reference(seq: int, body: bytes) -> bytes:
    """The line for ``body``, through a copy of the checksummed text."""
    canonical = b'{"seq":%d,' % seq + body[1:]
    return b'{"crc":"%08x",' % zlib.crc32(canonical) + canonical[1:] + b"\n"


class ReferenceState(JournalState):
    """A :class:`JournalState` that sorts ``done`` whole on every
    snapshot and copies itself through its JSON form."""

    def to_json(self) -> dict:
        return {
            "done": sorted(self.done),
            "failed": sorted(self.failed),
            "attempts": dict(self.attempts),
            "retries_left": dict(self.retries_left),
            "failed_attempts": dict(self.failed_attempts),
            "in_flight": dict(self.in_flight),
            "undecided": dict(self.undecided),
            "blacklist_blocks": list(self.blacklist_blocks),
            "rescue_round": self.rescue_round,
            "resubmitting": self.resubmitting,
            "workflow_done": self.workflow_done,
            "clock": self.clock,
            "manager_pid": self.manager_pid,
            "trace_id": self.trace_id,
        }

    def copy(self) -> "ReferenceState":
        return reference_copy(self)


def reference_copy(state: JournalState) -> ReferenceState:
    """``state`` through ``to_json`` / ``from_json``, its terminal
    count kept."""
    clone = ReferenceState.from_json(ReferenceState.to_json(state))  # type: ignore[arg-type]
    clone.records_total = state.records_total
    return clone


class ReferenceJournal(Journal):
    """A :class:`Journal` whose every record takes the old path."""

    def __init__(self, path, *, resume: RecoveredState | None = None, **kwargs) -> None:
        if resume is not None:
            resume = dataclasses.replace(resume, state=reference_copy(resume.state))
        super().__init__(path, resume=resume, **kwargs)
        if resume is None:
            # The journal's header is already folded in; the reducer is
            # the same, only snapshots and copies differ.
            self._state.__class__ = ReferenceState

    def _on_durable(self, event: RunEvent) -> None:
        if self._dead:
            return
        body = event_to_json(event)
        self._append_serialized(body, compact_json(body).encode())

    def _append_serialized(self, body: dict, raw: bytes) -> None:
        fh = self._fh
        if fh is None or self._dead:
            raise JournalError("journal is closed")
        line = frame_record_reference(self._seq, raw)
        crash = self.crash
        if crash is not None and crash.note_record():
            self._dead = True
            torn = line[: max(1, int(len(line) * crash.torn_fraction))]
            fh.write(torn.rstrip(b"\n"))
            fh.flush()
            crash.fire()
        fh.write(line)
        self._seq += 1
        self._since_snapshot += 1
        if self.fsync_mode == "always":
            fh.flush()
            os.fsync(fh.fileno())
        elif self.fsync_mode == "batch":
            self._since_fsync += 1
            if self._since_fsync >= FSYNC_BATCH:
                fh.flush()
                os.fsync(fh.fileno())
                self._since_fsync = 0
        self._state.apply(body)
        if self._since_snapshot >= max(
            self.snapshot_every, self._state.records_total
        ):
            self.snapshot()
