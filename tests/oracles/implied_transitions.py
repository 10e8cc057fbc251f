"""The state changes an untagged scheduler leaves to other events.

An untagged :class:`~repro.dagman.scheduler.DagmanScheduler` whose
platform publishes on its bus emits no ``job.state_change`` for a
transition another event of the stream already states:

* ready → submitted, stated by the ``job.submit`` right after it;
* submitted → done, stated by the succeeded terminal record right
  before it;
* a retry's submitted → ready (or held), stated by ``job.retry`` (or
  the ``job.held`` that follows it).

:func:`expand` puts each of them back where the scheduler used to emit
it, so ``expand(stream)`` is the stream as it was before the scheduler
stopped restating them: the platform goldens hash it, and the tests
hold every reader of the stream (span fold, status view, attribution)
to the same output on both forms. :func:`implied` names the transitions
that must no longer appear.
"""

from __future__ import annotations

from typing import Iterable

from repro.observe.events import TERMINAL_KINDS, EventKind, RunEvent

__all__ = ["expand", "implied"]


def implied(event: RunEvent) -> bool:
    """True for a ``job.state_change`` another event already states."""
    if event.kind is not EventKind.STATE_CHANGE:
        return False
    source, target = event.detail["from"], event.detail["to"]
    if target in ("failed", "unrunnable"):
        return False
    return not (target == "ready" and source in ("unready", "held"))


def _change(event: RunEvent, attempt: int | None, source: str,
            target: str) -> RunEvent:
    return RunEvent(
        EventKind.STATE_CHANGE,
        event.time,
        event.job_name,
        event.transformation,
        attempt=attempt or None,
        detail={"from": source, "to": target},
    )


def expand(events: Iterable[RunEvent]) -> list[RunEvent]:
    """``events`` with every implied transition re-inserted. A stream
    that already carries them (a tagged scheduler's, or one recorded
    before the scheduler stopped restating) comes back unchanged."""
    events = list(events)
    if any(implied(e) for e in events):
        return events
    out: list[RunEvent] = []
    state: dict[str, str] = {}  # job → its node state, as last stated

    def move(event: RunEvent, attempt: int | None, target: str) -> None:
        name = event.job_name or ""
        source = state.get(name, "ready")
        if source != target:
            out.append(_change(event, attempt, source, target))
            state[name] = target

    for event in events:
        kind = event.kind
        if kind is EventKind.SUBMIT:
            # The journal snapshots while the submit is delivered, so a
            # log holds the snapshot ahead of it: go in ahead of both.
            tail = []
            while out and out[-1].kind is EventKind.JOURNAL_SNAPSHOT:
                tail.insert(0, out.pop())
            move(event, (event.attempt or 1) - 1, "submitted")
            out += tail
        out.append(event)
        if kind is EventKind.STATE_CHANGE:
            state[event.job_name or ""] = str(event.detail["to"])
        elif kind in TERMINAL_KINDS and event.record.status.is_success:
            move(event, event.attempt, "done")
        elif kind is EventKind.RETRY and not event.detail["delay_s"]:
            move(event, event.attempt, "ready")
        elif kind is EventKind.HELD:
            move(event, event.attempt, "held")
    return out
