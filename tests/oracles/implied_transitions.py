"""The state changes a scheduler leaves to other events.

A :class:`~repro.dagman.scheduler.DagmanScheduler` emits no
``job.state_change`` for a transition another event of the stream
already states:

* ready → submitted, stated by the ``job.submit`` right after it;
* a retry's submitted → ready (or held), stated by ``job.retry`` (or
  the ``job.held`` that follows it);
* submitted → done, stated by the succeeded terminal record right
  before it — but only when it is untagged and its platform publishes
  on its bus. A tagged scheduler (the platform's records carry no
  workflow scope), or one whose platform publishes elsewhere, restates
  this one.

The first two are the scheduler's own events, so they carry its tags;
a restated transition carries the same tags after ``from`` / ``to``.
:func:`expand` puts each missing transition back where the scheduler
used to emit it, tags included, so ``expand(stream)`` is the stream as
it was while the scheduler restated everything: the platform goldens
hash it, and the tests hold every reader of the stream (span fold,
status view, attribution) to the same output on both forms.
:func:`implied` names the transitions a stream may hold only restated.
"""

from __future__ import annotations

from typing import Iterable

from repro.observe.events import TERMINAL_KINDS, EventKind, RunEvent

__all__ = ["expand", "implied"]

#: The detail keys a scheduler event carries of its own: any other key
#: is one of the scheduler's tags, which it puts after these.
_OWN_KEYS = {
    EventKind.SUBMIT: ("expected_s",),
    EventKind.RETRY: ("retries_left", "status", "charged", "delay_s"),
    EventKind.HELD: ("delay_s", "until"),
    EventKind.STATE_CHANGE: ("from", "to", "released_by", "released_attempt"),
}


def implied(event: RunEvent) -> bool:
    """True for a ``job.state_change`` another event already states."""
    if event.kind is not EventKind.STATE_CHANGE:
        return False
    source, target = event.detail["from"], event.detail["to"]
    if target in ("failed", "unrunnable"):
        return False
    return not (target == "ready" and source in ("unready", "held"))


def _tags(event: RunEvent) -> dict:
    """The scheduler tags on ``event`` (none on a platform's record)."""
    own = _OWN_KEYS.get(event.kind)
    if own is None:
        return {}
    return {k: v for k, v in event.detail.items() if k not in own}


def _change(event: RunEvent, attempt: int | None, source: str,
            target: str, tags: dict) -> RunEvent:
    return RunEvent(
        EventKind.STATE_CHANGE,
        event.time,
        event.job_name,
        event.transformation,
        attempt=attempt or None,
        detail={"from": source, "to": target, **tags},
    )


def expand(events: Iterable[RunEvent]) -> list[RunEvent]:
    """``events`` with every implied transition re-inserted. A stream
    that already carries them all (recorded while the scheduler
    restated → submitted) comes back unchanged; on one that restates
    → done, only the other transitions are put back."""
    events = list(events)
    changes = [e.detail["to"] for e in events if implied(e)]
    if "submitted" in changes:
        return events
    restates_done = "done" in changes
    out: list[RunEvent] = []
    # (job, its tags) → its node state, as last stated
    state: dict[tuple, str] = {}

    def move(event: RunEvent, attempt: int | None, target: str) -> None:
        tags = _tags(event)
        key = (event.job_name or "", tuple(tags.items()))
        source = state.get(key, "ready")
        if source != target:
            out.append(_change(event, attempt, source, target, tags))
            state[key] = target

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
            key = (event.job_name or "", tuple(_tags(event).items()))
            state[key] = str(event.detail["to"])
        elif (kind in TERMINAL_KINDS and event.record.status.is_success
              and not restates_done):
            move(event, event.attempt, "done")
        elif kind is EventKind.RETRY and not event.detail["delay_s"]:
            move(event, event.attempt, "ready")
        elif kind is EventKind.HELD:
            move(event, event.attempt, "held")
    return out
