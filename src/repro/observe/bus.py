"""The event bus: one subscriber API over every execution path.

The bus is deliberately synchronous and unbuffered — ``emit`` calls each
subscriber inline, in subscription order, on the emitting thread. Under
the simulators that thread is the single driver thread (virtual-time
determinism is preserved); the local backend emits from its driver
thread too (completions are marshalled there before any callback runs),
so subscribers never need locks.

The stock subscriber, :class:`EventRecorder`, keeps every event in
memory (tests, ad-hoc analysis); :func:`events_to_trace` folds any
event stream — a recorder's capture or a log read back — into the
:class:`~repro.dagman.events.WorkflowTrace` that ``pegasus-statistics``
style reporting runs on.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.dagman.events import WorkflowTrace
from repro.observe.events import EventKind, RunEvent

__all__ = ["EventBus", "EventRecorder", "events_to_trace"]

Subscriber = Callable[[RunEvent], None]


class EventBus:
    """Synchronous publish/subscribe hub for :class:`RunEvent`.

    >>> bus = EventBus()
    >>> seen = []
    >>> unsubscribe = bus.subscribe(seen.append, kinds=(EventKind.SUBMIT,))
    >>> bus.emit(RunEvent(EventKind.SUBMIT, 0.0, job_name="j1"))
    >>> bus.emit(RunEvent(EventKind.WORKFLOW_END, 1.0))
    >>> [e.job_name for e in seen]
    ['j1']

    Hot-path notes: the subscriber list is snapshotted into a tuple on
    every (un)subscribe, so ``emit`` iterates a stable tuple with no
    per-event list copy, and a bus with no subscribers costs one counter
    increment. Emitters that would *construct* an event only to throw it
    away should check :attr:`active` first — the scheduler and all
    platform models do, which is why per-event overhead vanishes
    entirely when nothing listens.
    """

    __slots__ = ("_subscribers", "_snapshot", "_emitted")

    def __init__(self) -> None:
        self._subscribers: list[tuple[Subscriber, frozenset[EventKind] | None]] = []
        self._snapshot: tuple[tuple[Subscriber, frozenset[EventKind] | None], ...] = ()
        self._emitted = 0

    @property
    def emitted(self) -> int:
        """Total events published so far."""
        return self._emitted

    @property
    def active(self) -> bool:
        """True when at least one subscriber is attached.

        Emitters use this to skip event *construction* on a deaf bus;
        events skipped that way are never published, so they do not
        count toward :attr:`emitted`.
        """
        return bool(self._snapshot)

    def subscribe(
        self,
        subscriber: Subscriber,
        *,
        kinds: Iterable[EventKind] | None = None,
    ) -> Callable[[], None]:
        """Register ``subscriber``; returns an unsubscribe callable.

        ``kinds`` filters delivery to the given event kinds (all kinds
        when omitted).
        """
        entry = (
            subscriber,
            frozenset(kinds) if kinds is not None else None,
        )
        self._subscribers.append(entry)
        self._snapshot = tuple(self._subscribers)

        def unsubscribe() -> None:
            try:
                self._subscribers.remove(entry)
            except ValueError:
                pass  # already unsubscribed
            else:
                self._snapshot = tuple(self._subscribers)

        return unsubscribe

    def emit(self, event: RunEvent) -> None:
        """Deliver ``event`` to every matching subscriber, in order."""
        self._emitted += 1
        snapshot = self._snapshot
        if not snapshot:
            return  # deaf bus: count and move on
        for subscriber, kinds in snapshot:
            if kinds is None or event.kind in kinds:
                subscriber(event)

    def emit_batch(self, events: Iterable[RunEvent]) -> None:
        """Deliver several events with one subscriber-snapshot lookup.

        Equivalent to calling :meth:`emit` per event (same delivery
        order, same counting), but the snapshot is resolved once —
        platform models use this where one completion produces a burst
        (timeout + terminal, or a reconstructed attempt lifecycle).
        """
        snapshot = self._snapshot
        count = 0
        if not snapshot:
            for _ in events:
                count += 1
            self._emitted += count
            return
        for event in events:
            count += 1
            for subscriber, kinds in snapshot:
                if kinds is None or event.kind in kinds:
                    subscriber(event)
        self._emitted += count


class EventRecorder:
    """Subscriber that keeps every delivered event in memory."""

    def __init__(
        self, bus: EventBus | None = None, **subscribe_kwargs: Any
    ) -> None:
        self.events: list[RunEvent] = []
        if bus is not None:
            bus.subscribe(self, **subscribe_kwargs)

    def __call__(self, event: RunEvent) -> None:
        self.events.append(event)

    def of_kind(self, *kinds: EventKind) -> list[RunEvent]:
        """The recorded events of the given kinds, in arrival order."""
        wanted = frozenset(kinds)
        return [e for e in self.events if e.kind in wanted]

    def sequence(
        self, *, kinds: Iterable[EventKind] | None = None
    ) -> list[tuple[str, str | None]]:
        """The run as ``(kind.value, job_name)`` pairs — the
        timestamp-free shape used to compare runs across backends."""
        wanted = frozenset(kinds) if kinds is not None else None
        return [
            (e.kind.value, e.job_name)
            for e in self.events
            if wanted is None or e.kind in wanted
        ]


def events_to_trace(events: Iterable[RunEvent]) -> WorkflowTrace:
    """Rebuild the attempt trace from an event stream (terminal events
    carry the full records, so this is lossless)."""
    trace = WorkflowTrace()
    for event in events:
        if event.is_terminal and event.record is not None:
            trace.add(event.record)
    return trace
