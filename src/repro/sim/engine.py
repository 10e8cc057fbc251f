"""The discrete-event simulation core.

A deliberately small engine: a priority queue of timestamped callbacks
and a virtual clock. Platform models schedule state transitions (job
starts, completions, evictions) as events; DAGMan reacts inside the
callbacks by scheduling more. Determinism is guaranteed by a
monotonically increasing tie-break sequence number — two events at the
same virtual time fire in scheduling order.

The engine is sized for million-event runs: :class:`Event` is a
``__slots__`` object (no per-event ``__dict__``), the heap stores
``(time, seq, event)`` tuples so ordering is C-speed tuple comparison
rather than attribute lookups, and cancelled entries are counted (and
the heap compacted when they dominate) so ``pending`` stays O(1).
"""

from __future__ import annotations

import heapq
from typing import Callable

__all__ = ["Event", "Simulator"]


class Event:
    """A scheduled callback; orderable by (time, seq).

    Lifecycle: *pending* → exactly one of *fired* (its callback ran) or
    *cancelled*. :meth:`cancel` after the event has fired is a no-op —
    the watchdog-timeout-races-completion pattern cancels completions
    that may have just run, and a late cancel must not skew the owning
    simulator's cancelled-entry accounting (``pending`` would undercount
    and compaction would reset the counter wrongly).
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "fired", "owner")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], None],
        owner: "Simulator | None" = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.fired = False
        self.owner = owner

    def cancel(self) -> None:
        """Prevent the callback from firing.

        The heap entry remains until the owning simulator reaches or
        compacts it; the simulator keeps a count of cancelled entries so
        ``pending`` stays O(1) and heavily-cancelled heaps get rebuilt.
        Cancelling an event that already fired (or was already
        cancelled) is a no-op.
        """
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self.owner is not None:
            self.owner._note_cancel()


class Simulator:
    """Virtual-clock event loop.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, lambda: fired.append(sim.now))
    >>> _ = sim.schedule(1.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [1.0, 5.0]
    """

    #: Compact the heap when at least this many entries are cancelled
    #: *and* they outnumber the live ones (amortised O(1) per cancel).
    _COMPACT_MIN = 64

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = start_time
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._processed = 0
        self._cancelled = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events."""
        return len(self._queue) - self._cancelled

    @property
    def processed(self) -> int:
        """Number of events fired so far."""
        return self._processed

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if not delay >= 0:  # negated, so NaN is refused as well
            raise ValueError(f"delay must be >= 0, got {delay}")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute virtual ``time``."""
        if not time >= self._now:  # negated, so NaN is refused as well
            raise ValueError(
                f"cannot schedule in the past: {time} < now {self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, owner=self)
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def _note_cancel(self) -> None:
        self._cancelled += 1
        if (
            self._cancelled >= self._COMPACT_MIN
            and self._cancelled * 2 > len(self._queue)
        ):
            # In place: run() loops hold a reference to this list.
            self._queue[:] = [
                entry for entry in self._queue if not entry[2].cancelled
            ]
            heapq.heapify(self._queue)
            self._cancelled = 0

    def clear(self) -> None:
        """Drop every pending event unfired; the clock stays."""
        for entry in self._queue:
            entry[2].cancelled = True  # a late cancel() stays a no-op
        self._queue.clear()  # in place: run() loops hold this list
        self._cancelled = 0

    def step(self) -> bool:
        """Fire the next event; returns False when the queue is empty."""
        queue = self._queue
        while queue:
            time, _seq, event = heapq.heappop(queue)
            if event.cancelled:
                self._cancelled -= 1
                continue
            event.fired = True
            self._now = time
            self._processed += 1
            event.callback()
            return True
        return False

    def run(self, *, until: float | None = None, max_events: int | None = None) -> None:
        """Run until the queue drains, ``until`` is reached, or
        ``max_events`` have fired (a runaway guard for tests).

        When ``until`` is given the clock always ends at ``until`` —
        including when the queue drains *before* the horizon — so
        ``run(until=t)`` leaves ``now == t`` unless an error aborts it.
        """
        queue = self._queue
        if until is None and max_events is None:
            # Hot path: drain everything, no per-iteration checks.
            pop = heapq.heappop
            while queue:
                time, _seq, event = pop(queue)
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                event.fired = True
                self._now = time
                self._processed += 1
                event.callback()
            return
        fired = 0
        while queue:
            if max_events is not None and fired >= max_events:
                raise RuntimeError(
                    f"simulation exceeded max_events={max_events}"
                )
            next_time, _seq, next_event = queue[0]
            if next_event.cancelled:
                heapq.heappop(queue)
                self._cancelled -= 1
                continue
            if until is not None and next_time > until:
                self._now = until
                return
            if not self.step():
                break
            fired += 1
        if until is not None and self._now < until:
            self._now = until
