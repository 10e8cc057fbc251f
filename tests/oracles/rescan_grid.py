"""The grid's dispatch pass as it was before the wait index.

Every pass walks *every* idle attempt in submit order and asks the
matchmaker about each one, whether or not anything that could change
the answer happened since the last pass. O(queue) finds per pass — the
cost the kernel's wait index removes — and, by construction, the
definition of the order matches must come out in:
``tests/test_wait_index.py`` holds :class:`OpportunisticGrid` to this
class event for event.
"""

from __future__ import annotations

from collections import deque

from repro.observe.events import EventKind
from repro.sim.grid import OpportunisticGrid
from repro.sim.platform import UNMATCHED, Attempt

__all__ = ["RescanGrid"]


class RescanGrid(OpportunisticGrid):
    """An :class:`OpportunisticGrid` with one idle deque and no memory
    between (or within) passes."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._queue: deque[Attempt] = deque()

    def _enqueue(self, a: Attempt, wait_class=None) -> None:
        self._queue.append(a)
        self._idle += 1
        self._dispatch()

    def _dispatch(self) -> None:
        self._blocks_excluded = False
        if not self._begin_pass():
            return
        queue = self._queue
        skipped: list[Attempt] = []
        while queue:
            a = queue[0]
            slot = self._acquire(a)
            if slot is None:
                break
            queue.popleft()
            if slot is UNMATCHED:
                skipped.append(a)
                continue
            self._idle -= 1
            a.slot = slot
            # Attempts still idle after this match: the ones this pass
            # skipped plus everything behind the cursor.
            self._emit(
                EventKind.MATCH, a,
                detail={"queue_depth": len(skipped) + len(queue)},
            )
            self.simulator.schedule(
                self._wait(slot), lambda a=a: self._arrive(a)
            )
        if skipped:
            queue.extendleft(reversed(skipped))
        if self._blocks_excluded and queue:
            self._schedule_redispatch()
