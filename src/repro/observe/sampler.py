"""Periodic utilization sampling on the virtual clock.

Statistics derived from attempt records answer "how long did things
take"; the sampler answers "what did the platform look like over time"
— busy slots and queue depth at a fixed cadence, the data behind
pegasus-plots' host-over-time chart and the Chrome-trace counter track.

The sampler rides the simulator's own event queue. It reschedules
itself only while *other* work is pending, so a draining simulation
still terminates: when the sampler fires and nothing else is queued,
it records one final sample and stops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

from repro.observe.bus import EventBus
from repro.observe.events import EventKind, RunEvent

# An annotation only, and the one edge from this package to the
# simulators: at run time it would cost repro-status all of repro.sim.
if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

__all__ = ["UtilizationSample", "UtilizationSampler"]


class _Sampleable(Protocol):
    """What the sampler reads from a platform each tick."""

    def queue_status(self) -> dict[str, int]: ...


@dataclass(frozen=True)
class UtilizationSample:
    """One reading: platform occupancy at one instant."""

    time: float
    busy: int
    idle: int


class UtilizationSampler:
    """Sample ``platform.queue_status()`` every ``interval_s`` virtual
    seconds, recording locally and (optionally) emitting
    ``platform.sample`` events on a bus.

    Start it *after* the workload has seeded the queue — each tick
    reschedules only while other work is pending, so a sampler started
    on an idle simulator records one sample and stops:

    >>> from repro.sim.engine import Simulator
    >>> class Fake:
    ...     def queue_status(self):
    ...         return {"idle": 2, "running": 3}
    >>> sim = Simulator()
    >>> _ = sim.schedule(25.0, lambda: None)  # the workload
    >>> sampler = UtilizationSampler(sim, Fake(), interval_s=10.0).start()
    >>> sim.run()
    >>> [(s.time, s.busy) for s in sampler.samples]
    [(0.0, 3), (10.0, 3), (20.0, 3), (30.0, 3)]
    """

    def __init__(
        self,
        simulator: Simulator,
        platform: _Sampleable,
        *,
        interval_s: float = 60.0,
        bus: EventBus | None = None,
        site: str | None = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.simulator = simulator
        self.platform = platform
        self.interval_s = interval_s
        self.bus = bus
        self.site = site or getattr(
            getattr(platform, "config", None), "name", None
        )
        self.samples: list[UtilizationSample] = []
        self._stopped = False

    def start(self) -> "UtilizationSampler":
        """Take the first sample now and begin the periodic schedule."""
        self._tick()
        return self

    def stop(self) -> None:
        """Stop sampling (the pending tick becomes a no-op)."""
        self._stopped = True

    def _tick(self) -> None:
        if self._stopped:
            return
        status = self.platform.queue_status()
        sample = UtilizationSample(
            time=self.simulator.now,
            busy=status.get("running", 0),
            idle=status.get("idle", 0),
        )
        self.samples.append(sample)
        if self.bus is not None:
            self.bus.emit(
                RunEvent(
                    EventKind.SAMPLE,
                    sample.time,
                    site=self.site,
                    detail={"busy": sample.busy, "idle": sample.idle},
                )
            )
        # Reschedule only while other work is pending; otherwise the
        # sampler would keep an otherwise-drained simulation alive.
        if self.simulator.pending > 0:
            self.simulator.schedule(self.interval_s, self._tick)
