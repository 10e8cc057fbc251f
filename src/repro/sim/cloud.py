"""A cloud execution-platform model — the paper's future work, built.

§VII: "Using academic and commercial clouds as an execution platform
for the blast2cap3 workflow built in this paper will be challenging,
but important and useful further step of this research." This module
models the EC2/FutureGrid style platform the paper names:

* **on-demand instances** — provisioned per queued job up to a cap,
  each paying a boot delay before the first payload runs;
* **machine images** — software baked in, so no per-job
  download/install (the cloud's answer to OSG's setup tax);
* **warm pools** — idle instances linger ``idle_timeout_s`` before
  terminating, so bursts reuse booted capacity;
* **billing** — instance time is billed in ``billing_quantum_s``
  increments (the classic per-hour granularity), which makes *cost*,
  not just wall time, an output of every run;
* optional **spot mode** — cheaper instances that can be reclaimed
  (an eviction hazard, like OSG's preemption) for the cost/risk
  trade-off study.

Runs on the same :class:`~repro.sim.platform.SimPlatform` kernel as the
campus cluster and grid models, so DAGMan and ``pegasus-statistics``
work on cloud runs unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

from repro.dagman.events import JobStatus
from repro.observe.bus import EventBus
from repro.sim.engine import Event, Simulator
from repro.sim.failures import NO_FAILURES, FailureModel
from repro.sim.platform import Attempt, SimPlatform
from repro.sim.rng import RngStreams, bounded_lognormal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.blacklist import Blacklist
    from repro.resilience.faults import FaultInjector

__all__ = ["InstanceType", "CloudConfig", "CloudPlatform"]


@dataclass(frozen=True)
class InstanceType:
    """One VM flavour."""

    name: str
    speed: float
    hourly_price: float

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise ValueError("speed must be positive")
        if self.hourly_price < 0:
            raise ValueError("hourly_price must be >= 0")


@dataclass(frozen=True)
class CloudConfig:
    """Cloud platform parameters (EC2-c1.medium-era defaults)."""

    name: str = "cloud"
    instance_type: InstanceType = InstanceType(
        name="c1.medium", speed=1.25, hourly_price=0.145
    )
    max_instances: int = 200
    boot_mean_s: float = 120.0
    boot_sigma: float = 0.3
    boot_max_s: float = 600.0
    idle_timeout_s: float = 300.0
    billing_quantum_s: float = 3600.0
    dispatch_latency_s: float = 2.0
    #: Spot-market mode: reclaim hazard + discounted price.
    failures: FailureModel = NO_FAILURES
    spot_discount: float = 1.0  # multiply hourly price (e.g. 0.3 for spot)

    def __post_init__(self) -> None:
        if self.max_instances < 1:
            raise ValueError("max_instances must be >= 1")
        if self.billing_quantum_s <= 0:
            raise ValueError("billing_quantum_s must be positive")
        if not 0 < self.spot_discount <= 1:
            raise ValueError("spot_discount must be in (0, 1]")


@dataclass(slots=True, eq=False)
class _Instance:
    """One VM: boots once, runs jobs one at a time, idles, terminates."""

    name: str
    site: str
    speed: float
    launched_at: float
    terminated_at: float | None = None
    booted: bool = False
    idle_event: Event | None = None  # pending termination

    def lifetime(self, now: float) -> float:
        """Provisioned seconds so far."""
        end = self.terminated_at if self.terminated_at is not None else now
        return end - self.launched_at


class CloudPlatform(SimPlatform):
    """Discrete-event on-demand cloud (an ``ExecutionEnvironment``)."""

    eviction_error = "spot instance reclaimed"
    config_type = CloudConfig

    def __init__(
        self,
        simulator: Simulator,
        config: CloudConfig = CloudConfig(),
        *,
        streams: RngStreams | None = None,
        bus: EventBus | None = None,
        injector: "FaultInjector | None" = None,
        blacklist: "Blacklist | None" = None,
    ) -> None:
        """``injector`` layers a chaos
        :class:`~repro.resilience.faults.FaultPlan` (spot storms, bad
        AZs, stragglers) on top of the configured spot-reclaim model.
        ``blacklist`` records start failures like on the other
        platforms, but never excludes capacity: an instance that fails
        a start is terminated, so no streak outlives it."""
        self.config = config
        streams = streams or RngStreams(seed=0)
        boot_rng = streams.stream(f"{config.name}.boot")
        failure_rng = streams.stream(f"{config.name}.failures")
        self._instances: list[_Instance] = []
        self._warm: list[_Instance] = []  # booted and idle
        self._running = 0  # launched and not yet terminated
        self.peak_instances = 0

        def boot_wait(instance: _Instance) -> float | None:
            if instance.booted:
                return None  # warm pool: the payload starts at once
            return config.dispatch_latency_s + bounded_lognormal(
                boot_rng,
                config.boot_mean_s,
                config.boot_sigma,
                high=config.boot_max_s,
            )

        super().__init__(
            simulator,
            bus=bus,
            injector=injector,
            blacklist=blacklist,
            wait=boot_wait,
            # Setup: none — the machine image is pre-baked. Hazard: spot
            # reclaim only; a baked image has no misconfigured nodes, so
            # there is never a native start-failure draw.
            eviction=partial(
                config.failures.sample_eviction_time, failure_rng
            ),
        )

    # -- accounting -------------------------------------------------------

    @property
    def running_instances(self) -> int:
        return self._running

    @property
    def reclaim_count(self) -> int:
        return self.eviction_count

    def instance_seconds(self) -> float:
        """Raw provisioned seconds across all instances."""
        now = self.now
        return sum(inst.lifetime(now) for inst in self._instances)

    def billed_cost(self) -> float:
        """Dollars, rounding each instance up to the billing quantum."""
        quantum = self.config.billing_quantum_s
        hourly = self.config.instance_type.hourly_price * self.config.spot_discount
        now = self.now
        cost = 0.0
        for inst in self._instances:
            quanta = math.ceil(max(1e-9, inst.lifetime(now)) / quantum)
            cost += quanta * hourly * (quantum / 3600.0)
        return cost

    # -- slot source: warm pool first, else provision up to the cap -----

    def _acquire(self, a: Attempt) -> _Instance | None:
        if self._warm:
            instance = self._warm.pop()
            if instance.idle_event is not None:
                instance.idle_event.cancel()
                instance.idle_event = None
            return instance
        if self._running >= self.config.max_instances:
            return None  # no capacity; retry on next completion
        instance = _Instance(
            name=f"{self.config.name}-vm{len(self._instances) + 1:05d}",
            site=self.config.name,
            speed=self.config.instance_type.speed,
            launched_at=self.now,
        )
        self._instances.append(instance)
        self._running += 1
        self.peak_instances = max(self.peak_instances, self._running)
        return instance

    def _release(self, slot: _Instance, status: JobStatus) -> None:
        """Reclaimed and dead-on-arrival instances are gone; any other
        outcome idles the instance in the warm pool, to be terminated
        after ``idle_timeout_s`` unless a job takes it first."""
        if status in (JobStatus.EVICTED, JobStatus.FAILED):
            self._terminate(slot)
            return
        slot.booted = True
        self._warm.append(slot)

        def idle_out() -> None:
            self._warm.remove(slot)
            self._terminate(slot)

        slot.idle_event = self.simulator.schedule(
            self.config.idle_timeout_s, idle_out
        )

    def _terminate(self, instance: _Instance) -> None:
        instance.terminated_at = self.now
        self._running -= 1
