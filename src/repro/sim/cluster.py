"""The campus-cluster platform model (Sandhills).

Paper §IV-A and §VI characterise Sandhills as: heterogeneous AMD nodes
(1,440 cores over 44 nodes), allocation bounded by the research group's
share, a batch queue whose *per-job* waiting is "small and negligible"
once resources are allocated, software pre-installed, and **no
failures**. The model has exactly those levers:

* a ``group_slots`` cap on concurrent jobs (group-based allocation),
* a FIFO dispatch queue with a small lognormal per-job wait,
* per-node speed jitter (heterogeneous cluster),
* zero download/install time, zero failures, zero preemption.

Everything else — the queue, the attempt lifecycle, the
:class:`repro.dagman.scheduler.ExecutionEnvironment` surface DAGMan
drives — is the shared :class:`~repro.sim.platform.SimPlatform` kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.observe.bus import EventBus
from repro.sim.engine import Simulator
from repro.sim.machine import MachineSpec, make_machines
from repro.sim.platform import Attempt, SimPlatform
from repro.sim.rng import RngStreams, bounded_lognormal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.blacklist import Blacklist
    from repro.resilience.faults import FaultInjector

__all__ = ["CampusClusterConfig", "CampusCluster"]


@dataclass(frozen=True)
class CampusClusterConfig:
    """Sandhills-like parameters.

    ``group_slots`` bounds how many jobs the group's allocation runs at
    once. The default (500 of the cluster's 1,440 cores) is generous
    enough that the paper's n sweep never saturates it badly — matching
    the observation that per-job waiting on Sandhills stays "small and
    negligible" even at n=500. The wall-time plateau comes from the
    largest unsplittable cluster, not from slot starvation.
    """

    name: str = "sandhills"
    nodes: int = 44
    cores_per_node: int = 32  # ~1,440 AMD cores total
    group_slots: int = 500
    dispatch_latency_s: float = 2.0
    queue_wait_mean_s: float = 40.0
    queue_wait_sigma: float = 0.8
    queue_wait_max_s: float = 600.0
    speed_mean: float = 1.0
    speed_spread: float = 0.15

    def __post_init__(self) -> None:
        if self.group_slots < 1:
            raise ValueError("group_slots must be >= 1")
        if self.nodes < 1 or self.cores_per_node < 1:
            raise ValueError("nodes and cores_per_node must be >= 1")

    @property
    def total_cores(self) -> int:
        return self.nodes * self.cores_per_node


class CampusCluster(SimPlatform):
    """Discrete-event Sandhills model (an ``ExecutionEnvironment``)."""

    def __init__(
        self,
        simulator: Simulator,
        config: CampusClusterConfig = CampusClusterConfig(),
        *,
        streams: RngStreams | None = None,
        bus: EventBus | None = None,
        injector: "FaultInjector | None" = None,
        blacklist: "Blacklist | None" = None,
    ) -> None:
        """The calibrated Sandhills model is failure-free; ``injector``
        layers a chaos :class:`~repro.resilience.faults.FaultPlan` on
        top of it and ``blacklist`` excludes tripped nodes from the
        round-robin."""
        self.config = config
        streams = streams or RngStreams(seed=0)
        wait_rng = streams.stream(f"{config.name}.wait")
        machine_rng = streams.stream(f"{config.name}.machines")
        # One spec per node; slots cycle over nodes (cores are identical
        # within a node, so per-node speed is what matters).
        self._machines: list[MachineSpec] = make_machines(
            machine_rng,
            site=config.name,
            count=config.nodes,
            speed_mean=config.speed_mean,
            speed_spread=config.speed_spread,
            software_prob=1.0,  # campus software stack is maintained
        )
        self._next_machine = 0

        def queue_wait(_node: MachineSpec) -> float:
            return config.dispatch_latency_s + bounded_lognormal(
                wait_rng,
                config.queue_wait_mean_s,
                config.queue_wait_sigma,
                high=config.queue_wait_max_s,
            )

        super().__init__(
            simulator,
            bus=bus,
            injector=injector,
            blacklist=blacklist,
            # Waiting: "small and negligible" once resources are
            # allocated — and the allocation is the group's from the
            # moment the batch system matches the job.
            wait=queue_wait,
            busy_from_match=True,
            # Setup: none ("libraries ... are already set and
            # maintained"). Hazard: none — NO_FAILURES, "we encountered
            # no failures" — so no ``failures`` stream is ever drawn.
        )

    @property
    def busy_slots(self) -> int:
        return self._occupied

    @property
    def capacity(self) -> int:
        """Concurrent-job ceiling (what the service layer sizes quotas
        by): the group allocation, not the whole cluster."""
        return self.config.group_slots

    # -- slot source: round-robin over the group's fixed allocation -----

    def _acquire(self, a: Attempt) -> MachineSpec | None:
        """Next round-robin node that isn't blacklisted; None when the
        group allocation is full or every node is blocked (the queue
        parks until a completion or the earliest block's expiry). The
        kernel's occupancy count is the whole allocation state, so there
        is nothing to give back on release."""
        if self._occupied >= self.config.group_slots:
            return None
        machines = self._machines
        blacklist = self.blacklist
        for _ in range(len(machines)):
            machine = machines[self._next_machine % len(machines)]
            self._next_machine += 1
            if blacklist is None or not blacklist.is_blocked(
                machine.name, machine.site, now=self.now
            ):
                return machine
        self._blocks_excluded = True
        return None
