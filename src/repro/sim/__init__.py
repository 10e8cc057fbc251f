"""Discrete-event simulation of workflow execution platforms.

The paper's numbers come from real runs on Sandhills (a campus cluster)
and the Open Science Grid. We reproduce the *mechanics* that the paper
identifies as decisive — dedicated-after-allocation slots on the campus
cluster versus opportunistic slots, per-job download/install overhead,
preemption and retries on OSG — in a deterministic discrete-event
simulator:

* :mod:`repro.sim.engine` — event queue, virtual clock, process helpers,
* :mod:`repro.sim.rng` — named, seeded random streams,
* :mod:`repro.sim.machine` — node/slot descriptions,
* :mod:`repro.sim.failures` — eviction and failure sampling,
* :mod:`repro.sim.matchmaker` — ClassAd matchmaking over free slots,
* :mod:`repro.sim.platform` — the platform kernel: queue, dispatch and
  the attempt lifecycle, parameterised by four policies (slot source,
  wait model, setup cost, preemption hazard),
* :mod:`repro.sim.cluster` — the Sandhills-like campus cluster,
* :mod:`repro.sim.grid` — the OSG-like opportunistic grid,
* :mod:`repro.sim.cloud` — the paper's future work: an EC2-style cloud.

The last three are the kernel plus their policies and nothing else;
:data:`PLATFORMS` is the one place a platform name becomes a class.
"""

from typing import Callable, Mapping

from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.platform import SimPlatform
from repro.sim.cluster import CampusCluster, CampusClusterConfig
from repro.sim.grid import OpportunisticGrid, GridConfig
from repro.sim.cloud import CloudPlatform, CloudConfig

#: Platform name → class. All three share one constructor shape:
#: ``cls(simulator, [config], *, streams, bus, injector, blacklist)``,
#: ``config`` an instance of ``cls.config_type``.
PLATFORMS: Mapping[str, Callable[..., SimPlatform]] = {
    "sandhills": CampusCluster,
    "cluster": CampusCluster,
    "osg": OpportunisticGrid,
    "grid": OpportunisticGrid,
    "cloud": CloudPlatform,
}

__all__ = [
    "Simulator",
    "RngStreams",
    "PLATFORMS",
    "CampusClusterConfig",
    "GridConfig",
    "CloudPlatform",
    "CloudConfig",
]
