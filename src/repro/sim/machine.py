"""Machine (execution slot) descriptions for the platform models.

A :class:`MachineSpec` is one schedulable slot: it has a relative speed
(payload runtime divides by it) and a software configuration advertised
as a ClassAd, which is how the OSG model expresses the paper's
"resources … may provide different software and system configurations".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.dagman.condor import ClassAd

__all__ = ["MachineSpec", "make_machines", "SOFTWARE_ATTRS"]

#: The software blast2cap3 needs pre-installed (paper §V-D).
SOFTWARE_ATTRS = ("has_python", "has_biopython", "has_cap3")


@dataclass(frozen=True)
class MachineSpec:
    """One slot: identity, relative speed, and software attributes."""

    name: str
    site: str
    speed: float = 1.0
    software: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise ValueError("speed must be positive")

    def classad(self) -> ClassAd:
        attrs = {"site": self.site, "speed": self.speed}
        for key in SOFTWARE_ATTRS:
            attrs[key] = key in self.software
        return ClassAd(name=self.name, attributes=attrs)


def make_machines(
    rng: random.Random,
    *,
    site: str,
    count: int,
    speed_mean: float = 1.0,
    speed_spread: float = 0.15,
    software_prob: float = 1.0,
) -> list[MachineSpec]:
    """Generate ``count`` slots with uniform speed jitter.

    ``software_prob`` is the per-package probability that a slot has
    each of the blast2cap3 prerequisites installed: 1.0 models the
    campus cluster ("the most frequently used libraries … are already
    set and maintained"), lower values model OSG heterogeneity.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if not 0.0 <= software_prob <= 1.0:
        raise ValueError("software_prob must be in [0, 1]")
    machines = []
    for i in range(count):
        speed = speed_mean * rng.uniform(1 - speed_spread, 1 + speed_spread)
        software = frozenset(
            attr for attr in SOFTWARE_ATTRS if rng.random() < software_prob
        )
        machines.append(
            MachineSpec(
                name=f"{site}-{i:04d}",
                site=site,
                speed=speed,
                software=software,
            )
        )
    return machines
