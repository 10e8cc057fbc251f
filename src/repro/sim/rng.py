"""Named, seeded random streams for the simulator.

Every stochastic component (queue waits, download/install times,
evictions, machine speeds) draws from its *own* stream derived from the
experiment seed and a stable name. Adding a new source of randomness
therefore never perturbs the draws of existing components — runs stay
reproducible and comparable across code changes.
"""

from __future__ import annotations

import hashlib
import math
import random

__all__ = ["RngStreams", "bounded_lognormal"]


class RngStreams:
    """A factory of independent ``random.Random`` streams.

    >>> streams = RngStreams(seed=42)
    >>> a = streams.stream("grid.wait")
    >>> b = streams.stream("grid.wait")
    >>> a.random() == b.random()  # same name -> same stream
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def stream(self, name: str) -> random.Random:
        """A fresh generator deterministically derived from (seed, name)."""
        digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))


def bounded_lognormal(
    rng: random.Random,
    mean: float,
    sigma: float,
    *,
    low: float = 0.0,
    high: float = math.inf,
) -> float:
    """A lognormal draw with the requested *arithmetic* mean, clamped.

    Heavy right tails model grid waiting and setup times well, but an
    unclamped tail occasionally produces absurd outliers that would make
    single-seed benchmark tables noisy; the clamp keeps draws physical.
    """
    if mean <= 0:
        raise ValueError("mean must be positive")
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0:
        value = mean
    else:
        mu = math.log(mean) - 0.5 * sigma * sigma
        value = rng.lognormvariate(mu, sigma)
    return min(max(value, low), high)
