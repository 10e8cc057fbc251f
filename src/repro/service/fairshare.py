"""Deterministic weighted fair-share: stride scheduling.

Classic stride scheduling (Waldspurger & Weihl, OSDI '95): each tenant
holds a *pass* value advanced by ``stride = K / weight`` every time it
is served; the scheduler always serves the eligible tenant with the
smallest pass. Over any long window, services received converge to the
weight ratio, and the choice is a pure function of the service history
— no RNG, so simulated runs stay bit-reproducible (the same property
every other component in this repo preserves).

Two refinements the service needs:

* **strict priority tiers** — selection considers only the highest
  tier with an eligible tenant; fair-share applies within the tier;
* **no banked credit while idle** — a tenant rejoining after an idle
  period restarts at the current minimum pass (its pass is clamped
  up), so it cannot starve everyone else by cashing in time it spent
  with nothing to run. This is the standard lag-bounding fix; without
  it a long-idle tenant would monopolize the pool on return.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["StrideScheduler"]

#: Stride numerator. Any constant works (passes are compared, never
#: interpreted); a large one keeps per-serve increments well away from
#: float granularity even for large weights.
_STRIDE_K = 1 << 20


class StrideScheduler:
    """Weighted round-robin by pass values, with priority tiers."""

    def __init__(self) -> None:
        self._stride: dict[str, float] = {}
        self._priority: dict[str, int] = {}
        self._pass: dict[str, float] = {}
        # Global virtual time: the highest pass any served tenant held
        # at serve time. Monotone; rejoining tenants are clamped up to
        # it (one cheap serve, then they compete at the current time).
        self._vtime = 0.0

    def register(self, name: str, weight: float, priority: int = 0) -> None:
        """Add (or retune) a tenant. Re-registering keeps its pass."""
        if weight <= 0:
            raise ValueError("weight must be positive")
        self._stride[name] = _STRIDE_K / weight
        self._priority[name] = priority
        self._pass.setdefault(name, 0.0)

    def select(self, eligible: Iterable[str]) -> str | None:
        """The tenant to serve next, among ``eligible`` names.

        Highest priority tier first; smallest pass within the tier;
        name as the final tie-break (total order → determinism).
        Unknown names are ignored. Does not advance any pass — pair
        with :meth:`charge` when the selected tenant is actually
        served.
        """
        best: tuple[int, float, str] | None = None
        for name in eligible:
            if name not in self._stride:
                continue
            key = (-self._priority[name], self._pass[name], name)
            if best is None or key < best:
                best = key
        return best[2] if best is not None else None

    def charge(self, name: str) -> None:
        """Record one unit of service: advance the tenant's pass.

        The pass is first clamped up to the global virtual time — the
        no-banked-credit rule (see module docstring) — so a tenant
        idle for a long stretch gets at most one cheap serve before it
        competes at the current time.
        """
        self._vtime = max(self._vtime, self._pass[name])
        self._pass[name] = self._vtime + self._stride[name]
