"""The circuit breaker: stop feeding jobs to nodes that keep killing them.

The paper's §VI-A attributes OSG start failures to "misconfigured
nodes" — and a misconfigured node fails *every* job it receives, so
retrying onto it burns a ``RETRY`` per bounce. A :class:`Blacklist`
watches start failures per machine (and per site) and, past a
threshold, tells the platform to stop matching jobs there — condor's
``MaxJobRetirementTime``/startd-cron health checks, reduced to their
scheduling effect.

Cooldown semantics: with ``cooldown_s`` set, a blocked machine is
released after that long (half-open circuit — one more chance); without
it the block is permanent for the run. A success on a machine resets
its failure streak.

Clock-agnostic like the scheduler: every method takes ``now`` from the
caller, so one implementation serves virtual and wall clocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.observe.bus import EventBus
from repro.observe.events import EventKind, RunEvent

__all__ = ["BlacklistPolicy", "Blacklist"]


@dataclass(frozen=True)
class BlacklistPolicy:
    """When the breaker trips.

    ``threshold`` consecutive start failures block a machine;
    ``site_threshold`` (when set) consecutive start failures across a
    whole site block the site — the coarse breaker for outages, where
    every node of the site fails arrivals and per-machine counting
    would trip one breaker per node.
    """

    threshold: int = 3
    cooldown_s: float | None = None
    site_threshold: int | None = None

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ValueError("threshold must be >= 1")
        if self.cooldown_s is not None and self.cooldown_s <= 0:
            raise ValueError("cooldown_s must be positive (or None)")
        if self.site_threshold is not None and self.site_threshold < 1:
            raise ValueError("site_threshold must be >= 1 (or None)")


class Blacklist:
    """Start-failure circuit breaker over machines and sites."""

    def __init__(
        self, policy: BlacklistPolicy = BlacklistPolicy(),
        *, bus: EventBus | None = None,
    ) -> None:
        self.policy = policy
        self.bus = bus
        self._machine_streak: dict[str, int] = {}
        self._site_streak: dict[str, int] = {}
        #: machine/site -> expiry time (inf = permanent)
        self._blocked_machines: dict[str, float] = {}
        self._blocked_sites: dict[str, float] = {}
        self.trips = 0

    # -- recording ------------------------------------------------------

    def record_start_failure(
        self, machine: str, site: str, *, now: float
    ) -> bool:
        """Count one start failure; returns True when it tripped a
        (machine or site) breaker."""
        tripped = False
        streak = self._machine_streak.get(machine, 0) + 1
        self._machine_streak[machine] = streak
        if (
            streak >= self.policy.threshold
            and machine not in self._blocked_machines
        ):
            self._block(self._blocked_machines, machine, "machine",
                        site=site, now=now, streak=streak)
            tripped = True
        if self.policy.site_threshold is not None:
            site_streak = self._site_streak.get(site, 0) + 1
            self._site_streak[site] = site_streak
            if (
                site_streak >= self.policy.site_threshold
                and site not in self._blocked_sites
            ):
                self._block(self._blocked_sites, site, "site",
                            site=site, now=now, streak=site_streak)
                tripped = True
        return tripped

    def record_success(self, machine: str, site: str) -> None:
        """A healthy completion resets the failure streaks."""
        self._machine_streak.pop(machine, None)
        self._site_streak.pop(site, None)

    # -- queries --------------------------------------------------------

    @property
    def has_blocks(self) -> bool:
        """Is any block recorded at all (lapsed ones included)? False
        means :meth:`is_blocked` is False for everything, unasked."""
        return bool(self._blocked_machines or self._blocked_sites)

    def is_blocked(self, machine: str, site: str, *, now: float) -> bool:
        return self._check(self._blocked_machines, machine, now) or (
            self._check(self._blocked_sites, site, now)
        )

    def next_expiry(self, *, now: float) -> float | None:
        """Earliest future time a block lifts (None when nothing will)."""
        expiries = [
            t
            for t in (
                list(self._blocked_machines.values())
                + list(self._blocked_sites.values())
            )
            if now < t < math.inf
        ]
        return min(expiries) if expiries else None

    # -- persistence ----------------------------------------------------

    def to_json(self) -> dict:
        """Serialize policy, streaks, and blocks for a journal snapshot.

        Infinite (permanent) block expiries become ``None`` so the
        payload is plain JSON; :meth:`from_json` restores them.
        """

        def _expiries(table: dict[str, float]) -> dict[str, float | None]:
            return {
                k: (None if math.isinf(t) else t)
                for k, t in sorted(table.items())
            }

        return {
            "policy": {
                "threshold": self.policy.threshold,
                "cooldown_s": self.policy.cooldown_s,
                "site_threshold": self.policy.site_threshold,
            },
            "machine_streak": dict(sorted(self._machine_streak.items())),
            "site_streak": dict(sorted(self._site_streak.items())),
            "blocked_machines": _expiries(self._blocked_machines),
            "blocked_sites": _expiries(self._blocked_sites),
            "trips": self.trips,
        }

    @classmethod
    def from_json(
        cls, data: dict, *, bus: EventBus | None = None
    ) -> "Blacklist":
        """Rebuild a blacklist from :meth:`to_json` output.

        This is the cross-process half of ``run_with_recovery``: without
        it a blacklisted machine gets a fresh streak after a manager
        restart and burns another ``threshold`` jobs re-discovering the
        same misconfigured node.
        """
        policy_data = data.get("policy", {})
        blacklist = cls(
            BlacklistPolicy(
                threshold=int(policy_data.get("threshold", 3)),
                cooldown_s=policy_data.get("cooldown_s"),
                site_threshold=policy_data.get("site_threshold"),
            ),
            bus=bus,
        )
        blacklist._machine_streak = {
            str(k): int(v)
            for k, v in data.get("machine_streak", {}).items()
        }
        blacklist._site_streak = {
            str(k): int(v) for k, v in data.get("site_streak", {}).items()
        }

        def _restore(raw: dict) -> dict[str, float]:
            return {
                str(k): (math.inf if t is None else float(t))
                for k, t in raw.items()
            }

        blacklist._blocked_machines = _restore(
            data.get("blocked_machines", {})
        )
        blacklist._blocked_sites = _restore(data.get("blocked_sites", {}))
        blacklist.trips = int(data.get("trips", 0))
        return blacklist

    def restore_block(
        self, scope: str, name: str, *, until: float | None
    ) -> None:
        """Re-apply one journaled ``blacklist.add`` record (WAL replay
        of blocks recorded after the last snapshot). Silent: no event
        emission, no trip accounting — the original block already did
        both."""
        table = (
            self._blocked_sites if scope == "site" else self._blocked_machines
        )
        table[name] = math.inf if until is None else float(until)

    # -- internals ------------------------------------------------------

    def _check(self, table: dict[str, float], key: str, now: float) -> bool:
        expiry = table.get(key)
        if expiry is None:
            return False
        if now >= expiry:
            # Half-open: the block lifts; the streak restarts from zero.
            del table[key]
            streaks = (
                self._machine_streak
                if table is self._blocked_machines
                else self._site_streak
            )
            streaks.pop(key, None)
            return False
        return True

    def _block(
        self, table: dict[str, float], key: str, scope: str,
        *, site: str, now: float, streak: int,
    ) -> None:
        cooldown = self.policy.cooldown_s
        expiry = math.inf if cooldown is None else now + cooldown
        table[key] = expiry
        self.trips += 1
        if self.bus is not None:
            self.bus.emit(
                RunEvent(
                    EventKind.BLACKLIST,
                    now,
                    site=site,
                    machine=key if scope == "machine" else None,
                    detail={
                        "scope": scope,
                        "name": key,
                        "streak": streak,
                        "until": None if math.isinf(expiry) else expiry,
                    },
                )
            )
