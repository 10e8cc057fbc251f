"""Composable fault injection — chaos testing for every backend.

:mod:`repro.sim.failures` models the *calibrated* OSG regime (one
Bernoulli start failure + one exponential eviction hazard, wired into
the grid simulator only). This module generalises it into a **fault
plan**: a declarative list of fault specs that an injector evaluates
per attempt, on *any* platform — the three simulators consult the
injector at arrival/exec time, and the local backend wraps real
payloads (:class:`ChaosPayload`) so the same plan breaks real runs.

The taxonomy covers the paper's observed failure modes and the ones
the resilience layer must survive:

* :class:`StartFailure` — Bernoulli dead-on-arrival (misconfigured
  nodes, §VI-A), optionally scoped to sites;
* :class:`Eviction` — extra exponential preemption hazard on top of
  the platform's own;
* :class:`Slowdown` — straggler: the payload runs ``factor``× longer;
* :class:`Hang` — the payload never finishes (only a timeout or an
  eviction can end the attempt);
* :class:`SiteOutage` — every arrival at ``site`` during the window
  dies on arrival (a downed cluster / network partition);
* :class:`BadNode` — named machines always fail jobs on arrival (the
  paper's "misconfigured nodes", deterministically);
* :class:`AttemptFault` — scripted: fail/evict/hang/slow specific
  submissions of one job, counted 1-based **across rescue rounds** —
  the deterministic primitive the cross-backend tests are built on.

Decisions are drawn from one ``random.Random`` owned by the injector —
derive it from a named stream (``RngStreams(seed).stream("faults")``)
and existing draws never shift, per the determinism contract.

Import discipline: this module depends on ``repro.dagman`` and
``repro.observe.bus``/``.events`` only — the simulators import *it*,
never the other way around.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.dagman.dag import DagJob
from repro.dagman.events import JobStatus
from repro.observe.bus import EventBus
from repro.observe.events import EventKind, RunEvent

__all__ = [
    "StartFailure",
    "Eviction",
    "Slowdown",
    "Hang",
    "SiteOutage",
    "BadNode",
    "AttemptFault",
    "CrashFault",
    "CrashInjected",
    "FaultPlan",
    "FaultDecision",
    "FaultInjector",
    "FaultInjected",
    "ChaosPayload",
    "resolve_exec",
]


# -- fault specs --------------------------------------------------------


@dataclass(frozen=True)
class StartFailure:
    """Bernoulli dead-on-arrival, optionally scoped to ``sites``."""

    prob: float
    sites: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError("prob must be in [0, 1]")


@dataclass(frozen=True)
class Eviction:
    """Extra exponential eviction hazard (per second of execution)."""

    rate_per_s: float
    sites: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.rate_per_s < 0:
            raise ValueError("rate_per_s must be >= 0")


@dataclass(frozen=True)
class Slowdown:
    """With probability ``prob``, the payload runs ``factor``× longer."""

    prob: float
    factor: float
    sites: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError("prob must be in [0, 1]")
        if self.factor < 1.0:
            raise ValueError("factor must be >= 1 (a slowdown)")


@dataclass(frozen=True)
class Hang:
    """With probability ``prob``, the payload never finishes."""

    prob: float
    sites: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError("prob must be in [0, 1]")


@dataclass(frozen=True)
class SiteOutage:
    """Arrivals at ``site`` die on arrival during [start_s, end_s)."""

    site: str
    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        if self.end_s <= self.start_s:
            raise ValueError("outage window must have end_s > start_s")


@dataclass(frozen=True)
class BadNode:
    """Named machines that always fail jobs on arrival."""

    machines: tuple[str, ...]


@dataclass(frozen=True)
class AttemptFault:
    """Scripted fault on specific submissions of one job.

    ``occurrences`` are 1-based and counted per job name across the
    whole injector lifetime — rescue rounds restart DAGMan's attempt
    numbering, this counter does not, so "fail the first submission of
    job X" means exactly that even under ``run_with_recovery``.
    """

    job: str
    occurrences: tuple[int, ...] = (1,)
    mode: str = "fail"  # fail | evict | hang | slow

    def __post_init__(self) -> None:
        if self.mode not in ("fail", "evict", "hang", "slow"):
            raise ValueError(f"unknown fault mode: {self.mode!r}")


FaultSpec = (
    StartFailure | Eviction | Slowdown | Hang | SiteOutage | BadNode
    | AttemptFault
)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of fault specs."""

    faults: tuple[FaultSpec, ...] = ()


# -- per-attempt decision ----------------------------------------------


@dataclass(frozen=True)
class FaultDecision:
    """What the injector decided for one attempt (evaluated once, at
    arrival)."""

    dead_on_arrival: str | None = None  # error message when DOA
    slowdown_factor: float = 1.0
    hang: bool = False
    evict_after: float | None = None  # seconds into execution
    injected: tuple[str, ...] = ()  # names of the faults that fired


#: The no-op decision (shared; FaultDecision is frozen).
NO_FAULTS = FaultDecision()


class FaultInjector:
    """Evaluates a :class:`FaultPlan` per attempt, deterministically.

    One injector serves one run (or one ``run_with_recovery`` sequence):
    it owns the RNG and the per-job submission counters the scripted
    :class:`AttemptFault` specs key on. Pass the same instance to the
    platform and (via :meth:`wrap_local`) to local payload binding.
    """

    def __init__(
        self,
        plan: FaultPlan,
        *,
        rng: random.Random | None = None,
        bus: EventBus | None = None,
    ) -> None:
        self.plan = plan
        self.rng = rng or random.Random(0)
        self.bus = bus
        self._seen: dict[str, int] = {}
        self.fired: int = 0

    def _applies(self, sites: tuple[str, ...] | None, site: str) -> bool:
        return sites is None or site in sites

    def decide(
        self,
        job: DagJob,
        *,
        site: str,
        machine: str,
        attempt: int,
        now: float,
    ) -> FaultDecision:
        """One decision per arrival. Emits a ``fault.injected`` event
        for every spec that fired."""
        occurrence = self._seen.get(job.name, 0) + 1
        self._seen[job.name] = occurrence

        doa: str | None = None
        slowdown = 1.0
        hang = False
        evict_after: float | None = None
        injected: list[str] = []

        for spec in self.plan.faults:
            if isinstance(spec, SiteOutage):
                if spec.site == site and spec.start_s <= now < spec.end_s:
                    doa = doa or (
                        f"site {site!r} outage "
                        f"[{spec.start_s:g}, {spec.end_s:g})"
                    )
                    injected.append("site_outage")
            elif isinstance(spec, BadNode):
                if machine in spec.machines:
                    doa = doa or f"bad node {machine!r}"
                    injected.append("bad_node")
            elif isinstance(spec, StartFailure):
                # Always draw, so one spec firing never shifts the
                # draws the next spec sees.
                fired = self.rng.random() < spec.prob
                if fired and self._applies(spec.sites, site):
                    doa = doa or "injected start failure"
                    injected.append("start_failure")
            elif isinstance(spec, Eviction):
                if spec.rate_per_s > 0:
                    sample = self.rng.expovariate(spec.rate_per_s)
                    if self._applies(spec.sites, site):
                        evict_after = (
                            sample
                            if evict_after is None
                            else min(evict_after, sample)
                        )
                        injected.append("eviction")
            elif isinstance(spec, Slowdown):
                fired = self.rng.random() < spec.prob
                if fired and self._applies(spec.sites, site):
                    slowdown *= spec.factor
                    injected.append("slowdown")
            elif isinstance(spec, Hang):
                fired = self.rng.random() < spec.prob
                if fired and self._applies(spec.sites, site):
                    hang = True
                    injected.append("hang")
            elif isinstance(spec, AttemptFault):
                if spec.job == job.name and occurrence in spec.occurrences:
                    injected.append(f"attempt_{spec.mode}")
                    if spec.mode == "fail":
                        doa = doa or (
                            f"scripted failure (submission {occurrence})"
                        )
                    elif spec.mode == "evict":
                        evict_after = 0.0
                    elif spec.mode == "hang":
                        hang = True
                    elif spec.mode == "slow":
                        slowdown *= 4.0

        decision = FaultDecision(
            dead_on_arrival=doa,
            slowdown_factor=slowdown,
            hang=hang,
            evict_after=evict_after,
            injected=tuple(injected),
        )
        if injected:
            self.fired += len(injected)
            self._emit(decision, job, site=site, machine=machine,
                       attempt=attempt, now=now)
        return decision

    def wrap_local(
        self, job: DagJob, *, attempt: int, now: float,
        hang_sleep_s: float = 5.0,
    ) -> Callable[[], Any] | None:
        """Decide for a local attempt and wrap its payload accordingly.

        Returns the (possibly wrapped) payload, or ``None`` when the
        job has none. ``hang_sleep_s`` stands in for "forever" on the
        real clock — long enough that only the watchdog ends the
        attempt, short enough that a stuck worker thread eventually
        unblocks interpreter shutdown.
        """
        if job.payload is None:
            return None
        decision = self.decide(
            job, site="local", machine="local", attempt=attempt, now=now
        )
        if decision is NO_FAULTS or not decision.injected:
            return job.payload
        return ChaosPayload(
            job.payload,
            dead_on_arrival=decision.dead_on_arrival,
            hang_s=hang_sleep_s if decision.hang else None,
            # Local payloads have real durations we cannot scale without
            # running them; approximate a slowdown with a pre-sleep.
            delay_s=(
                (decision.slowdown_factor - 1.0)
                if decision.slowdown_factor > 1.0
                else 0.0
            ),
        )

    def _emit(self, decision: FaultDecision, job: DagJob, *, site: str,
              machine: str, attempt: int, now: float) -> None:
        if self.bus is None:
            return
        for name in decision.injected:
            self.bus.emit(
                RunEvent(
                    EventKind.FAULT,
                    now,
                    job_name=job.name,
                    transformation=job.transformation,
                    site=site,
                    machine=machine,
                    attempt=attempt,
                    detail={"fault": name},
                )
            )


class FaultInjected(RuntimeError):
    """Raised inside a worker by a :class:`ChaosPayload` DOA fault."""


class CrashInjected(RuntimeError):
    """Raised by a :class:`CrashFault` in ``raise`` mode — the
    in-process stand-in for the manager dying mid-journal-write."""


@dataclass
class CrashFault:
    """Kill the *manager* at the Nth write-ahead-journal write.

    Where every other fault in this module breaks a job, this one
    breaks the workflow manager itself — the failure mode
    :mod:`repro.resilience.journal` exists to survive. The journal
    consults the fault before each record append and after each
    snapshot lands; when the Nth write (1-based, counted across this
    fault's lifetime) is a record, only a ``torn_fraction`` prefix of
    its bytes hits the file (a simulated torn write), and when it is a
    snapshot, the manager dies before its next record. Then
    :meth:`fire` either raises
    :class:`CrashInjected` (``mode="raise"``, for in-process property
    tests that sweep every crash point) or SIGKILLs the process
    (``mode="kill"``, for end-to-end subprocess tests and the
    ``repro-run --crash-at-record`` harness — a real unclean death, no
    atexit handlers, no flushes).
    """

    at_record: int
    mode: str = "raise"
    torn_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.at_record < 1:
            raise ValueError("at_record is 1-based and must be >= 1")
        if self.mode not in ("raise", "kill"):
            raise ValueError("mode must be 'raise' or 'kill'")
        if not 0.0 <= self.torn_fraction < 1.0:
            raise ValueError("torn_fraction must be in [0, 1)")
        self._seen = 0

    def note_record(self) -> bool:
        """Count one journal write (a record about to be appended, or a
        snapshot just landed); True = crash now."""
        self._seen += 1
        return self._seen == self.at_record

    def fire(self) -> None:
        """Die. ``kill`` mode never returns; ``raise`` mode raises."""
        if self.mode == "kill":  # pragma: no cover - process suicide
            import os
            import signal

            os.kill(os.getpid(), signal.SIGKILL)
        raise CrashInjected(
            f"injected manager crash at journal record {self.at_record}"
        )


@dataclass
class ChaosPayload:
    """Picklable payload wrapper carrying a pre-drawn fault decision.

    The decision is made on the driver (where the injector's RNG
    lives); the wrapper is pure data plus the original payload, so the
    process-pool backend can ship it to workers like any
    :class:`~repro.execution.payloads.TaskCall`.
    """

    payload: Callable[[], Any]
    dead_on_arrival: str | None = None
    hang_s: float | None = None
    delay_s: float = 0.0
    sleeper: Callable[[float], None] = field(default=time.sleep, repr=False)

    def __call__(self) -> Any:
        if self.dead_on_arrival is not None:
            raise FaultInjected(self.dead_on_arrival)
        if self.hang_s is not None:
            self.sleeper(self.hang_s)
            raise FaultInjected(f"hung for {self.hang_s:g}s")
        if self.delay_s > 0:
            self.sleeper(self.delay_s)
        return self.payload()


def resolve_exec(
    duration: float,
    *,
    evict_after: float | None = None,
    timeout_s: float | None = None,
) -> tuple[float, JobStatus, str | None]:
    """Race the payload against eviction and the per-job timeout.

    ``duration`` may be ``inf`` (a hung payload). Returns ``(delay,
    status, error)`` where ``delay`` is seconds until the attempt's
    terminal moment — ``inf`` means *nothing* ends it (a hang with
    neither timeout nor eviction: the attempt wedges, which is exactly
    the failure mode ``timeout_s`` exists to prevent). Ties go to the
    timeout (the watchdog kills at the deadline), then eviction.
    """
    timeout = math.inf if timeout_s is None else timeout_s
    evict = math.inf if evict_after is None else evict_after
    if duration <= timeout and duration <= evict and not math.isinf(duration):
        return duration, JobStatus.SUCCEEDED, None
    if timeout <= evict:
        if math.isinf(timeout):
            return math.inf, JobStatus.FAILED, "attempt never completes"
        return (
            timeout,
            JobStatus.TIMEOUT,
            f"killed after exceeding timeout of {timeout:g}s",
        )
    return evict, JobStatus.EVICTED, "preempted by resource owner"
