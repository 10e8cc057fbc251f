"""Online anomaly detection over the lifecycle event stream.

``repro-report`` explains a run *after* it finishes; this module
watches it *while* it runs. An :class:`AnomalyMonitor` subscribes to
the :class:`~repro.observe.bus.EventBus`, feeds every event through a
small catalog of streaming detectors, and re-emits each finding as an
``anomaly.*`` event on the same bus — so the live status view
(:mod:`repro.observe.status` renders an ALERTS pane), the event log,
and any tenant dashboard all see findings the moment they fire, not at
post-mortem time.

Detector catalog:

=========================  =========================================
detector                   fires when …
=========================  =========================================
:class:`StragglerDetector` a *still-running* attempt exceeds
                           ``factor ×`` its transformation's rolling
                           mean exec time (the planner's expected
                           runtime — stamped on ``job.submit`` as
                           ``expected_s`` — seeds the baseline, and
                           the :data:`~repro.observe.profile.
                           MODEL_COEFFICIENTS` CPU fractions annotate
                           the alert with how compute-bound the
                           transformation is modelled to be)
:class:`QueueWaitDetector` a submit→match wait blows past the site's
                           rolling baseline (queue depth attached)
:class:`BlacklistStormDetector`
                           the circuit breaker fires repeatedly
                           inside a sliding window — a site, not a
                           machine, is probably sick
:class:`SloBurnDetector`   too many of a tenant's recent workflows
                           missed the turnaround target (burn rate
                           over the PR 9 SLO histograms' stream)
=========================  =========================================

All detectors are deterministic, allocation-light, and advance purely
on event timestamps (virtual time under the simulators) — no wall
clock, no threads. The monitor ignores its own ``anomaly.*`` output on
input (and the span tracer never emits), so tracer and monitor can
share one bus without feedback loops.
"""

from __future__ import annotations

import heapq
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Deque, Mapping, Protocol

from repro.observe.bus import EventBus
from repro.observe.events import EventKind, RunEvent
from repro.observe.profile import MODEL_COEFFICIENTS

__all__ = [
    "AnomalyMonitor",
    "BlacklistStormDetector",
    "QueueWaitDetector",
    "RollingStats",
    "SloBurnDetector",
    "StragglerDetector",
]


def _cpu_fraction(transformation: str | None) -> float | None:
    """Modelled CPU share (user+sys) for a transformation stem, from
    the kickstart profile model — context for straggler triage."""
    if not transformation:
        return None
    key = transformation
    if key not in MODEL_COEFFICIENTS:
        for stem in MODEL_COEFFICIENTS:
            if key.startswith(stem):
                key = stem
                break
    coeffs = MODEL_COEFFICIENTS.get(key)
    if coeffs is None:
        return None
    return round(coeffs[0] + coeffs[1], 4)


@dataclass
class RollingStats:
    """Streaming mean, optionally seeded with a prior observation so
    detection works from the very first event."""

    count: int = 0
    mean: float = 0.0

    def seed(self, prior: float, weight: int = 1) -> None:
        """Treat ``prior`` as ``weight`` pre-observations (idempotent
        after real data arrives — only seeds an empty baseline)."""
        if self.count == 0 and weight > 0:
            self.count = weight
            self.mean = prior

    def observe(self, value: float) -> None:
        self.count += 1
        self.mean += (value - self.mean) / self.count


class StragglerDetector:
    """Flag attempts that run far past their transformation baseline.

    On ``job.exec_start`` each attempt gets a deadline —
    ``max(min_s, factor × baseline mean)`` past its start — pushed on
    a min-heap. Every event's timestamp advances the clock; deadlines
    that expire while their attempt is *still running* fire one
    ``anomaly.straggler`` each (within the attempt, not after it).
    Successful completions feed the baseline; the planner's
    ``expected_s`` (stamped on submit) seeds it.
    """

    def __init__(self, *, factor: float = 3.0, min_s: float = 1.0) -> None:
        self.factor = factor
        self.min_s = min_s
        self.baselines: dict[str, RollingStats] = {}
        self._running: dict[tuple[str, int], RunEvent] = {}
        self._flagged: set[tuple[str, int]] = set()
        self._deadlines: list[tuple[float, str, int]] = []

    def _baseline(self, transformation: str | None) -> RollingStats:
        key = transformation or "?"
        stats = self.baselines.get(key)
        if stats is None:
            stats = self.baselines[key] = RollingStats()
        return stats

    def update(self, event: RunEvent) -> list[RunEvent]:
        alerts = self._expire(event.time)
        kind = event.kind
        if kind is EventKind.SUBMIT:
            expected = event.detail.get("expected_s")
            if isinstance(expected, (int, float)) and expected > 0:
                self._baseline(event.transformation).seed(float(expected))
        elif kind is EventKind.EXEC_START and event.job_name is not None:
            key = (event.job_name, event.attempt or 1)
            self._running[key] = event
            stats = self._baseline(event.transformation)
            if stats.count > 0:
                deadline = event.time + max(
                    self.min_s, self.factor * stats.mean
                )
                heapq.heappush(self._deadlines, (deadline, *key))
        elif kind in (EventKind.FINISH, EventKind.EVICT):
            key = (event.job_name or "", event.attempt or 1)
            self._running.pop(key, None)
            self._flagged.discard(key)
            record = event.record
            if record is not None and record.status.is_success:
                self._baseline(event.transformation).observe(
                    record.kickstart_time
                )
        return alerts

    def _expire(self, now: float) -> list[RunEvent]:
        alerts: list[RunEvent] = []
        while self._deadlines and self._deadlines[0][0] <= now:
            deadline, job, attempt = heapq.heappop(self._deadlines)
            key = (job, attempt)
            started = self._running.get(key)
            if started is None or key in self._flagged:
                continue
            self._flagged.add(key)
            stats = self._baseline(started.transformation)
            elapsed = now - started.time
            alerts.append(
                RunEvent(
                    EventKind.ANOMALY_STRAGGLER,
                    now,
                    job_name=job,
                    transformation=started.transformation,
                    site=started.site,
                    machine=started.machine,
                    attempt=attempt,
                    detail={
                        "elapsed_s": round(elapsed, 3),
                        "expected_s": round(stats.mean, 3),
                        "factor": self.factor,
                        "deadline_s": round(deadline, 3),
                        "modelled_cpu_frac": _cpu_fraction(
                            started.transformation
                        ),
                    },
                )
            )
        return alerts


class QueueWaitDetector:
    """Flag submit→match waits far above the site's rolling baseline."""

    def __init__(
        self,
        *,
        factor: float = 3.0,
        min_s: float = 60.0,
        min_samples: int = 5,
    ) -> None:
        self.factor = factor
        self.min_s = min_s
        self.min_samples = min_samples
        self.baselines: dict[str, RollingStats] = {}
        self._pending: dict[tuple[str, int], float] = {}

    def update(self, event: RunEvent) -> list[RunEvent]:
        kind = event.kind
        if kind is EventKind.SUBMIT and event.job_name is not None:
            self._pending[(event.job_name, event.attempt or 1)] = event.time
            return []
        if kind is not EventKind.MATCH or event.job_name is None:
            return []
        submitted = self._pending.pop(
            (event.job_name, event.attempt or 1), None
        )
        if submitted is None:
            return []
        wait = event.time - submitted
        site = event.site or "?"
        stats = self.baselines.setdefault(site, RollingStats())
        threshold = max(self.min_s, self.factor * stats.mean)
        fire = stats.count >= self.min_samples and wait > threshold
        stats.observe(wait)
        if not fire:
            return []
        detail: dict[str, object] = {
            "wait_s": round(wait, 3),
            "baseline_s": round(stats.mean, 3),
            "factor": self.factor,
        }
        if "queue_depth" in event.detail:
            detail["queue_depth"] = event.detail["queue_depth"]
        return [
            RunEvent(
                EventKind.ANOMALY_QUEUE_WAIT,
                event.time,
                job_name=event.job_name,
                transformation=event.transformation,
                site=event.site,
                machine=event.machine,
                attempt=event.attempt,
                detail=detail,
            )
        ]


class BlacklistStormDetector:
    """Flag bursts of circuit-breaker trips inside a sliding window."""

    def __init__(
        self, *, threshold: int = 3, window_s: float = 600.0
    ) -> None:
        self.threshold = threshold
        self.window_s = window_s
        self._times: Deque[float] = deque()
        self._quiet_until = float("-inf")

    def update(self, event: RunEvent) -> list[RunEvent]:
        if event.kind is not EventKind.BLACKLIST:
            return []
        now = event.time
        self._times.append(now)
        while self._times and self._times[0] < now - self.window_s:
            self._times.popleft()
        if len(self._times) < self.threshold or now < self._quiet_until:
            return []
        self._quiet_until = now + self.window_s  # one alert per storm
        return [
            RunEvent(
                EventKind.ANOMALY_BLACKLIST_STORM,
                now,
                job_name=event.job_name,
                site=event.site,
                machine=event.machine,
                detail={
                    "count": len(self._times),
                    "window_s": self.window_s,
                    "threshold": self.threshold,
                },
            )
        ]


class SloBurnDetector:
    """Flag tenants burning their SLO budget: the miss fraction over
    the last ``window`` completed workflows crossed ``burn_threshold``
    (with hysteresis — one alert per sustained burn, re-armed once the
    rate drops back under the threshold)."""

    def __init__(
        self,
        *,
        target_s: float = 3600.0,
        targets: Mapping[str, float] | None = None,
        window: int = 20,
        burn_threshold: float = 0.5,
        min_count: int = 5,
    ) -> None:
        self.target_s = target_s
        self.targets = dict(targets) if targets else {}
        self.window = window
        self.burn_threshold = burn_threshold
        self.min_count = min_count
        self._misses: dict[str, Deque[bool]] = {}
        self._burning: set[str] = set()

    def update(self, event: RunEvent) -> list[RunEvent]:
        if event.kind is not EventKind.SERVICE_WORKFLOW_DONE:
            return []
        tenant = str(event.detail.get("tenant", "?"))
        turnaround = event.detail.get("turnaround_s")
        if not isinstance(turnaround, (int, float)):
            return []
        target = self.targets.get(tenant, self.target_s)
        window = self._misses.setdefault(
            tenant, deque(maxlen=self.window)
        )
        window.append(float(turnaround) > target)
        if len(window) < self.min_count:
            return []
        burn = sum(window) / len(window)
        if burn < self.burn_threshold:
            self._burning.discard(tenant)
            return []
        if tenant in self._burning:
            return []
        self._burning.add(tenant)
        return [
            RunEvent(
                EventKind.ANOMALY_SLO_BURN,
                event.time,
                detail={
                    "tenant": tenant,
                    "burn_rate": round(burn, 4),
                    "target_s": target,
                    "window": len(window),
                },
            )
        ]


class _Detector(Protocol):
    def update(self, event: RunEvent) -> list[RunEvent]: ...


class AnomalyMonitor:
    """Compose the detector catalog into one bus subscriber.

    Findings accumulate in :attr:`alerts` and — when attached to an
    active bus — are re-emitted as ``anomaly.*`` events so downstream
    subscribers (status view, event log, journal consumers) see them
    inline with the lifecycle stream.
    """

    def __init__(
        self,
        bus: EventBus | None = None,
        *,
        straggler: StragglerDetector | None = None,
        queue_wait: QueueWaitDetector | None = None,
        blacklist: BlacklistStormDetector | None = None,
        slo: SloBurnDetector | None = None,
    ) -> None:
        self.straggler = straggler or StragglerDetector()
        self.queue_wait = queue_wait or QueueWaitDetector()
        self.blacklist = blacklist or BlacklistStormDetector()
        self.slo = slo or SloBurnDetector()
        self.detectors = (
            self.straggler,
            self.queue_wait,
            self.blacklist,
            self.slo,
        )
        self.alerts: list[RunEvent] = []
        # The bus holds the monitor as a subscriber; holding the bus
        # only weakly keeps that from being a cycle, so a finished run's
        # bus and everything on it are freed by reference counting.
        self._bus = weakref.ref(bus) if bus is not None else None
        # Kind-routed dispatch: only the detectors that consume a kind
        # see it (one dict probe per event instead of fanning every
        # event through the whole catalog).
        self._routes: dict[EventKind, tuple[_Detector, ...]] = {
            EventKind.SUBMIT: (self.straggler, self.queue_wait),
            EventKind.EXEC_START: (self.straggler,),
            EventKind.FINISH: (self.straggler,),
            EventKind.EVICT: (self.straggler,),
            EventKind.MATCH: (self.queue_wait,),
            EventKind.BLACKLIST: (self.blacklist,),
            EventKind.SERVICE_WORKFLOW_DONE: (self.slo,),
        }
        # The straggler's deadline heap is mutated in place (heapq)
        # and never rebound, so bind it once for the per-event check.
        self._deadlines = self.straggler._deadlines
        self._expire = self.straggler._expire
        if bus is not None:
            bus.subscribe(self)

    def __call__(self, event: RunEvent) -> None:
        # Every event — routed or not, our own ``anomaly.*`` output
        # included (it reaches no detector: no feedback loops) —
        # advances the straggler's deadline clock, so an in-flight
        # straggler is flagged by whatever event crosses its deadline.
        # The common case, no deadline due, is decided here on the heap
        # head without a call.
        deadlines = self._deadlines
        if deadlines and deadlines[0][0] <= event.time:
            self._publish(self._expire(event.time))
        for detector in self._routes.get(event.kind, ()):
            alerts = detector.update(event)
            if alerts:
                self._publish(alerts)

    def _publish(self, alerts: list[RunEvent]) -> None:
        bus = self._bus() if self._bus is not None else None
        for alert in alerts:
            self.alerts.append(alert)
            if bus is not None and bus.active:
                bus.emit(alert)
