"""``pegasus-status`` style live view over an event stream.

:class:`StatusView` folds events into a pure events → text render, so
the same code serves the one-shot CLI call, the ``--follow`` tail loop,
and the tests. It reports DAGMan's state histogram, the jobs currently
on the platform (with how long they have been there), the run's
headline counters, and an ALERTS pane tailing the online ``anomaly.*``
detector stream — everything the paper's user would watch during the
10⁴-second OSG runs.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.observe.events import EventKind, RunEvent

__all__ = ["StatusView"]


class StatusView:
    """Incremental digest of an event stream (feed events in order)."""

    def __init__(self, *, total_jobs: int | None = None) -> None:
        self.total_jobs = total_jobs
        self.states: dict[str, str] = {}
        self.in_flight: dict[str, tuple[int, float, str]] = {}  # name -> (attempt, since, phase)
        self.done: set[str] = set()
        self.failures = 0
        self.retries = 0
        self.evictions = 0
        self.timeouts = 0
        self.held = 0
        self.faults_injected = 0
        self.blacklisted = 0
        self.rescue_rounds = 0
        self.last_time = 0.0
        self.workflow_done: bool | None = None  # success flag once ended
        #: every ``anomaly.*`` event seen, in arrival order (the
        #: ALERTS pane renders the tail of this)
        self.alerts: list[RunEvent] = []

    def update(self, event: RunEvent) -> None:
        self.last_time = max(self.last_time, event.time)
        kind = event.kind
        name = event.job_name
        if kind.value.startswith("anomaly."):
            self.alerts.append(event)
            return
        if kind is EventKind.STATE_CHANGE and name is not None:
            self.states[name] = str(event.detail.get("to", "?"))
        elif kind is EventKind.SUBMIT and name is not None:
            self.in_flight[name] = (event.attempt or 1, event.time, "queued")
        elif kind in (EventKind.MATCH, EventKind.SETUP_START, EventKind.EXEC_START):
            if name in self.in_flight:
                attempt, since, _ = self.in_flight[name]
                phase = {
                    EventKind.MATCH: "matched",
                    EventKind.SETUP_START: "setup",
                    EventKind.EXEC_START: "running",
                }[kind]
                self.in_flight[name] = (attempt, since, phase)
        elif kind in (EventKind.FINISH, EventKind.EVICT) and name is not None:
            self.in_flight.pop(name, None)
            record = event.record
            if record is not None and record.status.is_success:
                self.done.add(name)
            else:
                self.failures += 1
            if kind is EventKind.EVICT:
                self.evictions += 1
        elif kind is EventKind.RETRY:
            self.retries += 1
        elif kind is EventKind.TIMEOUT:
            self.timeouts += 1
        elif kind is EventKind.HELD:
            self.held += 1
        elif kind is EventKind.FAULT:
            self.faults_injected += 1
        elif kind is EventKind.BLACKLIST:
            self.blacklisted += 1
        elif kind is EventKind.RESCUE:
            self.rescue_rounds += 1
            # A resubmit starts the next round: finished jobs stay DONE,
            # but the headline flips back to RUNNING.
            if event.detail.get("resubmitting"):
                self.workflow_done = None
        elif kind is EventKind.WORKFLOW_END:
            self.workflow_done = bool(event.detail.get("success", False))

    def feed(self, events: Iterable[RunEvent]) -> "StatusView":
        for event in events:
            self.update(event)
        return self

    # -- rendering ------------------------------------------------------

    def state_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for state in self.states.values():
            counts[state] = counts.get(state, 0) + 1
        return counts

    def render(self, *, max_in_flight: int = 10, max_alerts: int = 5) -> str:
        total = self.total_jobs if self.total_jobs is not None else len(self.states)
        done = len(self.done)
        pct = 100.0 * done / total if total else 0.0
        if self.workflow_done is None:
            headline = "RUNNING"
        else:
            headline = "SUCCEEDED" if self.workflow_done else "FAILED"
        lines = [
            f"[{headline}] t={self.last_time:,.0f}s  "
            f"{done}/{total} jobs done ({pct:.1f}%)  "
            f"{self.failures} failed attempts, {self.evictions} evictions, "
            f"{self.retries} retries",
        ]
        resilience_bits = []
        if self.timeouts:
            resilience_bits.append(f"timeouts={self.timeouts}")
        if self.held:
            resilience_bits.append(f"held={self.held}")
        if self.faults_injected:
            resilience_bits.append(f"faults={self.faults_injected}")
        if self.blacklisted:
            resilience_bits.append(f"blacklisted={self.blacklisted}")
        if self.rescue_rounds:
            resilience_bits.append(f"rescue_rounds={self.rescue_rounds}")
        if resilience_bits:
            lines.append("resilience: " + "  ".join(resilience_bits))
        counts = self.state_counts()
        if counts:
            lines.append(
                "states: "
                + "  ".join(f"{k}={v}" for k, v in sorted(counts.items()))
            )
        if self.in_flight:
            lines.append(f"in flight ({len(self.in_flight)}):")
            shown: Sequence[tuple[str, tuple[int, float, str]]] = sorted(
                self.in_flight.items(), key=lambda i: i[1][1]
            )[:max_in_flight]
            for name, (attempt, since, phase) in shown:
                age = self.last_time - since
                lines.append(
                    f"  {name:<28s} #{attempt}  {phase:<8s} "
                    f"(for {age:,.0f}s)"
                )
            if len(self.in_flight) > max_in_flight:
                lines.append(f"  … {len(self.in_flight) - max_in_flight} more")
        if self.alerts:
            lines.append(f"ALERTS ({len(self.alerts)}):")
            for alert in self.alerts[-max_alerts:]:
                subject = alert.job_name or str(
                    alert.detail.get("tenant")
                    or alert.site
                    or "-"
                )
                why = "  ".join(
                    f"{k}={v}"
                    for k, v in alert.detail.items()
                    if k != "tenant" and not isinstance(v, (dict, list))
                )[:60]
                lines.append(
                    f"  t={alert.time:,.0f}s  {alert.kind.value:<18s} "
                    f"{subject:<24s} {why}"
                )
            if len(self.alerts) > max_alerts:
                lines.append(f"  … {len(self.alerts) - max_alerts} earlier")
        return "\n".join(lines)
