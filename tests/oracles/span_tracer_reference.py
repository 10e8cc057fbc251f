"""The span fold as ``repro.observe.trace.SpanTracer`` had it while
every ``Span`` carried a ``__dict__`` and a list of links, the
occurrence counter was keyed by ``f"{kind}:{name}"`` strings, and each
job kept a dict of its attempt spans by number.

:class:`repro.observe.trace.SpanTracer` now keeps slotted spans, tuple
links, one name-keyed counter per kind and only the in-flight attempt
per job; ``tests/test_span_tracer_oracle.py`` holds its ``finish()`` to
this fold's, span for span, on simulated, chaotic, rescued and tenant
streams. The ids come from the same :func:`derive_span_id`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.dagman.events import JobAttempt, JobStatus
from repro.observe.bus import EventBus
from repro.observe.events import EventKind, RunEvent
from repro.observe.trace import derive_span_id, derive_trace_id

__all__ = ["Span", "SpanLink", "SpanTracer"]

_EPS = 1e-9


@dataclass
class SpanLink:
    """A causal edge to another span (``attributes["relation"]``)."""

    trace_id: str
    span_id: str
    attributes: dict[str, object] = field(default_factory=dict)


@dataclass
class Span:
    """One timed unit of work in the causal hierarchy.

    ``kind`` is the level: ``run`` | ``workflow`` | ``service`` |
    ``job`` | ``attempt`` | ``phase``. ``end is None`` while open.
    """

    name: str
    kind: str
    trace_id: str
    span_id: str
    parent_span_id: str | None
    start: float
    end: float | None = None
    attributes: dict[str, object] = field(default_factory=dict)
    links: list[SpanLink] = field(default_factory=list)
    status: str = "unset"  # "unset" | "ok" | "error"


class _JobState:
    """Per-(scope, job) tracer bookkeeping (one rescue round's worth)."""

    __slots__ = ("span", "attempts", "final_attempt", "prev_final")

    def __init__(self, span: Span, prev_final: Span | None = None) -> None:
        self.span = span
        self.attempts: dict[int, Span] = {}
        self.final_attempt: Span | None = None
        self.prev_final = prev_final


class SpanTracer:
    """Bus subscriber that folds lifecycle events into causal spans.

    Attach with ``bus.subscribe(tracer)`` (or pass ``bus=``); call
    :meth:`finish` after the run to close any still-open spans. The
    same instance also folds a recorded event list offline: call it on
    each event, then :meth:`finish`. It never emits, so tracers and
    monitors can share one bus without feedback.
    """

    def __init__(
        self,
        trace_id: str | None = None,
        *,
        seed: str = "repro",
        bus: EventBus | None = None,
    ) -> None:
        self.trace_id = trace_id or derive_trace_id(seed)
        self.spans: list[Span] = []
        self._counts: dict[str, int] = {}
        self._run: Span | None = None
        self._workflows: dict[str, Span] = {}
        self._last_workflow: dict[str, Span] = {}
        self._jobs: dict[tuple[str, str], _JobState] = {}
        self._services: dict[str, Span] = {}
        self._admissions: dict[str, Span] = {}
        #: (scope, job) → the parent whose completion released it
        self._pending_release: dict[tuple[str, str], str] = {}
        self._pending_phases: list[tuple[Span, JobAttempt]] = []
        self._pending_resume: dict[str, object] | None = None
        self._pending_rescue: dict[str, object] | None = None
        self._last_time = 0.0
        # Per-kind dispatch: one dict probe per event. Kinds
        # outside the span model — exec starts, utilization samples,
        # resilience instants and the monitor's ``anomaly.*`` families
        # — miss the table and are skipped.
        self._handlers: dict[EventKind, Callable[[RunEvent, float], None]] = {
            EventKind.WORKFLOW_START: self._on_workflow_start,
            EventKind.WORKFLOW_END: self._on_workflow_end,
            EventKind.SUBMIT: self._on_submit,
            EventKind.STATE_CHANGE: self._on_state_change,
            EventKind.FINISH: self._on_terminal,
            EventKind.EVICT: self._on_terminal,
            EventKind.MATCH: self._on_match,
            EventKind.RETRY: self._on_retry,
            EventKind.TIMEOUT: self._on_timeout,
            EventKind.RESCUE: self._on_rescue,
            EventKind.JOURNAL_RESUME: self._on_journal_resume,
            EventKind.SERVICE_SUBMIT: self._on_service_submit,
            EventKind.SERVICE_ADMIT: self._on_service_admit,
            EventKind.SERVICE_REJECT: self._on_service_reject,
            EventKind.SERVICE_WORKFLOW_DONE: self._on_service_done,
        }
        if bus is not None:
            bus.subscribe(self)

    # -- span plumbing ------------------------------------------------

    def _span(
        self,
        name: str,
        kind: str,
        parent: Span | None,
        start: float,
        attributes: dict[str, object] | None = None,
    ) -> Span:
        key = f"{kind}:{name}"
        index = self._counts.get(key, 0)
        self._counts[key] = index + 1
        span = Span(
            name=name,
            kind=kind,
            trace_id=self.trace_id,
            span_id=derive_span_id(self.trace_id, key, index),
            parent_span_id=parent.span_id if parent is not None else None,
            start=start,
            attributes=attributes if attributes is not None else {},
        )
        self.spans.append(span)
        return span

    def _close(self, span: Span, end: float, status: str = "ok") -> None:
        if span.end is not None:
            return
        span.end = max(end, span.start)
        span.status = status

    def _ensure_run(self, t: float) -> Span:
        if self._run is None:
            self._run = self._span("run", "run", None, t)
        return self._run

    @property
    def run_root_span_id(self) -> str:
        """The deterministic run-root id for this trace (same in every
        process that shares the trace id — the resume link anchor)."""
        return derive_span_id(self.trace_id, "run:run", 0)

    # -- event handling ----------------------------------------------

    def __call__(self, event: RunEvent) -> None:
        handler = self._handlers.get(event.kind)
        if handler is None:
            return  # outside the span model (see _handlers comment)
        if event.time > self._last_time:
            self._last_time = event.time
        handler(event, event.time)

    @staticmethod
    def _scope(event: RunEvent) -> str:
        workflow = event.detail.get("workflow")
        return str(workflow) if workflow else ""

    def _on_workflow_end(self, event: RunEvent, t: float) -> None:
        span = self._workflows.pop(self._scope(event), None)
        if span is not None:
            self._close(span, t)
            self._last_workflow[self._scope(event)] = span

    def _on_retry(self, event: RunEvent, t: float) -> None:
        state = self._jobs.get((self._scope(event), event.job_name or ""))
        if state is not None:
            retries = state.span.attributes.get("retries", 0)
            state.span.attributes["retries"] = int(retries) + 1  # type: ignore[call-overload]

    def _on_timeout(self, event: RunEvent, t: float) -> None:
        state = self._jobs.get((self._scope(event), event.job_name or ""))
        if state is not None and event.attempt in state.attempts:
            state.attempts[event.attempt].attributes["timeout"] = True

    def _on_rescue(self, event: RunEvent, t: float) -> None:
        self._pending_rescue = dict(event.detail)

    def _on_journal_resume(self, event: RunEvent, t: float) -> None:
        self._pending_resume = dict(event.detail)
        self._ensure_run(t).attributes["resumed"] = True

    def _on_service_admit(self, event: RunEvent, t: float) -> None:
        scope = self._scope(event)
        admission = self._admissions.pop(scope, None)
        if admission is not None:
            self._close(admission, t)
        service = self._services.get(scope)
        if service is not None:
            service.attributes["admitted"] = True

    def _on_service_reject(self, event: RunEvent, t: float) -> None:
        scope = self._scope(event)
        admission = self._admissions.pop(scope, None)
        if admission is not None:
            admission.attributes["reason"] = str(
                event.detail.get("reason", "")
            )
            self._close(admission, t, status="error")
        service = self._services.pop(scope, None)
        if service is not None:
            self._close(service, t, status="error")

    def _on_service_done(self, event: RunEvent, t: float) -> None:
        service = self._services.pop(self._scope(event), None)
        if service is not None:
            succeeded = bool(event.detail.get("succeeded", True))
            for attr in ("succeeded", "turnaround_s", "queue_wait_s"):
                if attr in event.detail:
                    service.attributes[attr] = event.detail[attr]
            self._close(service, t, status="ok" if succeeded else "error")

    def _on_workflow_start(self, event: RunEvent, t: float) -> None:
        run = self._ensure_run(t)
        scope = self._scope(event)
        parent: Span = self._services.get(scope, run)
        name = f"workflow:{scope}" if scope else "workflow"
        attrs: dict[str, object] = {}
        if scope:
            attrs["workflow"] = scope
        for extra in ("tenant", "jobs", "round"):
            if extra in event.detail:
                attrs[extra] = event.detail[extra]
        span = self._span(name, "workflow", parent, t, attrs)
        previous = self._last_workflow.get(scope)
        if previous is not None:
            link_attrs: dict[str, object] = {"relation": "rescue_continuation"}
            if self._pending_rescue is not None:
                for extra in ("round", "failed", "remaining"):
                    if extra in self._pending_rescue:
                        link_attrs[extra] = self._pending_rescue[extra]
            span.links.append(
                SpanLink(self.trace_id, previous.span_id, link_attrs)
            )
            self._pending_rescue = None
        if self._pending_resume is not None:
            link_attrs = {"relation": "journal_resume"}
            for extra in ("replayed", "done", "torn", "clock"):
                if extra in self._pending_resume:
                    link_attrs[extra] = self._pending_resume[extra]
            # The run-root id is deterministic per trace id, so this
            # link lands on the pre-crash process's root span.
            span.links.append(
                SpanLink(self.trace_id, self.run_root_span_id, link_attrs)
            )
            self._pending_resume = None
        self._workflows[scope] = span

    def _on_submit(self, event: RunEvent, t: float) -> None:
        run = self._ensure_run(t)
        scope = self._scope(event)
        name = event.job_name or ""
        key = (scope, name)
        state = self._jobs.get(key)
        if state is None or state.span.end is not None:
            attrs: dict[str, object] = {"job": name}
            if event.transformation:
                attrs["transformation"] = event.transformation
            if event.site:
                attrs["site"] = event.site
            if "tenant" in event.detail:
                attrs["tenant"] = event.detail["tenant"]
            parent = self._workflows.get(scope) or run
            span = self._span(f"job:{name}", "job", parent, t, attrs)
            prev_final = state.final_attempt if state is not None else None
            if state is not None:
                # A rescue round re-running a failed job: new span,
                # explicitly chained to the previous round's.
                span.links.append(
                    SpanLink(
                        self.trace_id,
                        state.span.span_id,
                        {"relation": "rescue_continuation"},
                    )
                )
            parent_name = self._pending_release.pop(key, None)
            if parent_name is not None:
                span.attributes["released_by"] = parent_name
                parent_state = self._jobs.get((scope, parent_name))
                if (
                    parent_state is not None
                    and parent_state.final_attempt is not None
                ):
                    span.links.append(
                        SpanLink(
                            self.trace_id,
                            parent_state.final_attempt.span_id,
                            {
                                "relation": "released_by",
                                "parent": parent_name,
                            },
                        )
                    )
            state = _JobState(span, prev_final=prev_final)
            self._jobs[key] = state
        attempt = event.attempt or 1
        attrs = {"job": name, "attempt": attempt}
        if event.site:
            attrs["site"] = event.site
        if event.transformation:
            attrs["transformation"] = event.transformation
        if "expected_s" in event.detail:
            attrs["expected_s"] = event.detail["expected_s"]
        aspan = self._span(
            f"{name}/attempt-{attempt}", "attempt", state.span, t, attrs
        )
        previous = state.attempts.get(attempt - 1)
        if previous is None and attempt == 1:
            previous = state.prev_final  # cross-rescue-round retry
        if previous is not None:
            aspan.links.append(
                SpanLink(
                    self.trace_id,
                    previous.span_id,
                    {
                        "relation": "retry_of",
                        "prior_status": str(
                            previous.attributes.get("status", "")
                        ),
                    },
                )
            )
        state.attempts[attempt] = aspan

    def _on_state_change(self, event: RunEvent, t: float) -> None:
        self._ensure_run(t)
        scope = self._scope(event)
        to = str(event.detail.get("to", ""))
        name = event.job_name or ""
        if to == "ready" and "released_by" in event.detail:
            self._pending_release[(scope, name)] = str(
                event.detail["released_by"]
            )
        elif to in ("done", "failed", "unrunnable"):
            state = self._jobs.get((scope, name))
            if state is not None and state.span.end is None:
                self._close(
                    state.span, t, status="ok" if to == "done" else "error"
                )

    def _on_terminal(self, event: RunEvent, t: float) -> None:
        record = event.record
        if record is None:
            return
        state = self._jobs.get((self._scope(event), event.job_name or ""))
        if state is None:
            return
        aspan = state.attempts.get(record.attempt)
        if aspan is None or aspan.end is not None:
            return
        aspan.attributes.update(
            machine=record.machine,
            status=record.status.value,
            submit_time=record.submit_time,
            setup_start=record.setup_start,
            exec_start=record.exec_start,
            exec_end=record.exec_end,
        )
        if record.error:
            aspan.attributes["error"] = record.error
        # Phase child spans are fully derivable from the timestamps
        # just stamped on the attempt, so their materialization is
        # deferred to finish() — off the run's hot path (they are the
        # bulk of a trace's span count and nothing reads them live).
        self._pending_phases.append((aspan, record))
        ok = record.status is JobStatus.SUCCEEDED
        self._close(aspan, record.exec_end, status="ok" if ok else "error")
        state.final_attempt = aspan
        if ok:  # the job is done; an untagged stream says so only here
            self._close(state.span, t)

    def _materialize_phases(self) -> None:
        pending, self._pending_phases = self._pending_phases, []
        for aspan, record in pending:
            common: dict[str, object] = {
                "job": record.job_name,
                "attempt": record.attempt,
                "machine": record.machine,
                "site": record.site,
            }
            prefix = f"{record.job_name}/a{record.attempt}"
            if record.setup_start - record.submit_time > _EPS:
                waiting = self._span(
                    f"{prefix}/waiting",
                    "phase",
                    aspan,
                    record.submit_time,
                    {**common, "phase": "waiting"},
                )
                self._close(waiting, record.setup_start)
            if record.exec_start - record.setup_start > _EPS:
                setup = self._span(
                    f"{prefix}/setup",
                    "phase",
                    aspan,
                    record.setup_start,
                    {**common, "phase": "setup"},
                )
                self._close(setup, record.exec_start)
            execution = self._span(
                f"{prefix}/exec",
                "phase",
                aspan,
                record.exec_start,
                {**common, "phase": "exec"},
            )
            self._close(execution, record.exec_end)

    def _on_match(self, event: RunEvent, t: float) -> None:
        state = self._jobs.get((self._scope(event), event.job_name or ""))
        if state is None:
            return
        aspan = state.attempts.get(event.attempt or 1)
        if aspan is None:
            return
        if event.machine:
            aspan.attributes["machine"] = event.machine
        aspan.attributes["match_time"] = t
        if "queue_depth" in event.detail:
            aspan.attributes["queue_depth"] = event.detail["queue_depth"]

    def _on_service_submit(self, event: RunEvent, t: float) -> None:
        run = self._ensure_run(t)
        scope = self._scope(event)
        attrs: dict[str, object] = {}
        for extra in ("tenant", "workflow", "jobs"):
            if extra in event.detail:
                attrs[extra] = event.detail[extra]
        service = self._span(f"service:{scope}", "service", run, t, attrs)
        self._services[scope] = service
        self._admissions[scope] = self._span(
            f"service:{scope}/admission",
            "phase",
            service,
            t,
            {"phase": "admission"},
        )

    # -- lifecycle ----------------------------------------------------

    def finish(self, at: float | None = None) -> list[Span]:
        """Append the phase spans, close every still-open span
        (children before parents) and return the full span list."""
        self._materialize_phases()
        end = self._last_time if at is None else max(at, self._last_time)
        for span in reversed(self.spans):
            if span.end is None:
                self._close(span, end, status=span.status or "unset")
        return self.spans
