"""Causal span tracing over the lifecycle event stream.

:mod:`repro.observe.events` records *what* happened; this module
records *why*. A :class:`SpanTracer` subscribes to the
:class:`~repro.observe.bus.EventBus` and folds the flat event stream
into a hierarchy of :class:`Span` objects with explicit causal links —
the shape pegasus-monitord feeds STAMPEDE, in modern trace clothing:

.. code-block:: text

    run ─┬─ service:<wf>  (WaaS admission / fair-share window)
         │     └─ admission
         └─ workflow[:<wf>]
               └─ job:<name>          ← link: released_by (parent's
                     └─ attempt n       final attempt freed this job)
                           ├─ waiting  ← link: retry_of (attempt n-1,
                           ├─ setup      incl. eviction → retry chains
                           └─ exec       and cross-rescue-round resumes)

Causal links (:class:`SpanLink`, ``attributes["relation"]``):

``released_by``
    a child job's span links the parent attempt whose completion
    flipped its pending-parent count to zero (the scheduler stamps
    ``released_by`` into the ``job.state_change`` → ready event).
``retry_of``
    attempt *n* links attempt *n-1* of the same job — including
    eviction→retry chains and the cross-round hop where a rescue
    resubmit restarts numbering at 1.
``rescue_continuation``
    a rescue round's workflow span links the previous round's.
``journal_resume``
    after ``repro-run --resume``, the resumed workflow span links the
    deterministic run-root span of the *same* trace: the trace id is
    persisted in the PR 8 write-ahead journal, so the pre-crash and
    post-resume exports join into one causally-connected trace.

IDs are W3C trace-context shaped (32-hex trace id, 16-hex span id) and
fully deterministic: derived by SHA-256 from the trace id, the span
name, and a per-name occurrence counter — no wall clock, no RNG, so a
given run always produces byte-identical traces and a resumed process
recreates the same run-root id its predecessor had.

Zero cost when detached: the tracer is just another bus subscriber, so
the PR 7 ``bus.active`` fast path still skips event *construction*
entirely when nothing listens. When attached it folds each event into
its spans as the event arrives and keeps no event.

Exports: :func:`write_otlp_trace` (OTLP-JSON, one resourceSpans
envelope) and :func:`write_perfetto_trace` (Perfetto protobuf-JSON
TracePackets, machine-lane slices) complement the existing Chrome
trace; :func:`critical_path_from_spans` re-derives the PR 5 makespan
attribution purely from spans and their causal links, which
``repro-report analyze`` cross-checks against
:func:`~repro.observe.analysis.attribute_makespan`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str
from math import isfinite
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from repro.dagman.events import JobAttempt, JobStatus, WorkflowTrace
from repro.observe.bus import EventBus
from repro.observe.events import EventKind, RunEvent
from repro.util.iolib import atomic_write

__all__ = [
    "Span",
    "SpanLink",
    "SpanTracer",
    "SpanCriticalPath",
    "critical_path_from_spans",
    "derive_span_id",
    "derive_trace_id",
    "spans_from_events",
    "to_otlp_json",
    "to_perfetto_json",
    "write_otlp_trace",
    "write_perfetto_trace",
]

_EPS = 1e-9


def derive_trace_id(seed: str) -> str:
    """Deterministic 32-hex (W3C style) trace id from a seed string."""
    return hashlib.sha256(f"trace:{seed}".encode()).hexdigest()[:32]


def derive_span_id(trace_id: str, name: str, index: int) -> str:
    """Deterministic 16-hex span id: same trace/name/occurrence →
    same id, in any process (what makes resume continuations work)."""
    digest = hashlib.sha256(f"span:{trace_id}:{name}:{index}".encode())
    return digest.hexdigest()[:16]


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

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


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
    same instance also works offline over a recorded event list (see
    :func:`spans_from_events`). It never emits, so tracers and
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


def spans_from_events(
    events: Iterable[RunEvent],
    *,
    trace_id: str | None = None,
    seed: str = "events",
) -> list[Span]:
    """Offline folding: replay a recorded event stream into spans."""
    tracer = SpanTracer(trace_id=trace_id, seed=seed)
    for event in events:
        tracer(event)
    return tracer.finish()


# -- trace-derived critical path -------------------------------------


@dataclass
class SpanCriticalPath:
    """The makespan re-derived purely from spans and causal links.

    ``buckets`` uses the same five-way split as
    :class:`~repro.observe.analysis.MakespanAttribution` and tiles
    ``[start_s, end_s]`` exactly, so it can be cross-checked
    bucket-for-bucket against the event-record attribution.
    """

    makespan_s: float
    start_s: float
    end_s: float
    buckets: dict[str, float]
    path_jobs: list[str] = field(default_factory=list)

    def total(self) -> float:
        return sum(self.buckets.values())


def _attempt_of(span: Span) -> JobAttempt:
    """The attempt record a closed attempt span was stamped from."""
    attrs = span.attributes
    return JobAttempt(
        job_name=str(attrs["job"]),
        transformation=str(attrs.get("transformation", "")),
        site=str(attrs.get("site", "")),
        machine=str(attrs.get("machine", "")),
        attempt=int(attrs["attempt"]),  # type: ignore[call-overload]
        submit_time=float(attrs["submit_time"]),  # type: ignore[arg-type]
        setup_start=float(attrs["setup_start"]),  # type: ignore[arg-type]
        exec_start=float(attrs["exec_start"]),  # type: ignore[arg-type]
        exec_end=float(attrs["exec_end"]),  # type: ignore[arg-type]
        status=JobStatus(attrs["status"]),
    )


def critical_path_from_spans(spans: Sequence[Span]) -> SpanCriticalPath:
    """Walk ``released_by`` links backward from the last-finishing
    attempt and tile the makespan into the standard five buckets.

    The chain hop uses the *causal* edge the scheduler recorded (which
    parent's completion released each job), so on a clean run it
    reproduces :func:`repro.wms.statistics.critical_path` — the parent
    that flips the pending count to zero is by definition the
    latest-finishing parent. Only the chain is found differently: a
    job's final attempt and the tiling are those of the event-record
    attribution (:func:`repro.observe.analysis.tile_path`).
    """
    from repro.observe.analysis import BUCKETS, tile_path

    trace = WorkflowTrace(
        [
            _attempt_of(s)
            for s in spans
            if s.kind == "attempt"
            and s.end is not None
            and "exec_end" in s.attributes
        ]
    )
    if not trace.attempts:
        return SpanCriticalPath(0.0, 0.0, 0.0, {b: 0.0 for b in BUCKETS})
    released_by = {
        str(s.attributes["job"]): str(s.attributes["released_by"])
        for s in spans
        if s.kind == "job" and "released_by" in s.attributes
    }
    final = trace.final_attempts()

    job: str | None = max(final, key=lambda name: (final[name].exec_end, name))
    path: dict[str, JobAttempt] = {}  # last job first
    while job in final and job not in path:
        path[job] = final[job]
        job = released_by.get(job)
    chain = list(reversed(path.values()))

    start_s, end_s, buckets, _ = tile_path(trace, chain)
    return SpanCriticalPath(
        makespan_s=end_s - start_s,
        start_s=start_s,
        end_s=end_s,
        buckets=buckets,
        path_jobs=[a.job_name for a in chain],
    )


# -- OTLP-JSON export -------------------------------------------------
#
# One document, two renderings: :func:`to_otlp_json` builds it as a dict
# (the public API, and the reference the tests hold the writer to) and
# :func:`write_otlp_trace` prints the same document as indented text
# straight from the spans. What the two must agree on — value typing,
# status codes, field names and order, resource and scope — is decided
# by the definitions below and read by both.

_OTLP_STATUS = {
    "unset": "STATUS_CODE_UNSET",
    "ok": "STATUS_CODE_OK",
    "error": "STATUS_CODE_ERROR",
}

_OTLP_SCOPE = {"name": "repro.observe.trace", "version": "1"}

#: A span's string-valued fields in wire order; ``attributes``,
#: ``status`` and the optional ``parentSpanId`` and ``links`` follow.
_OTLP_SPAN_FIELDS = (
    "traceId",
    "spanId",
    "name",
    "kind",
    "startTimeUnixNano",
    "endTimeUnixNano",
)
_OTLP_LINK_FIELDS = ("traceId", "spanId")


def _otlp_value(value: object) -> tuple[str, bool | str | float]:
    """The proto3-JSON ``AnyValue`` for *value* as (field, scalar); the
    scalar is a ``bool``, a ``str`` or a finite ``float``."""
    if isinstance(value, bool):
        return "boolValue", value
    if isinstance(value, int):
        return "intValue", str(value)  # proto3 JSON: int64 as string
    if isinstance(value, float):
        if isfinite(value):
            return "doubleValue", value
        # proto3 JSON spells these as strings; a bare Infinity or NaN
        # token is not JSON and makes a collector reject the whole file.
        if value != value:
            return "doubleValue", "NaN"
        return "doubleValue", "Infinity" if value > 0 else "-Infinity"
    return "stringValue", str(value)


def _otlp_span_fields(s: Span) -> tuple[str, ...]:
    """Values for :data:`_OTLP_SPAN_FIELDS`; an open span ends where it
    starts."""
    end = s.end if s.end is not None else s.start
    return (
        s.trace_id,
        s.span_id,
        s.name,
        "SPAN_KIND_INTERNAL",
        str(int(round(s.start * 1e9))),
        str(int(round(end * 1e9))),
    )


def _otlp_link_fields(link: SpanLink) -> tuple[str, ...]:
    return link.trace_id, link.span_id


def _otlp_span_attrs(s: Span) -> dict[str, object]:
    return {"repro.span_kind": s.kind, **s.attributes}


def _otlp_resource(
    service_name: str, resource_attributes: Mapping[str, object] | None
) -> dict[str, object]:
    resource: dict[str, object] = {"service.name": service_name}
    if resource_attributes:
        resource.update(resource_attributes)
    return resource


def _otlp_attrs(attrs: Mapping[str, object]) -> list[dict[str, object]]:
    rendered: list[dict[str, object]] = []
    for key, value in attrs.items():
        field, scalar = _otlp_value(value)
        rendered.append({"key": key, "value": {field: scalar}})
    return rendered


def to_otlp_json(
    spans: Sequence[Span],
    *,
    service_name: str = "repro",
    resource_attributes: Mapping[str, object] | None = None,
) -> dict[str, object]:
    """Render spans as one OTLP-JSON ``ExportTraceServiceRequest``
    (the ``resourceSpans`` envelope any OTLP/HTTP collector accepts)."""
    rendered: list[dict[str, object]] = []
    for s in spans:
        entry: dict[str, object] = dict(
            zip(_OTLP_SPAN_FIELDS, _otlp_span_fields(s))
        )
        entry["attributes"] = _otlp_attrs(_otlp_span_attrs(s))
        entry["status"] = {"code": _OTLP_STATUS[s.status]}
        if s.parent_span_id is not None:
            entry["parentSpanId"] = s.parent_span_id
        if s.links:
            entry["links"] = [
                {
                    **dict(zip(_OTLP_LINK_FIELDS, _otlp_link_fields(link))),
                    "attributes": _otlp_attrs(link.attributes),
                }
                for link in s.links
            ]
        rendered.append(entry)
    resource = _otlp_resource(service_name, resource_attributes)
    return {
        "resourceSpans": [
            {
                "resource": {"attributes": _otlp_attrs(resource)},
                "scopeSpans": [
                    {"scope": dict(_OTLP_SCOPE), "spans": rendered}
                ],
            }
        ]
    }


# The text rendering. Nesting depth is fixed by the envelope: resource
# attributes sit 5 spaces in, spans 6, a span's attributes and links 8,
# a link's attributes 10. ``_json_str`` is the ``json`` module's own
# string escaper (the C one where CPython has it).


def _json_list(items: list[str], depth: int) -> str:
    """*items*, each already indented *depth* spaces, as a JSON list
    whose opening bracket continues the current line."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + " " * (depth - 1) + "]"


def _otlp_attrs_text(depth: int) -> Callable[[Mapping[str, object]], str]:
    """Text twin of :func:`_otlp_attrs` for attribute objects indented
    *depth* spaces.

    A run repeats most (key, value) pairs hundreds of times, so each
    attribute object is printed once and its text reused. Only exact
    ``str``, ``int`` and ``bool`` values are remembered, each type
    apart: equal values of one of those types print the same, which
    does not hold across them (``1 == True``), for floats
    (``0.0 == -0.0``), or for anything printed through ``str()`` — and
    a list, which a rescue link carries, does not hash at all.
    """
    pad = " " * depth
    template = (
        f'{pad}{{\n{pad} "key": %s,\n{pad} "value": {{\n'
        f'{pad}  "%s": %s\n{pad} }}\n{pad}}}'
    )
    printed: dict[type, dict[tuple[str, object], str]] = {
        str: {},
        int: {},
        bool: {},
    }

    def one(key: str, value: object) -> str:
        field, scalar = _otlp_value(value)
        if isinstance(scalar, str):
            text = _json_str(scalar)
        elif isinstance(scalar, bool):
            text = "true" if scalar else "false"
        else:
            text = float.__repr__(scalar)
        return template % (_json_str(key), field, text)

    def render(attrs: Mapping[str, object]) -> str:
        items = []
        for item in attrs.items():
            seen = printed.get(item[1].__class__)
            text = None if seen is None else seen.get(item)
            if text is None:
                text = one(*item)
                if seen is not None:
                    seen[item] = text
            items.append(text)
        return _json_list(items, depth)

    return render


def _otlp_fields_text(names: Sequence[str], depth: int) -> str:
    pad = " " * depth
    return "".join(f'{pad}"{name}": %s,\n' for name in names)


_OTLP_SPAN_TEXT = (
    "      {\n"
    + _otlp_fields_text(_OTLP_SPAN_FIELDS, 7)
    + '       "attributes": %s,\n'
    + '       "status": {\n        "code": %s\n       }%s\n      }'
)
_OTLP_PARENT_TEXT = ',\n       "parentSpanId": %s'
_OTLP_LINKS_TEXT = ',\n       "links": %s'
_OTLP_LINK_TEXT = (
    "        {\n"
    + _otlp_fields_text(_OTLP_LINK_FIELDS, 9)
    + '         "attributes": %s\n        }'
)
_OTLP_ENVELOPE_TEXT = (
    '{\n "resourceSpans": [\n  {\n   "resource": {\n'
    '    "attributes": %s\n   },\n   "scopeSpans": [\n    {\n'
    '     "scope": {\n'
    + ",\n".join(
        f"      {_json_str(k)}: {_json_str(v)}" for k, v in _OTLP_SCOPE.items()
    )
    + '\n     },\n     "spans": %s\n    }\n   ]\n  }\n ]\n}\n'
)


def write_otlp_trace(
    path: str | Path,
    spans: Sequence[Span],
    *,
    service_name: str = "repro",
    resource_attributes: Mapping[str, object] | None = None,
) -> Path:
    """Write the :func:`to_otlp_json` document to ``path``, one space
    per nesting level, and return the path.

    The text is printed from the spans, not encoded from the dict, so
    no document tree is built and none is walked in Python; the bytes
    are those the ``json`` module gives for the dict
    (``tests/test_otlp_render.py`` compares them).
    """
    span_attrs = _otlp_attrs_text(8)
    link_attrs = _otlp_attrs_text(10)
    rendered = []
    for s in spans:
        tail = ""
        if s.parent_span_id is not None:
            tail = _OTLP_PARENT_TEXT % _json_str(s.parent_span_id)
        if s.links:
            links = [
                _OTLP_LINK_TEXT
                % (
                    *map(_json_str, _otlp_link_fields(link)),
                    link_attrs(link.attributes),
                )
                for link in s.links
            ]
            tail += _OTLP_LINKS_TEXT % _json_list(links, 8)
        rendered.append(
            _OTLP_SPAN_TEXT
            % (
                *map(_json_str, _otlp_span_fields(s)),
                span_attrs(_otlp_span_attrs(s)),
                _json_str(_OTLP_STATUS[s.status]),
                tail,
            )
        )
    resource = _otlp_resource(service_name, resource_attributes)
    return atomic_write(
        path,
        _OTLP_ENVELOPE_TEXT
        % (_otlp_attrs_text(5)(resource), _json_list(rendered, 6)),
    )


# -- Perfetto protobuf-JSON export -----------------------------------


def _perfetto_track(span: Span) -> str | None:
    """Track assignment; ``None`` drops the span from the lane view.

    Lanes must nest (Perfetto slices are begin/end stacks), so:
    machine lanes carry only the setup/exec occupancy phases (waiting
    happens *off* the machine and is omitted, as in the Chrome trace);
    job spans overlap arbitrarily and live only in the OTLP export.
    """
    if span.kind == "run":
        return "run"
    if span.kind == "workflow":
        scope = span.attributes.get("workflow")
        return f"workflow:{scope}" if scope else "workflow"
    if span.kind == "service":
        return f"service:{span.attributes.get('workflow', span.name)}"
    if span.kind == "phase":
        phase = span.attributes.get("phase")
        if phase == "admission":
            return f"service:{span.attributes.get('workflow', span.name)}"
        if phase in ("setup", "exec"):
            machine = span.attributes.get("machine")
            if machine:
                return f"{span.attributes.get('site', '')}/{machine}"
    return None


def to_perfetto_json(spans: Sequence[Span]) -> dict[str, object]:
    """Render spans as Perfetto protobuf-JSON ``TracePacket`` list
    (``traceconv`` / ui.perfetto.dev accept this shape directly)."""
    packets: list[dict[str, object]] = []
    track_uuids: dict[str, int] = {}

    def track(name: str) -> int:
        uuid = track_uuids.get(name)
        if uuid is None:
            uuid = len(track_uuids) + 1
            track_uuids[name] = uuid
            packets.append({"trackDescriptor": {"uuid": uuid, "name": name}})
        return uuid

    by_id = {s.span_id: s for s in spans}

    def depth(span: Span) -> int:
        d = 0
        parent = span.parent_span_id
        while parent is not None and d < 16:
            node = by_id.get(parent)
            if node is None:
                break
            d += 1
            parent = node.parent_span_id
        return d

    # (ts, 0=end first at equal ts, ±depth: parents open first and
    # close last) keeps every lane a well-formed slice stack.
    slices: list[tuple[float, int, int, int, Span]] = []
    for s in spans:
        if s.end is None:
            continue
        lane = _perfetto_track(s)
        if lane is None:
            continue
        uuid = track(lane)
        d = depth(s)
        slices.append((s.start, 1, d, uuid, s))
        slices.append((s.end, 0, -d, uuid, s))
    slices.sort(key=lambda item: (item[0], item[1], item[2]))
    for ts, begin, _, uuid, s in slices:
        ns = int(round(ts * 1e9))
        if begin:
            packets.append(
                {
                    "timestamp": ns,
                    "trustedPacketSequenceId": 1,
                    "trackEvent": {
                        "type": "TYPE_SLICE_BEGIN",
                        "trackUuid": uuid,
                        "name": s.name,
                    },
                }
            )
        else:
            packets.append(
                {
                    "timestamp": ns,
                    "trustedPacketSequenceId": 1,
                    "trackEvent": {
                        "type": "TYPE_SLICE_END",
                        "trackUuid": uuid,
                    },
                }
            )
    return {"packet": packets}


def write_perfetto_trace(path: str | Path, spans: Sequence[Span]) -> Path:
    """Write :func:`to_perfetto_json` output to ``path`` and return it."""
    return atomic_write(
        path, json.dumps(to_perfetto_json(spans), indent=1) + "\n"
    )
