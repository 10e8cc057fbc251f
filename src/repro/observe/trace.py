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
    persisted in the write-ahead journal, so the resumed process's
    spans carry the crashed run's trace id and root. Only the resumed
    process exports spans (a crashed ``repro-run`` exports nothing), so
    its span files hold the attempts that ran after the resume, while
    ``trace.jsonl`` and the Chrome trace, built from the attempts the
    journal recovered plus those, hold the whole run.

IDs are W3C trace-context shaped (32-hex trace id, 16-hex span id) and
fully deterministic: derived by SHA-256 from the trace id, the span
name, and a per-name occurrence counter — no wall clock, no RNG, so a
given run always produces byte-identical traces and a resumed process
recreates the same run-root id its predecessor had.

Zero cost when detached: the tracer is just another bus subscriber, so
the PR 7 ``bus.active`` fast path still skips event *construction*
entirely when nothing listens. When attached it folds each event into
its spans as the event arrives and keeps no event.

What it keeps is sized per job: the spans themselves (slotted; each
one's links an immutable tuple, the empty one shared), one occurrence
counter per span kind keyed by the span's own name string, and for each
(workflow, job) the job span, its latest submitted attempt, its latest
finished attempt and the previous rescue round's. DAGMan never has two
attempts of one node in flight, so no job keeps a map of its attempts.
``tests/test_footprint.py`` bounds the bytes a finished tracer holds
per job.

Exports: :func:`write_otlp_trace` (OTLP-JSON, one resourceSpans
envelope) and :func:`write_perfetto_trace` (Perfetto protobuf-JSON
TracePackets, machine-lane slices) complement the existing Chrome
trace. The spans are a rendering, not an input: the realized critical
path is :func:`repro.wms.statistics.critical_path`, walked over the
plan's edges or over the same ``released_by`` names a log's readiness
events carry (:mod:`repro.observe.analysis`).
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str
from math import isfinite
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.dagman.events import JobAttempt, JobStatus
from repro.observe.bus import EventBus
from repro.observe.events import EventKind, RunEvent
from repro.util.iolib import atomic_open

__all__ = [
    "Span",
    "SpanLink",
    "SpanTracer",
    "derive_span_id",
    "derive_trace_id",
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


@dataclass(slots=True)
class SpanLink:
    """A causal edge to another span (``attributes["relation"]``)."""

    trace_id: str
    span_id: str
    attributes: dict[str, object] = field(default_factory=dict)


@dataclass(slots=True)
class Span:
    """One timed unit of work in the causal hierarchy.

    ``kind`` is the level: ``run`` | ``workflow`` | ``service`` |
    ``job`` | ``attempt`` | ``phase``. ``end is None`` while open.
    ``links`` is a tuple: adding a link builds a new one, and the spans
    without a link (nearly all) share the empty tuple.
    """

    name: str
    kind: str
    trace_id: str
    span_id: str
    parent_span_id: str | None
    start: float
    end: float | None = None
    attributes: dict[str, object] = field(default_factory=dict)
    links: tuple[SpanLink, ...] = ()
    status: str = "unset"  # "unset" | "ok" | "error"


class _JobState:
    """Per-(scope, job) tracer bookkeeping (one rescue round's worth).

    DAGMan never has two attempts of one node in flight, so the job
    keeps only its latest submitted attempt span (``attempt``: the one
    a match, timeout or terminal event is about, and the one the next
    attempt retries), the latest one that ended (``final_attempt``)
    and the previous round's final attempt (``prev_final``, what a
    rescue round's attempt 1 retries).
    """

    __slots__ = ("span", "attempt", "final_attempt", "prev_final")

    def __init__(self, span: Span, prev_final: Span | None = None) -> None:
        self.span = span
        self.attempt: Span | None = None
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
        #: kind -> span name -> spans of that kind and name so far
        self._counts: defaultdict[str, dict[str, int]] = defaultdict(dict)
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
        counts = self._counts[kind]
        index = counts.get(name, 0)
        counts[name] = index + 1
        span = Span(
            name=name,
            kind=kind,
            trace_id=self.trace_id,
            span_id=derive_span_id(self.trace_id, f"{kind}:{name}", index),
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
        handler = _HANDLERS.get(event.kind)
        if handler is None:
            return  # outside the span model (see _HANDLERS)
        if event.time > self._last_time:
            self._last_time = event.time
        handler(self, event, event.time)

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
        if state is not None and state.attempt is not None:
            state.attempt.attributes["timeout"] = True

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
            span.links += (SpanLink(self.trace_id, previous.span_id, link_attrs),)
            self._pending_rescue = None
        if self._pending_resume is not None:
            link_attrs = {"relation": "journal_resume"}
            for extra in ("replayed", "done", "torn", "clock"):
                if extra in self._pending_resume:
                    link_attrs[extra] = self._pending_resume[extra]
            # The run-root id is deterministic per trace id, so this
            # link lands on the pre-crash process's root span.
            span.links += (
                SpanLink(self.trace_id, self.run_root_span_id, link_attrs),
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
                span.links = (
                    SpanLink(
                        self.trace_id,
                        state.span.span_id,
                        {"relation": "rescue_continuation"},
                    ),
                )
            parent_name = self._pending_release.pop(key, None)
            if parent_name is not None:
                span.attributes["released_by"] = parent_name
                parent_state = self._jobs.get((scope, parent_name))
                if (
                    parent_state is not None
                    and parent_state.final_attempt is not None
                ):
                    span.links += (
                        SpanLink(
                            self.trace_id,
                            parent_state.final_attempt.span_id,
                            {
                                "relation": "released_by",
                                "parent": parent_name,
                            },
                        ),
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
        # Attempt 1 of a rescue round retries the previous round's last.
        previous = state.prev_final if attempt == 1 else state.attempt
        if previous is not None:
            aspan.links = (
                SpanLink(
                    self.trace_id,
                    previous.span_id,
                    {
                        "relation": "retry_of",
                        "prior_status": str(
                            previous.attributes.get("status", "")
                        ),
                    },
                ),
            )
        state.attempt = aspan

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
        aspan = state.attempt
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
        aspan = state.attempt
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


# Per-kind dispatch: one dict probe per event. Kinds outside the span
# model — exec starts, utilization samples, resilience instants and the
# monitor's ``anomaly.*`` families — miss the table and are skipped. The
# table holds the functions, not a tracer's bound methods, so a tracer
# is freed by reference counting once nothing else holds it.
_HANDLERS: dict[EventKind, Callable[[SpanTracer, RunEvent, float], None]] = {
    EventKind.WORKFLOW_START: SpanTracer._on_workflow_start,
    EventKind.WORKFLOW_END: SpanTracer._on_workflow_end,
    EventKind.SUBMIT: SpanTracer._on_submit,
    EventKind.STATE_CHANGE: SpanTracer._on_state_change,
    EventKind.FINISH: SpanTracer._on_terminal,
    EventKind.EVICT: SpanTracer._on_terminal,
    EventKind.MATCH: SpanTracer._on_match,
    EventKind.RETRY: SpanTracer._on_retry,
    EventKind.TIMEOUT: SpanTracer._on_timeout,
    EventKind.RESCUE: SpanTracer._on_rescue,
    EventKind.JOURNAL_RESUME: SpanTracer._on_journal_resume,
    EventKind.SERVICE_SUBMIT: SpanTracer._on_service_submit,
    EventKind.SERVICE_ADMIT: SpanTracer._on_service_admit,
    EventKind.SERVICE_REJECT: SpanTracer._on_service_reject,
    EventKind.SERVICE_WORKFLOW_DONE: SpanTracer._on_service_done,
}


# -- OTLP-JSON export -------------------------------------------------
#
# :func:`write_otlp_trace` prints the document as compact text straight
# from the spans. Value typing, status codes, resource and scope are
# decided by the definitions below; ``tests/oracles/span_documents.py``
# builds the same document as a dict from them, and
# ``tests/test_otlp_render.py`` holds the printed bytes to it.

_OTLP_STATUS = {
    "unset": "STATUS_CODE_UNSET",
    "ok": "STATUS_CODE_OK",
    "error": "STATUS_CODE_ERROR",
}

_OTLP_SCOPE = {"name": "repro.observe.trace", "version": "1"}

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


#: The one resource every export describes.
_OTLP_RESOURCE = {"service.name": "repro"}


# The text rendering, printed into the file piece by piece in the
# compact layout. ``_json_str`` is the ``json`` module's own string
# escaper (the C one where CPython has it).


def _write_list(
    write: Callable[[str], object],
    items: Iterable[Any],
    put: Callable[[Any], object] | None = None,
) -> None:
    """Write *items* as a JSON list; each item is printed text, or is
    written by *put*."""
    put = put or write
    sep = "["
    for item in items:
        write(sep)
        put(item)
        sep = ","
    write("[]" if sep == "[" else "]")


def _otlp_attrs_text() -> Callable[[Iterable[tuple[str, object]]], str]:
    """The renderer of OTLP attribute lists (``{"key": …, "value":
    {type: scalar}}`` objects); it takes the (key, value) items and
    returns the list's text. One renderer serves a whole export:
    resource, span and link attributes.

    A run repeats most (key, value) pairs hundreds of times, so each
    attribute object is printed once and its text reused. Only exact
    ``str``, ``int`` and ``bool`` values are remembered, each type
    apart: equal values of one of those types print the same, which
    does not hold across them (``1 == True``), for floats
    (``0.0 == -0.0``), or for anything printed through ``str()`` — and
    a list, which a rescue link carries, does not hash at all. A finite
    float prints inline after its key's remembered prefix.
    """
    template = '{"key":%s,"value":{"%s":%s}}'
    double_head = '{"key":%s,"value":{"doubleValue":'
    doubles: dict[str, str] = {}
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

    def render(attrs: Iterable[tuple[str, object]]) -> str:
        items = []
        for item in attrs:
            value = item[1]
            if type(value) is float and value - value == 0:  # finite
                head = doubles.get(item[0])
                if head is None:
                    head = doubles[item[0]] = double_head % _json_str(item[0])
                items.append(head + repr(value) + "}}")
                continue
            seen = printed.get(type(value))
            text = None if seen is None else seen.get(item)
            if text is None:
                text = one(*item)
                if seen is not None:
                    seen[item] = text
            items.append(text)
        return "[" + ",".join(items) + "]"

    return render


_OTLP_SPAN_HEAD = (
    '{"traceId":%s,"spanId":%s,"name":%s,"kind":"SPAN_KIND_INTERNAL"'
    ',"startTimeUnixNano":"%d","endTimeUnixNano":"%d","attributes":%s'
)
_OTLP_STATUS_TEXT = {
    key: ',"status":{"code":%s}' % _json_str(code) for key, code in _OTLP_STATUS.items()
}
_OTLP_PARENT_TEXT = ',"parentSpanId":%s'
_OTLP_LINK_TEXT = (
    "{" + "".join(f'"{name}":%s,' for name in _OTLP_LINK_FIELDS) + '"attributes":%s}'
)
#: The envelope around the resource attributes and the spans.
_OTLP_ENVELOPE_TEXT = (
    '{"resourceSpans":[{"resource":{"attributes":',
    '},"scopeSpans":[{"scope":{'
    + ",".join(f"{_json_str(k)}:{_json_str(v)}" for k, v in _OTLP_SCOPE.items())
    + '},"spans":',
    "}]}]}\n",
)


def write_otlp_trace(path: str | Path, spans: Sequence[Span]) -> Path:
    """Write the spans as one OTLP-JSON ``ExportTraceServiceRequest``
    (the ``resourceSpans`` envelope any OTLP/HTTP collector accepts) to
    ``path``, one line, and return the path.

    The text is printed into the file span by span, so no document tree
    is built and no document string either; the bytes are the compact
    encoding of the dict ``tests/oracles/span_documents.py`` builds,
    and a newline (``tests/test_otlp_render.py`` compares them).
    """
    attrs_text = _otlp_attrs_text()
    trace_ids: dict[str, str] = {}  # each escaped once

    def trace_id(text: str) -> str:
        escaped = trace_ids.get(text)
        if escaped is None:
            escaped = trace_ids[text] = _json_str(text)
        return escaped

    def put_link(link: SpanLink) -> None:
        write(_OTLP_LINK_TEXT % (
            trace_id(link.trace_id), _json_str(link.span_id),
            attrs_text(link.attributes.items()),
        ))

    def put_span(s: Span) -> None:
        end = s.end if s.end is not None else s.start
        attrs = s.attributes
        if "repro.span_kind" in attrs:  # first place, the attribute's value
            attrs = {"repro.span_kind": s.kind, **attrs}
            items: Iterable[tuple[str, object]] = attrs.items()
        else:
            items = (("repro.span_kind", s.kind), *attrs.items())
        write(
            _OTLP_SPAN_HEAD
            % (
                trace_id(s.trace_id),
                _json_str(s.span_id),
                _json_str(s.name),
                round(s.start * 1e9),
                round(end * 1e9),
                attrs_text(items),
            )
        )
        write(_OTLP_STATUS_TEXT[s.status])
        if s.parent_span_id is not None:
            write(_OTLP_PARENT_TEXT % _json_str(s.parent_span_id))
        if s.links:
            write(',"links":')
            _write_list(write, s.links, put_link)
        write("}")

    head, middle, tail = _OTLP_ENVELOPE_TEXT
    with atomic_open(path) as out:
        write = out.write
        write(head + attrs_text(_OTLP_RESOURCE.items()) + middle)
        _write_list(write, spans, put_span)
        write(tail)
    return Path(path)


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


def _perfetto_slices(
    spans: Sequence[Span],
) -> tuple[dict[str, int], list[tuple[float, int, int, int, Span]]]:
    """The lanes in order of first use (name -> uuid), and every slice
    edge as (ts, begin, ±depth, uuid, span) in packet order."""
    track_uuids: dict[str, int] = {}
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
        uuid = track_uuids.setdefault(lane, len(track_uuids) + 1)
        d = depth(s)
        slices.append((s.start, 1, d, uuid, s))
        slices.append((s.end, 0, -d, uuid, s))
    slices.sort(key=lambda item: (item[0], item[1], item[2]))
    return track_uuids, slices


# The text rendering, compact: one packet template per kind, with only
# the lane and slice names escaped.

_PERFETTO_TRACK_TEXT = '{"trackDescriptor":{"uuid":%d,"name":%s}}'
_PERFETTO_BEGIN_TEXT = (
    '{"timestamp":%d,"trustedPacketSequenceId":1,"trackEvent":'
    '{"type":"TYPE_SLICE_BEGIN","trackUuid":%d,"name":%s}}'
)
_PERFETTO_END_TEXT = (
    '{"timestamp":%d,"trustedPacketSequenceId":1,"trackEvent":'
    '{"type":"TYPE_SLICE_END","trackUuid":%d}}'
)


def write_perfetto_trace(path: str | Path, spans: Sequence[Span]) -> Path:
    """Write the spans as a Perfetto protobuf-JSON ``TracePacket`` list
    (``traceconv`` / ui.perfetto.dev accept this shape directly) to
    ``path``, one line, and return the path.

    Printed into the file packet by packet like :func:`write_otlp_trace`:
    the bytes are the compact encoding of the dict
    ``tests/oracles/span_documents.py`` builds, and a newline
    (``tests/test_perfetto_render.py`` compares them).
    """
    tracks, slices = _perfetto_slices(spans)

    def packets() -> Iterator[str]:
        for name, uuid in tracks.items():
            yield _PERFETTO_TRACK_TEXT % (uuid, _json_str(name))
        for ts, begin, _, uuid, s in slices:
            ns = int(round(ts * 1e9))
            if begin:
                yield _PERFETTO_BEGIN_TEXT % (ns, uuid, _json_str(s.name))
            else:
                yield _PERFETTO_END_TEXT % (ns, uuid)

    with atomic_open(path) as out:
        out.write('{"packet":')
        _write_list(out.write, packets())
        out.write("}\n")
    return Path(path)
