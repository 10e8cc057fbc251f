"""The span exports as dicts: the documents ``repro-run`` prints.

:func:`repro.observe.trace.write_otlp_trace` and
:func:`~repro.observe.trace.write_perfetto_trace` print their files
straight from the spans; for any spans the bytes must be
``json.dumps(doc, indent=1) + "\\n"`` of these documents
(``tests/test_otlp_render.py``, ``tests/test_perfetto_render.py``).
They read the same value typing, status codes, resource, scope and
lanes as the writers, so only the layout is checked twice.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.observe.trace import (
    _OTLP_LINK_FIELDS,
    _OTLP_RESOURCE,
    _OTLP_SCOPE,
    _OTLP_STATUS,
    Span,
    SpanLink,
    _otlp_value,
    _perfetto_slices,
)

__all__ = ["to_otlp_json", "to_perfetto_json"]

#: A span's string-valued fields in wire order; ``attributes``,
#: ``status`` and the optional ``parentSpanId`` and ``links`` follow.
OTLP_SPAN_FIELDS = (
    "traceId",
    "spanId",
    "name",
    "kind",
    "startTimeUnixNano",
    "endTimeUnixNano",
)


def _span_fields(s: Span) -> tuple[str, ...]:
    """Values for :data:`OTLP_SPAN_FIELDS`; an open span ends where it
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


def _link_fields(link: SpanLink) -> tuple[str, ...]:
    return link.trace_id, link.span_id


def _attrs(attrs: Mapping[str, object]) -> list[dict[str, object]]:
    rendered: list[dict[str, object]] = []
    for key, value in attrs.items():
        field, scalar = _otlp_value(value)
        rendered.append({"key": key, "value": {field: scalar}})
    return rendered


def to_otlp_json(spans: Sequence[Span]) -> dict[str, object]:
    """Render spans as one OTLP-JSON ``ExportTraceServiceRequest``
    (the ``resourceSpans`` envelope any OTLP/HTTP collector accepts)."""
    rendered: list[dict[str, object]] = []
    for s in spans:
        entry: dict[str, object] = dict(zip(OTLP_SPAN_FIELDS, _span_fields(s)))
        entry["attributes"] = _attrs({"repro.span_kind": s.kind, **s.attributes})
        entry["status"] = {"code": _OTLP_STATUS[s.status]}
        if s.parent_span_id is not None:
            entry["parentSpanId"] = s.parent_span_id
        if s.links:
            entry["links"] = [
                {
                    **dict(zip(_OTLP_LINK_FIELDS, _link_fields(link))),
                    "attributes": _attrs(link.attributes),
                }
                for link in s.links
            ]
        rendered.append(entry)
    return {
        "resourceSpans": [
            {
                "resource": {"attributes": _attrs(_OTLP_RESOURCE)},
                "scopeSpans": [
                    {"scope": dict(_OTLP_SCOPE), "spans": rendered}
                ],
            }
        ]
    }


def to_perfetto_json(spans: Sequence[Span]) -> dict[str, object]:
    """Render spans as Perfetto protobuf-JSON ``TracePacket`` list
    (``traceconv`` / ui.perfetto.dev accept this shape directly)."""
    tracks, slices = _perfetto_slices(spans)
    packets: list[dict[str, object]] = [
        {"trackDescriptor": {"uuid": uuid, "name": name}}
        for name, uuid in tracks.items()
    ]
    for ts, begin, _, uuid, s in slices:
        event: dict[str, object] = {
            "type": "TYPE_SLICE_BEGIN" if begin else "TYPE_SLICE_END",
            "trackUuid": uuid,
        }
        if begin:
            event["name"] = s.name
        packets.append({
            "timestamp": int(round(ts * 1e9)),
            "trustedPacketSequenceId": 1,
            "trackEvent": event,
        })
    return {"packet": packets}
