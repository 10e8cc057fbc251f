"""``write_perfetto_trace`` prints ``trace.perfetto.json`` straight from
the spans; ``to_perfetto_json`` is the reference it is held to.

The file must be, byte for byte, ``to_perfetto_json(spans)`` encoded
compact (``json.dumps(doc, separators=(",", ":"))``), plus a newline.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.observe.trace import Span, write_perfetto_trace
from tests.oracles.span_documents import to_perfetto_json


def reference(spans) -> bytes:
    return (json.dumps(to_perfetto_json(spans), separators=(",", ":")) + "\n").encode()


NASTY = [
    "", '"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "\U0001f9ec",
    "%s", "%d", "{}", '"packet": []', "TYPE_SLICE_END",
]
texts = st.sampled_from(NASTY) | st.text(max_size=8)
#: Attributes that choose a lane, with values that print oddly in one.
attributes = st.fixed_dictionaries({}, optional={
    "workflow": texts | st.sampled_from([0, None, 1.5]),
    "phase": st.sampled_from(["admission", "setup", "exec", "waiting"]),
    "machine": texts | st.sampled_from([0, None]),
    "site": texts,
})
ids = st.sampled_from(["a", "b", "c", "d"])
times = st.sampled_from([0.0, -0.0, 1.0, 1e-9, 0.5e-9, 1.5e-9, 1e6]) | st.floats(
    min_value=-1e6, max_value=1e6)
spans = st.builds(
    Span,
    name=texts,
    kind=st.sampled_from(["run", "workflow", "service", "phase", "job"]) | texts,
    trace_id=st.just("ab" * 16),
    span_id=ids,
    parent_span_id=st.none() | ids,
    start=times,
    end=st.none() | times,
    attributes=attributes,
)


@given(st.lists(spans, max_size=8))
@settings(max_examples=200, deadline=None)
def test_file_is_the_indented_dict_api_byte_for_byte(tmp_path_factory, forest):
    path = tmp_path_factory.getbasetemp() / "property.perfetto.json"
    assert write_perfetto_trace(path, forest) == path
    assert path.read_bytes() == reference(forest)


def span(name, kind, span_id, parent=None, start=0.0, end=1.0, **attributes):
    return Span(name=name, kind=kind, trace_id="ab" * 16, span_id=span_id,
                parent_span_id=parent, start=start, end=end,
                attributes=attributes)


class TestNamedCases:
    def check(self, tmp_path, forest):
        path = write_perfetto_trace(tmp_path / "t.json", forest)
        assert path.read_bytes() == reference(forest)

    def test_no_spans(self, tmp_path):
        self.check(tmp_path, [])

    def test_only_spans_without_a_lane(self, tmp_path):
        self.check(tmp_path, [span("j", "job", "a"),
                              span("open", "run", "b", end=None)])

    def test_nested_lanes_and_equal_timestamps(self, tmp_path):
        self.check(tmp_path, [
            span("run", "run", "r"),
            span("wf", "workflow", "w", parent="r", workflow="x"),
            span("setup", "phase", "s", parent="w", end=0.5, phase="setup",
                 site="osg", machine="m1"),
            span("exec", "phase", "e", parent="w", start=0.5, phase="exec",
                 site="osg", machine="m1"),
            span("adm", "phase", "a", phase="admission", workflow="x"),
            span("svc", "service", "v", workflow="x"),
        ])

    @pytest.mark.parametrize("text", NASTY)
    def test_escapes(self, tmp_path, text):
        self.check(tmp_path, [
            span(text, "workflow", "w", workflow=text),
            span(text, "phase", "e", phase="exec", site=text, machine=text),
        ])
