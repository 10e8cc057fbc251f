"""``write_otlp_trace`` prints ``trace.otlp.json`` straight from the
spans; ``to_otlp_json`` is the reference it is held to.

The writer never builds the document tree, so nothing but these tests
ties its text to the dict API: the file must be, byte for byte,
``json.dumps(to_otlp_json(spans, **kw), indent=1)`` plus a newline —
the expression the writer used to be.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.observe.trace import Span, SpanLink, to_otlp_json, write_otlp_trace


def reference(spans, **kw) -> bytes:
    return (json.dumps(to_otlp_json(spans, **kw), indent=1) + "\n").encode()


def span(name="s", *, attributes=None, links=(), parent=None, end=1.5,
         kind="job", status="unset", trace_id="ab" * 16, span_id="cd" * 8):
    return Span(
        name=name, kind=kind, trace_id=trace_id, span_id=span_id,
        parent_span_id=parent, start=0.25, end=end,
        attributes=dict(attributes or {}), links=list(links), status=status,
    )


#: Strings the JSON escaper has a rule for: quote, backslash, control
#: characters, DEL, non-ASCII, astral (a surrogate pair under
#: ``ensure_ascii``), and text that looks like the document's own syntax.
NASTY = [
    "", '"', "\\", '\\"', "\n", "\t", "\x00", "\x1f", "\x7f", "é", "ß→",
    " ", "\U0001f9ec", "a\U00010000b", '"spans": []', "%s", "%(x)s",
    "{}", "repro.span_kind", "service.name",
]
texts = st.sampled_from(NASTY) | st.text(max_size=12)
#: Few enough keys that spans repeat (key, value) pairs, and values that
#: are equal across types or print differently while equal.
keys = st.sampled_from(["job", "attempt", "k", "repro.span_kind"]) | texts
floats = st.sampled_from(
    [0.0, -0.0, 1.0, 1e-7, 1e22, 1e16, 5e-324, 1.7976931348623157e308,
     float("inf"), float("-inf"), float("nan")]
) | st.floats()
scalars = (
    st.sampled_from([0, 1, True, False, "1", "True", "0.0", None])
    | texts
    | st.integers()
    | st.integers(min_value=10**30, max_value=10**40)
    | st.booleans()
    | floats
)
values = scalars | st.lists(scalars, max_size=3) | st.tuples(scalars)
attrs = st.dictionaries(keys, values, max_size=5)
ids = st.sampled_from(["ab" * 16, "cd" * 8]) | texts
times = st.floats(min_value=-1e9, max_value=1e9)
links = st.lists(
    st.builds(SpanLink, trace_id=ids, span_id=ids, attributes=attrs),
    max_size=3,
)
spans = st.builds(
    Span,
    name=texts,
    kind=texts,
    trace_id=ids,
    span_id=ids,
    parent_span_id=st.none() | ids,
    start=times,
    end=st.none() | times,
    attributes=attrs,
    links=links,
    status=st.sampled_from(["unset", "ok", "error"]),
)
envelopes = st.fixed_dictionaries(
    {},
    optional={
        "service_name": texts,
        "resource_attributes": st.none() | attrs,
    },
)


@given(st.lists(spans, max_size=5), envelopes)
@settings(max_examples=120, deadline=None)
def test_file_is_the_indented_dict_api_byte_for_byte(tmp_path_factory, forest, kw):
    path = tmp_path_factory.getbasetemp() / "property.otlp.json"
    assert write_otlp_trace(path, forest, **kw) == path
    assert path.read_bytes() == reference(forest, **kw)


class TestNamedCases:
    """Each case a renderer has got wrong (or could), on its own, so a
    failure names it without waiting for hypothesis to find it."""

    def check(self, tmp_path, forest, **kw):
        path = write_otlp_trace(tmp_path / "t.json", forest, **kw)
        assert path.read_bytes() == reference(forest, **kw)

    def test_empty_span_list(self, tmp_path):
        self.check(tmp_path, [])

    def test_resource_envelope(self, tmp_path):
        self.check(
            tmp_path, [span()], service_name='svc "é"',
            resource_attributes={"host": "h\n", "service.name": "wins", "n": 3},
        )
        self.check(tmp_path, [], resource_attributes={})

    def test_open_root_span_without_attributes(self, tmp_path):
        self.check(tmp_path, [span(end=None, parent=None, attributes={})])

    def test_span_kind_attribute_keeps_first_place(self, tmp_path):
        forest = [span(kind="job", attributes={"a": 1, "repro.span_kind": "x"})]
        self.check(tmp_path, forest)
        first = to_otlp_json(forest)["resourceSpans"][0]["scopeSpans"][0][
            "spans"][0]["attributes"][0]
        assert first == {"key": "repro.span_kind",
                         "value": {"stringValue": "x"}}

    def test_links_with_and_without_attributes(self, tmp_path):
        bare = SpanLink("ab" * 16, "01" * 8)
        full = SpanLink("ab" * 16, "02" * 8, {"relation": "retry_of", "n": 2})
        self.check(tmp_path, [
            span(links=[bare]), span(links=[full, bare, full], parent="ef" * 8),
        ])

    def test_list_valued_attribute(self, tmp_path):
        # A rescue_continuation link carries the failed-job list; it is
        # printed through str() and cannot key a dict.
        rescue = SpanLink("ab" * 16, "03" * 8, {
            "relation": "rescue_continuation", "failed": ["a", 'b"'],
        })
        self.check(tmp_path, [span(links=[rescue, rescue]),
                              span(attributes={"failed": [], "t": (0.0,)}),
                              span(attributes={"failed": [], "t": (-0.0,)})])

    def test_equal_values_that_print_differently(self, tmp_path):
        # One key, values equal under == (and as dict keys) across spans.
        for pair in [(1, True), (True, 1), (0, False), (1, 1.0), (1.0, 1),
                     (0.0, -0.0), (-0.0, 0.0), ("1", 1), ((1,), (True,))]:
            self.check(tmp_path, [span(attributes={"k": v}) for v in pair])

    def test_numbers(self, tmp_path):
        self.check(tmp_path, [span(attributes={
            "tiny": 1e-7, "big": 1e22, "edge": 1e16, "denormal": 5e-324,
            "huge": 10**40, "neg": -(2**63) - 1, "third": 1 / 3,
        })])

    @pytest.mark.parametrize("text", NASTY)
    def test_escapes(self, tmp_path, text):
        self.check(
            tmp_path,
            [span(name=text, kind=text, trace_id=text, span_id=text,
                  parent=text, attributes={text: text},
                  links=[SpanLink(text, text, {text: text})])],
            service_name=text, resource_attributes={text: text},
        )


class TestNonFiniteDoubles:
    """proto3 JSON spells them as strings; a bare ``Infinity`` or
    ``NaN`` is not JSON, though ``json.loads`` lets it through."""

    CASES = [(float("inf"), "Infinity"), (float("-inf"), "-Infinity"),
             (float("nan"), "NaN")]

    @staticmethod
    def strict(text):
        def refuse(token):
            raise AssertionError(f"bare {token} in the document")
        return json.loads(text, parse_constant=refuse)

    @pytest.mark.parametrize("value,spelling", CASES)
    def test_dict_api_and_file_agree(self, tmp_path, value, spelling):
        forest = [span(attributes={"x": value},
                       links=[SpanLink("ab" * 16, "01" * 8, {"y": value})])]
        doc = to_otlp_json(forest, resource_attributes={"z": value})
        path = write_otlp_trace(
            tmp_path / "t.json", forest, resource_attributes={"z": value}
        )
        assert self.strict(path.read_text()) == doc
        assert self.strict(json.dumps(doc)) == doc
        resource = doc["resourceSpans"][0]
        row = resource["scopeSpans"][0]["spans"][0]
        want = {"doubleValue": spelling}
        assert resource["resource"]["attributes"][-1]["value"] == want
        assert row["attributes"][-1]["value"] == want
        assert row["links"][0]["attributes"][0]["value"] == want
