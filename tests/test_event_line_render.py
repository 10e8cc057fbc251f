"""``event_to_json_line`` prints every ``events.jsonl`` line (and every
journal record body) straight from the event; the compact encoding of
``event_to_json`` — the flattened dict the line spells — is the
reference it is held to byte for byte.

What the printer must get right beyond the spelling of values is the
flattening's key rules: header keys (``event``, ``t``, then each of
``job_name`` … ``attempt`` that is not ``None``) come first; an attempt
record's values replace the header's, and its keys the header lacks
follow the header; a ``detail`` key some earlier key already holds
keeps the earlier value.
"""

from __future__ import annotations

import json
from enum import IntEnum

import pytest
from hypothesis import given, settings, strategies as st

from repro.dagman.events import JobAttempt, JobStatus, ResourceProfile
from repro.observe.events import TERMINAL_KINDS, EventKind, RunEvent
from repro.observe.log import event_to_json, event_to_json_line


def reference(event: RunEvent) -> str:
    return json.dumps(event_to_json(event), separators=(",", ":"))


class Level(IntEnum):
    TWO = 2


class Tag(str):
    pass


NASTY = [
    "", '"', "\\", '\\"', "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "é",
    "ß→", "\U0001f9ec", "a\U00010000b", "%s", "%(t)s", "{}", "{t}",
    '","t":', "}",
]
texts = st.sampled_from(NASTY) | st.text(max_size=8)
floats = st.sampled_from(
    [0.0, -0.0, 1.0, 1e-7, 1e16, 1e22, 5e-324, float("inf"), float("-inf"),
     float("nan")]
) | st.floats()
scalars = (
    st.sampled_from([0, 1, 1.0, True, False, None, Level.TWO, Tag("t"),
                     "1", "true"])
    | texts
    | st.integers()
    | st.integers(min_value=10**30, max_value=10**40)
    | floats
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.tuples(inner)
    | st.dictionaries(texts, inner, max_size=3),
    max_leaves=6,
)
#: Every key the header and the record can hold, so ``detail`` collides
#: with them, besides keys the encoder spells for itself.
LINE_KEYS = [
    "event", "t", "job_name", "transformation", "site", "machine",
    "attempt", "submit_time", "setup_start", "exec_start", "exec_end",
    "status", "error", "profile",
]
keys = (
    st.sampled_from(LINE_KEYS)
    | st.builds(Tag, st.sampled_from(LINE_KEYS))
    | texts
    | st.sampled_from([1, 1.0, -0.5, True, False, None, Level.TWO,
                       float("inf"), float("nan")])
)
details = st.dictionaries(keys, values, max_size=5)
header_values = st.none() | texts | st.sampled_from([0, 2, Level.TWO, Tag("x"), 1.5])
profiles = st.builds(
    ResourceProfile,
    cpu_user_s=st.sampled_from([0.0, 0, 1.5, 1e22]) | st.floats(min_value=0),
    cpu_sys_s=st.floats(min_value=0, allow_infinity=False),
    max_rss_kb=st.integers(min_value=0) | st.just(Level.TWO),
    read_ops=st.integers(min_value=0),
    write_ops=st.integers(min_value=0),
    source=texts,
)


@st.composite
def records(draw) -> JobAttempt:
    stamps = sorted(draw(st.lists(
        st.sampled_from([0, 0.0, 1, 2.5]) | st.floats(min_value=0, max_value=1e9),
        min_size=4, max_size=4,
    )))
    return JobAttempt(
        job_name=draw(texts),
        transformation=draw(texts),
        site=draw(texts),
        machine=draw(texts),
        attempt=draw(st.integers(min_value=1) | st.sampled_from([True, Level.TWO])),
        submit_time=stamps[0],
        setup_start=stamps[1],
        exec_start=stamps[2],
        exec_end=stamps[3],
        status=draw(st.sampled_from(JobStatus)),
        error=draw(st.none() | texts),
        profile=draw(st.none() | profiles),
    )


@st.composite
def events(draw) -> RunEvent:
    kind = draw(st.sampled_from(EventKind))
    return RunEvent(
        kind,
        draw(floats | st.integers() | st.just(True)),
        job_name=draw(header_values),
        transformation=draw(header_values),
        site=draw(header_values),
        machine=draw(header_values),
        attempt=draw(st.none() | st.integers() | st.just(Level.TWO)),
        record=draw(records()) if kind in TERMINAL_KINDS else None,
        detail=draw(details),
    )


@given(events())
@settings(max_examples=400, deadline=None)
def test_line_is_the_compact_dict_byte_for_byte(event):
    assert event_to_json_line(event) == reference(event)


def attempt(**changes) -> JobAttempt:
    fields = dict(
        job_name="a", transformation="t", site="osg", machine="m", attempt=1,
        submit_time=0.0, setup_start=1.0, exec_start=2.5, exec_end=4.0,
        status=JobStatus.SUCCEEDED,
        profile=ResourceProfile(cpu_user_s=1.25, max_rss_kb=10, source="modelled"),
    )
    fields.update(changes)
    return JobAttempt(**fields)


class TestNamedCases:
    @staticmethod
    def check(event):
        assert event_to_json_line(event) == reference(event)

    def test_state_change(self):
        self.check(RunEvent(EventKind.STATE_CHANGE, 3.5, job_name="a",
                            transformation="t", attempt=1,
                            detail={"from": "ready", "to": "submitted"}))

    def test_finish_with_and_without_error_and_profile(self):
        self.check(RunEvent(EventKind.FINISH, 4.0, job_name="a", transformation="t",
                            site="osg", machine="m", attempt=1, record=attempt()))
        self.check(RunEvent(EventKind.FINISH, 4.0, job_name="a", record=attempt(
            status=JobStatus.FAILED, error="exit 1", profile=None)))

    @pytest.mark.parametrize("absent", ["job_name", "site", "attempt"])
    def test_record_event_with_a_none_header_field(self, absent):
        header = dict(job_name="hdr", transformation="hdr", site="hdr",
                      machine="hdr", attempt=9)
        header[absent] = None
        event = RunEvent(EventKind.EVICT, 4.0, **header,
                         record=attempt(status=JobStatus.EVICTED))
        self.check(event)
        line = json.loads(event_to_json_line(event))
        assert list(line)[:6] == ["event", "t", *[k for k in header if k != absent]]
        assert list(line)[6] == absent  # after the header, before submit_time
        assert line["site"] == "osg"  # the record's value wins

    def test_detail_keys_that_collide(self):
        self.check(RunEvent(EventKind.FINISH, 1.0, job_name="a", record=attempt(),
                            detail={"t": "late", "status": "x", "job_name": "b",
                                    "error": "kept: the record has none",
                                    Tag("profile"): 0, "extra": 1}))
        self.check(RunEvent(EventKind.SUBMIT, 1.0, detail={
            "job_name": "the header has none", "event": "dropped",
            "site": None, 1: "int key", 1.5: "float key", None: "null key",
        }))

    def test_number_spellings(self):
        self.check(RunEvent(EventKind.SAMPLE, -0.0, detail={
            "one": 1, "float": 1.0, "bool": True, "enum": Level.TWO,
            "inf": float("inf"), "nan": float("nan"), "big": 10**40,
            "nested": [1, 1.0, True, {"k": (Tag("s"), -0.0)}],
        }))
        self.check(RunEvent(EventKind.SAMPLE, True))
        self.check(RunEvent(EventKind.SAMPLE, Level.TWO, attempt=Level.TWO))

    @pytest.mark.parametrize("text", NASTY)
    def test_escapes(self, text):
        self.check(RunEvent(EventKind.FINISH, 1.0, job_name=text, site=text,
                            record=attempt(machine=text, error=text or None),
                            detail={text: text}))


def test_non_string_key_the_encoder_refuses_is_refused():
    event = RunEvent(EventKind.SAMPLE, 0.0, detail={(1, 2): "tuple key"})
    with pytest.raises(TypeError):
        reference(event)
    with pytest.raises(TypeError):
        event_to_json_line(event)


def test_line_is_printed_once_per_event():
    event = RunEvent(EventKind.SUBMIT, 1.0, job_name="a")
    assert event_to_json_line(event) is event_to_json_line(event)
    assert event_to_json(event) == json.loads(event_to_json_line(event))
