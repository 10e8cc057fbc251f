"""``event_to_json_line`` prints every ``events.jsonl`` line (and every
journal record body): the shapes a run emits most from templates, any
other line as the compact encoding of ``event_to_json``. That encoding
— of the flattened dict the line spells — is the reference each
template is held to byte for byte, one way out of its shape at a time.

The named cases spell the flattening's key rules as literal lines:
header keys (``event``, ``t``, then each of ``job_name`` … ``attempt``
that is not ``None``) come first; an attempt record's values replace
the header's, and its keys the header lacks follow the header; a
``detail`` key some earlier key already holds keeps the earlier value.

A ``trace.jsonl`` line is a terminal line's attempt record without the
header, printed from the same text; ``compact_json(attempt.to_json())``
is its reference.
"""

from __future__ import annotations

import json
from enum import Enum, IntEnum

import pytest
from hypothesis import given, settings, strategies as st

from repro.dagman.events import JobAttempt, JobStatus, ResourceProfile
from repro.observe.events import TERMINAL_KINDS, EventKind, RunEvent
from repro.observe import log
from repro.observe.log import event_to_json, event_to_json_line
from repro.wms.monitor import write_trace


def reference(event: RunEvent) -> str:
    return json.dumps(event_to_json(event), separators=(",", ":"))


class Level(IntEnum):
    TWO = 2


class Tag(str):
    pass


class Stamp(float):
    """A float whose own ``repr`` the encoder never calls."""

    def __repr__(self) -> str:
        return f"Stamp({float(self)!r})"


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
@settings(max_examples=100, deadline=None)
def test_line_is_the_compact_dict_byte_for_byte(event):
    assert event_to_json_line(event) == reference(event)


# -- the terminal-line template ---------------------------------------------
#
# A platform's ``job.finish`` / ``job.evict`` prints from one template;
# each way an event can leave that shape must leave the template for
# the encoder and still print the reference's bytes. ``events()`` above almost never
# has the shape, so these start from it and break it one way at a time.

finite = st.floats(min_value=0, max_value=1e9) | st.sampled_from([0.0, 1e-7, 0.1])

#: name -> (what to change, drawn from the case's strategy)
FALLBACKS = {
    "bool attempt": lambda draw: {"attempt": True},
    "int-subclass attempt": lambda draw: {"attempt": Level.TWO},
    "int-subclass rss": lambda draw: {"profile": {"max_rss_kb": Level.TWO}},
    "bool read_ops": lambda draw: {"profile": {"read_ops": False}},
    "non-finite time": lambda draw: {
        "t": draw(st.sampled_from([float("inf"), float("-inf"), float("nan")]))
    },
    "non-finite exec_end": lambda draw: {"exec_end": float("inf")},
    "non-finite cpu": lambda draw: {
        "profile": {"cpu_user_s": draw(st.sampled_from([float("inf"), float("nan")]))}
    },
    "int time": lambda draw: {"t": draw(st.integers(min_value=0, max_value=10**6))},
    "bool time": lambda draw: {"t": draw(st.booleans())},
    "float-subclass stamp": lambda draw: {"submit_time": Stamp(0.0)},
    "str-subclass name": lambda draw: {
        draw(st.sampled_from(["job_name", "transformation", "site", "machine"])):
        Tag(draw(texts))
    },
    "str-subclass source": lambda draw: {"profile": {"source": Tag("modelled")}},
    "non-str name": lambda draw: {"machine": draw(st.sampled_from([7, 1.5, None]))},
    "error set": lambda draw: {"error": draw(st.sampled_from(NASTY[1:]))},
    "profile None": lambda draw: {"profile": None},
    "detail key beside status": lambda draw: {
        "detail": {
            "status": "x", draw(keys.filter(lambda k: k != "status")): draw(values)
        }
    },
    "detail without status": lambda draw: {
        "detail": {draw(texts.filter(lambda k: k != "status")): 1}
    },
    "None header field": lambda draw: {
        "header": draw(st.sampled_from(
            ["job_name", "transformation", "site", "machine", "attempt"]
        ))
    },
}


@st.composite
def terminal_cases(draw) -> tuple[RunEvent, str | None]:
    """A terminal event of the template's shape, or (with its name) one
    broken by a single :data:`FALLBACKS` change."""
    broken = draw(st.none() | st.sampled_from(sorted(FALLBACKS)))
    change = FALLBACKS[broken](draw) if broken else {}
    stamps = sorted(draw(st.lists(finite, min_size=4, max_size=4)))
    profile = dict(
        cpu_user_s=draw(finite), cpu_sys_s=draw(finite),
        max_rss_kb=draw(st.integers(min_value=0)),
        read_ops=draw(st.integers(min_value=0, max_value=99)),
        write_ops=draw(st.integers(min_value=0, max_value=99)),
        source=draw(texts),
    )
    profile_change = change.pop("profile", {})
    status = draw(st.sampled_from(JobStatus))
    fields = dict(
        job_name=draw(texts), transformation=draw(texts), site=draw(texts),
        machine=draw(texts), attempt=draw(st.integers(min_value=1)),
        submit_time=stamps[0], setup_start=stamps[1], exec_start=stamps[2],
        exec_end=stamps[3], status=status,
        error=draw(st.sampled_from([None, ""])),
        profile=None if profile_change is None
        else ResourceProfile(**{**profile, **profile_change}),
    )
    t = change.pop("t", fields["exec_end"])
    detail = change.pop("detail", draw(st.sampled_from([{"status": status.value}, {}])))
    absent = change.pop("header", None)
    fields.update(change)
    record = JobAttempt(**fields)
    header = {name: getattr(record, name) for name in
              ("job_name", "transformation", "site", "machine", "attempt")}
    if absent:
        header[absent] = None
    kind = draw(st.sampled_from(sorted(TERMINAL_KINDS, key=lambda k: k.value)))
    return RunEvent(kind, t, record=record, detail=detail, **header), broken


def _templated(event: RunEvent) -> bool:
    return log._print_terminal(event, event.record) is not None


@given(terminal_cases())
@settings(max_examples=500, deadline=None)
def test_terminal_line_is_the_compact_dict(case):
    event, _ = case
    assert event_to_json_line(event) == reference(event)


@given(terminal_cases())
@settings(max_examples=300, deadline=None)
def test_each_fallback_leaves_the_template(case):
    event, broken = case
    assert _templated(event) == (broken is None), broken


def test_overflowing_finite_stamps_fall_back():
    # the finiteness check sums the floats: an overflow is a false alarm,
    # which only costs the encoder
    record = attempt(exec_end=1.5e308, profile=ResourceProfile(cpu_user_s=1.5e308))
    event = RunEvent(EventKind.FINISH, 1.5e308, job_name="a", transformation="t",
                     site="osg", machine="m", attempt=1, record=record)
    assert not _templated(event)
    assert event_to_json_line(event) == reference(event)


# -- the submit / state-change / match / setup- and exec-start templates ---
#
# Each prints from its template only in the exact shape its emitter
# gives it; these start from that shape and break it one way at a time.

#: kind -> header fields its template requires (besides ``t``)
PLACED = ("job_name", "transformation", "site", "machine", "attempt")
REQUIRED = {
    EventKind.SUBMIT: ("job_name", "transformation", "attempt"),
    EventKind.STATE_CHANGE: ("job_name", "transformation"),
    EventKind.MATCH: PLACED,
    EventKind.SETUP_START: PLACED,
    EventKind.EXEC_START: PLACED,
}
SCHEDULER = (EventKind.SUBMIT, EventKind.STATE_CHANGE)
PLATFORM = (EventKind.MATCH, EventKind.SETUP_START, EventKind.EXEC_START)
ALL = (*SCHEDULER, *PLATFORM)
states = st.sampled_from(["unready", "ready", "submitted", "done", "failed"]) | texts


def _set(**fields):
    return lambda draw, kind, header, detail: header.update(fields)


def _detail(fn):
    return lambda draw, kind, header, detail: detail.update(fn(draw))


def _none_header(draw, kind, header, detail):
    header[draw(st.sampled_from(REQUIRED[kind]))] = None


def _str_subclass(draw, kind, header, detail):
    name = draw(st.sampled_from([k for k in REQUIRED[kind] if k != "attempt"]))
    header[name] = Tag(header[name])


def _odd_value(draw, kind, header, detail):
    if kind is EventKind.SUBMIT:
        detail["expected_s"] = draw(st.sampled_from(
            [True, float("nan"), float("inf"), Stamp(1.0), "1", None, Level.TWO]))
    elif kind is EventKind.STATE_CHANGE:
        key = draw(st.sampled_from(["from", "to"]))
        detail[key] = draw(st.sampled_from([Tag(detail[key]), None, 1]))
    else:
        detail["queue_depth"] = draw(st.sampled_from([True, Level.TWO, 1.0, None, "1"]))


def _released(draw, kind, header, detail):
    """A ``released_by`` / ``released_attempt`` pair not of its shape."""
    by, by_attempt = draw(st.sampled_from([
        ("parent", True), ("parent", None), ("parent", Level.TWO), ("parent", 1.5),
        (Tag("parent"), 1), (None, 1), (7, 1),
    ]))
    detail.update(released_by=by, released_attempt=by_attempt)


def _released_alone(draw, kind, header, detail):
    detail.pop("released_attempt", None)
    detail["released_by"] = "parent"


#: name -> (kinds it applies to, the change)
PLAIN_FALLBACKS = {
    "service tags in detail": (ALL, _detail(lambda draw: {
        "tenant": draw(texts), "workflow": draw(texts)})),
    "released_by not of its shape": (ALL, _released),
    "released_by alone": (ALL, _released_alone),
    "None header field": (ALL, _none_header),
    "site on a scheduler event": (SCHEDULER, _set(site="osg")),
    "machine on a scheduler event": (SCHEDULER, _set(machine="m-0")),
    "bool attempt": (ALL, _set(attempt=True)),
    "IntEnum attempt": (ALL, _set(attempt=Level.TWO)),
    "non-finite time": (ALL, lambda draw, kind, header, detail: header.update(
        t=draw(st.sampled_from([float("inf"), float("-inf"), float("nan")])))),
    "int time": (ALL, _set(t=3)),
    "bool time": (ALL, _set(t=False)),
    "float-subclass time": (ALL, _set(t=Stamp(2.0))),
    "str-subclass name": (ALL, _str_subclass),
    "detail value of another type": (ALL, _odd_value),
    "detail key missing": ((EventKind.SUBMIT, EventKind.MATCH),
                           lambda draw, kind, header, detail: detail.clear()),
    "detail keys reordered": ((EventKind.STATE_CHANGE,),
                              lambda draw, kind, header, detail: detail.update(
                                  {"from": detail.pop("from")})),
}


@st.composite
def plain_cases(draw, kind: EventKind, broken: str | None) -> RunEvent:
    """An event of *kind* in its template's shape, or broken by the one
    :data:`PLAIN_FALLBACKS` change named *broken*."""
    header: dict = dict(t=draw(finite), job_name=draw(texts),
                        transformation=draw(texts),
                        attempt=draw(st.integers(min_value=1)))
    if kind is EventKind.SUBMIT:
        detail: dict = {"expected_s": draw(finite | st.integers(min_value=0))}
    elif kind is EventKind.STATE_CHANGE:
        header["attempt"] = draw(st.none() | st.integers(min_value=1))
        detail = {"from": draw(states), "to": draw(states)}
        if draw(st.booleans()):
            detail.update(released_by=draw(texts),
                          released_attempt=draw(st.integers(min_value=1)))
    else:
        header.update(site=draw(texts), machine=draw(texts))
        detail = {"queue_depth": draw(st.integers(min_value=0))} if (
            kind is EventKind.MATCH) else {}
    if broken:
        PLAIN_FALLBACKS[broken][1](draw, kind, header, detail)
    return RunEvent(kind, header.pop("t"), **header, detail=detail)


#: Every kind in its shape, then every way out of it that applies.
PLAIN_CASES = [(kind, None) for kind in ALL] + [
    (kind, broken)
    for broken, (kinds, _) in PLAIN_FALLBACKS.items()
    for kind in kinds
]


@pytest.mark.parametrize(
    "kind,broken", PLAIN_CASES,
    ids=[f"{kind.value}-{broken or 'template'}".replace(" ", "-")
         for kind, broken in PLAIN_CASES],
)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_plain_line_is_the_compact_dict_one_fallback_at_a_time(kind, broken, data):
    event = data.draw(plain_cases(kind, broken))
    assert event_to_json_line(event) == reference(event)
    assert (log._PLAIN[kind](event) is not None) == (broken is None)


def test_time_memo_is_by_identity():
    # 0.0 and -0.0 are equal and spelled apart: the memo of the last time
    # spelled must not hand one the other's text
    for t in (0.0, -0.0, 0.0, float("0.0")):
        event = RunEvent(EventKind.SUBMIT, t, job_name="a", transformation="t",
                         attempt=1, detail={"expected_s": 1.5})
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


#: :func:`attempt`'s stamps and profile as a line spells them.
STAMPS = '"submit_time":0.0,"setup_start":1.0,"exec_start":2.5,"exec_end":4.0'
PROFILE = (
    '"profile":{"cpu_user_s":1.25,"cpu_sys_s":0.0,"max_rss_kb":10,'
    '"read_ops":0,"write_ops":0,"source":"modelled"}'
)


class TestNamedCases:
    @staticmethod
    def check(event, line):
        assert event_to_json_line(event) == line
        assert reference(event) == line

    def test_state_change(self):
        self.check(RunEvent(EventKind.STATE_CHANGE, 3.5, job_name="a",
                            transformation="t", attempt=1,
                            detail={"from": "ready", "to": "submitted"}),
                   '{"event":"job.state_change","t":3.5,"job_name":"a",'
                   '"transformation":"t","attempt":1,"from":"ready",'
                   '"to":"submitted"}')

    def test_header_first(self):
        # each header key the event has, in header order, then detail
        self.check(RunEvent(EventKind.SAMPLE, 60.0, site="osg", attempt=2,
                            detail={"busy": 3, "idle": 1}),
                   '{"event":"platform.sample","t":60.0,"site":"osg",'
                   '"attempt":2,"busy":3,"idle":1}')

    def test_finish_with_and_without_error_and_profile(self):
        self.check(RunEvent(EventKind.FINISH, 4.0, job_name="a", transformation="t",
                            site="osg", machine="m", attempt=1, record=attempt()),
                   '{"event":"job.finish","t":4.0,"job_name":"a",'
                   '"transformation":"t","site":"osg","machine":"m","attempt":1,'
                   + STAMPS + ',"status":"succeeded",' + PROFILE + "}")
        self.check(RunEvent(EventKind.FINISH, 4.0, job_name="a", record=attempt(
            status=JobStatus.FAILED, error="exit 1", profile=None)),
                   '{"event":"job.finish","t":4.0,"job_name":"a",'
                   '"transformation":"t","site":"osg","machine":"m","attempt":1,'
                   + STAMPS + ',"status":"failed","error":"exit 1"}')

    #: header field left ``None`` -> the line's keys before ``submit_time``:
    #: the record's values, the absent key after the header's others
    RECORD_HEADS = {
        "job_name": '"transformation":"t","site":"osg","machine":"m",'
                    '"attempt":1,"job_name":"a"',
        "site": '"job_name":"a","transformation":"t","machine":"m",'
                '"attempt":1,"site":"osg"',
        "attempt": '"job_name":"a","transformation":"t","site":"osg",'
                   '"machine":"m","attempt":1',
    }

    @pytest.mark.parametrize("absent", ["job_name", "site", "attempt"])
    def test_record_event_with_a_none_header_field(self, absent):
        header = dict(job_name="hdr", transformation="hdr", site="hdr",
                      machine="hdr", attempt=9)
        header[absent] = None
        self.check(RunEvent(EventKind.EVICT, 4.0, **header,
                            record=attempt(status=JobStatus.EVICTED)),
                   '{"event":"job.evict","t":4.0,' + self.RECORD_HEADS[absent]
                   + "," + STAMPS + ',"status":"evicted",' + PROFILE + "}")

    def test_detail_keys_that_collide(self):
        self.check(RunEvent(EventKind.FINISH, 1.0, job_name="a", record=attempt(),
                            detail={"t": "late", "status": "x", "job_name": "b",
                                    "error": "kept: the record has none",
                                    Tag("profile"): 0, "extra": 1}),
                   '{"event":"job.finish","t":1.0,"job_name":"a",'
                   '"transformation":"t","site":"osg","machine":"m","attempt":1,'
                   + STAMPS + ',"status":"succeeded",' + PROFILE
                   + ',"error":"kept: the record has none","extra":1}')
        self.check(RunEvent(EventKind.SUBMIT, 1.0, detail={
            "job_name": "the header has none", "event": "dropped",
            "site": None, 1: "int key", 1.5: "float key", None: "null key",
        }), '{"event":"job.submit","t":1.0,"job_name":"the header has none",'
            '"site":null,"1":"int key","1.5":"float key","null":"null key"}')

    def test_number_spellings(self):
        # the compact encoder spells values as json.dumps does
        for event in (
            RunEvent(EventKind.SAMPLE, -0.0, detail={
                "one": 1, "float": 1.0, "bool": True, "enum": Level.TWO,
                "inf": float("inf"), "nan": float("nan"), "big": 10**40,
                "nested": [1, 1.0, True, {"k": (Tag("s"), -0.0)}],
            }),
            RunEvent(EventKind.SAMPLE, True),
            RunEvent(EventKind.SAMPLE, Level.TWO, attempt=Level.TWO),
        ):
            assert event_to_json_line(event) == reference(event)

    @pytest.mark.parametrize("text", NASTY)
    def test_escapes(self, text):
        # through the terminal template, every name and the source escaped
        names = dict(job_name=text, transformation=text, site=text, machine=text)
        event = RunEvent(EventKind.FINISH, 4.0, **names, attempt=1, record=attempt(
            **names, profile=ResourceProfile(cpu_user_s=1.25, source=text)))
        assert _templated(event)
        assert event_to_json_line(event) == reference(event)


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


# -- trace.jsonl: the attempt record without the header ----------------------
#
# ``attempt_to_json_line`` prints a ``trace.jsonl`` line from the same
# attempt text the terminal template ends in; the compact encoding of
# ``attempt.to_json()`` is its reference.


def record_reference(record: JobAttempt) -> str:
    return json.dumps(record.to_json(), separators=(",", ":"))


@given(terminal_cases())
@settings(max_examples=300, deadline=None)
def test_trace_line_is_the_terminal_line_without_its_header(case):
    event, _ = case
    line = log.attempt_to_json_line(event.record)
    assert line == record_reference(event.record)
    if _templated(event):
        head = json.dumps({"event": event.kind.value, "t": event.time},
                          separators=(",", ":"))[:-1]
        assert event_to_json_line(event) == head + "," + line[1:]


@given(st.lists(records(), max_size=6))
@settings(max_examples=120, deadline=None)
def test_trace_file_is_one_compact_record_per_line(tmp_path_factory, batch):
    path = tmp_path_factory.getbasetemp() / "property.trace.jsonl"
    assert write_trace(path, batch) == len(batch)
    assert path.read_text() == "".join(record_reference(a) + "\n" for a in batch)


class OtherStatus(Enum):
    """A status of another enum, with a ``JobStatus`` value."""

    SUCCEEDED = "succeeded"


#: One float object, as a platform stamps a job with no setup phase.
SETUP = 2.5


class TestTraceLineOneFallbackAtATime:
    """The template's shape, then each way out of it on its own."""

    CASES = {
        "template": attempt(),
        "setup is start": attempt(setup_start=SETUP, exec_start=SETUP),
        "equal, not the same object": attempt(setup_start=2.5, exec_start=float("2.5")),
        "no profile": attempt(profile=None),
        "error": attempt(status=JobStatus.FAILED, error="exit 1 ü"),
        "empty error": attempt(error=""),
        "negative zero start": attempt(setup_start=0.0, exec_start=-0.0),
        "str subclass": attempt(machine=Tag("m-0")),
        "non-str machine": attempt(machine=7),
        "None job_name": attempt(job_name=None),
        "str subclass error": attempt(error=Tag("x")),
        "non-str error": attempt(error=7),
        "status of another enum": attempt(status=OtherStatus.SUCCEEDED),
        "bool attempt": attempt(attempt=True),
        "IntEnum attempt": attempt(attempt=Level.TWO),
        "int time": attempt(submit_time=0),
        "bool time": attempt(submit_time=True),
        "float subclass submit": attempt(submit_time=Stamp(0.5)),
        "float subclass end": attempt(exec_end=Stamp(4.0)),
        "infinite end": attempt(exec_end=float("inf")),
        "non-finite CPU": attempt(profile=ResourceProfile(float("nan"), 0.0)),
        "int CPU": attempt(profile=ResourceProfile(2, 0.0)),
        "float subclass system CPU": attempt(profile=ResourceProfile(0.5, Stamp(0.25))),
        "bool counter": attempt(profile=ResourceProfile(0.5, 0.5, True)),
        "str subclass source": attempt(profile=ResourceProfile(source=Tag("m"))),
        "non-str source": attempt(profile=ResourceProfile(source=None)),
    }

    def test_each_case(self, tmp_path):
        for name, record in self.CASES.items():
            path = tmp_path / "t.jsonl"
            write_trace(path, [record])
            assert path.read_text() == record_reference(record) + "\n", name
