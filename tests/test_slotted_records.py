"""``DagJob``, ``JobAttempt``, ``ResourceProfile`` and ``RunEvent`` are
slotted and built by :func:`~repro.dagman.events.one_step_init`; what a
frozen dataclass promised before they were must still hold.

``slots=True`` makes ``@dataclass`` build a *new* class, so everything
that goes through the class object is checked again here: pickle and
``copy`` (a slotted frozen instance has no ``__dict__`` to restore into
and refuses ``setattr``), ``dataclasses.replace``, ``fields()`` order
(``observe/log.py`` derives its known-key set from
``fields(JobAttempt)``), hashing, and each ``__post_init__`` refusal
with its message as callers and users have seen it. The constructors
themselves are held to the stock dataclass ``__init__`` of
``tests/oracles/dataclass_records.py``, call for call.
"""

import copy
import inspect
import math
import pickle
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.dagman.dag import DagJob
from repro.dagman.events import JobAttempt, JobStatus, ResourceProfile
from repro.observe.events import EventKind, RunEvent
from tests.oracles.dataclass_records import STOCK

PROFILE = ResourceProfile(
    cpu_user_s=1.5, cpu_sys_s=0.25, max_rss_kb=2048, read_ops=3, write_ops=4,
    source="modelled",
)
ATTEMPT = JobAttempt(
    job_name="run_cap3_1", transformation="run_cap3", site="osg",
    machine="node-7", attempt=2, submit_time=1.0, setup_start=2.0,
    exec_start=3.5, exec_end=9.0, status=JobStatus.EVICTED,
    error="preempted", profile=PROFILE,
)
JOB = DagJob(
    name="run_cap3_1", transformation="run_cap3", runtime=5.5,
    input_bytes=10, output_bytes=20, needs_setup=True, retries=3,
    priority=-1, requirements="has_cap3", timeout_s=60.0,
)
EVENT = RunEvent(
    EventKind.EVICT, 9.0, "run_cap3_1", "run_cap3", "osg", "node-7", 2,
    ATTEMPT, {"status": "evicted"},
)
RECORDS = pytest.mark.parametrize(
    "record", [JOB, ATTEMPT, PROFILE, EVENT], ids=lambda r: type(r).__name__
)


@RECORDS
def test_still_frozen(record) -> None:
    name = fields(record)[0].name
    with pytest.raises(FrozenInstanceError):
        setattr(record, name, "other")
    with pytest.raises(FrozenInstanceError):
        delattr(record, name)
    # Not a field: AttributeError by rights; 3.11's frozen ``__setattr__``
    # closes over the class as it was before slots and says TypeError.
    with pytest.raises((AttributeError, TypeError)):
        record.not_a_field = 1


@RECORDS
def test_pickle_and_copy_round_trip(record) -> None:
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(record, protocol))
        assert again == record and type(again) is type(record)
    for again in (copy.copy(record), copy.deepcopy(record)):
        assert again == record and again is not record
    if record is EVENT:  # ``detail`` is a dict: unhashable, as it always was
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(record)
        return
    assert hash(copy.deepcopy(record)) == hash(record)
    assert len({record, copy.copy(record)}) == 1


def test_replace_validates_like_the_constructor() -> None:
    assert replace(JOB, retries=5).retries == 5
    assert replace(JOB, retries=5).name == JOB.name
    assert replace(ATTEMPT, attempt=3).profile is PROFILE
    assert replace(PROFILE, read_ops=9).cpu_s == PROFILE.cpu_s
    assert replace(EVENT, time=10.0).record is ATTEMPT
    assert replace(EVENT, time=10.0).detail == EVENT.detail
    with pytest.raises(ValueError, match="retries must be >= 0"):
        replace(JOB, retries=-1)
    with pytest.raises(ValueError, match="attempt numbers start at 1"):
        replace(ATTEMPT, attempt=0)
    with pytest.raises(ValueError, match="must carry a record"):
        replace(EVENT, record=None)


def test_a_payload_survives_copy_but_is_not_compared() -> None:
    def payload() -> object:
        return 1

    job = replace(JOB, payload=payload)
    assert job == JOB and hash(job) == hash(JOB)
    assert copy.copy(job).payload is payload


def test_field_order_is_the_format() -> None:
    assert [f.name for f in fields(JobAttempt)] == [
        "job_name", "transformation", "site", "machine", "attempt",
        "submit_time", "setup_start", "exec_start", "exec_end", "status",
        "error", "profile",
    ]
    assert [f.name for f in fields(ResourceProfile)] == [
        "cpu_user_s", "cpu_sys_s", "max_rss_kb", "read_ops", "write_ops",
        "source",
    ]
    assert [f.name for f in fields(DagJob)] == [
        "name", "transformation", "runtime", "input_bytes", "output_bytes",
        "needs_setup", "retries", "priority", "requirements", "timeout_s",
        "payload",
    ]
    assert [f.name for f in fields(RunEvent)] == [
        "kind", "time", "job_name", "transformation", "site", "machine",
        "attempt", "record", "detail",
    ]
    assert JobAttempt.from_json(ATTEMPT.to_json()) == ATTEMPT


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: DagJob(name="", transformation="t"), "invalid job name: ''"),
        (lambda: DagJob(name="a b", transformation="t"),
         "invalid job name: 'a b'"),
        (lambda: DagJob(name="a", transformation="t", runtime=-1.0),
         "runtime must be >= 0, got -1.0"),
        (lambda: DagJob(name="a", transformation="t", runtime=float("nan")),
         "runtime must be >= 0, got nan"),
        (lambda: DagJob(name="a", transformation="t", retries=-1),
         "retries must be >= 0"),
        (lambda: DagJob(name="a", transformation="t", timeout_s=0.0),
         "timeout_s must be positive (or None), got 0.0"),
        (lambda: replace(ATTEMPT, attempt=0), "attempt numbers start at 1"),
        (lambda: replace(ATTEMPT, exec_start=1.5),
         "timestamps must be ordered submit <= setup <= start <= end "
         "for 'run_cap3_1': 1.0, 2.0, 1.5, 9.0"),
        (lambda: ResourceProfile(cpu_sys_s=-0.1), "CPU times must be >= 0"),
        (lambda: ResourceProfile(read_ops=-1), "rss/io counters must be >= 0"),
        (lambda: RunEvent(EventKind.FINISH, 1.0),
         "job.finish events must carry a record"),
    ],
)
def test_every_refusal_reads_as_before(build, message) -> None:
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


# -- the constructors against the stock dataclass ``__init__`` -----------

numbers = st.one_of(
    st.integers(-2, 3), st.floats(-2.0, 3.0), st.sampled_from([math.nan, math.inf]),
)
texts = st.sampled_from(["j", "run_cap3_1", "", "a b", "t\n"])
maybe_texts = st.one_of(st.none(), texts)
counts = st.integers(-2, 4)
#: Values no field should hold, to reach the refusals and the
#: ``TypeError``s a comparison in ``__post_init__`` raises.
junk = st.sampled_from(["x", None, [], 1.5])

VALUES = {
    RunEvent: {
        "kind": st.sampled_from(EventKind), "time": numbers,
        "job_name": maybe_texts, "transformation": maybe_texts,
        "site": maybe_texts, "machine": maybe_texts,
        "attempt": st.one_of(st.none(), counts),
        "record": st.sampled_from([None, ATTEMPT]),
        "detail": st.one_of(st.none(), st.dictionaries(texts, counts, max_size=2)),
    },
    JobAttempt: {
        "job_name": texts, "transformation": texts, "site": texts,
        "machine": texts, "attempt": counts, "submit_time": numbers,
        "setup_start": numbers, "exec_start": numbers, "exec_end": numbers,
        "status": st.sampled_from(JobStatus), "error": maybe_texts,
        "profile": st.sampled_from([None, PROFILE]),
    },
    ResourceProfile: {
        "cpu_user_s": numbers, "cpu_sys_s": numbers, "max_rss_kb": counts,
        "read_ops": counts, "write_ops": counts, "source": texts,
    },
    DagJob: {
        "name": texts, "transformation": texts, "runtime": numbers,
        "input_bytes": counts, "output_bytes": counts,
        "needs_setup": st.booleans(), "retries": counts,
        "priority": st.one_of(counts, numbers), "requirements": maybe_texts,
        "timeout_s": st.one_of(st.none(), numbers),
        "payload": st.sampled_from([None, print]),
    },
}


@st.composite
def calls(draw, cls):
    """``(args, kwargs)`` for ``cls``: a positional prefix, the rest by
    keyword or left to its default, now and then a required field left
    out, an unknown keyword or one field passed both ways."""
    params = list(inspect.signature(cls).parameters.values())
    # One field in ten may be junk; more and hardly a call would build.
    values = [
        draw(VALUES[cls][p.name] | junk if draw(st.integers(0, 9)) == 0
             else VALUES[cls][p.name])
        for p in params
    ]
    cut = draw(st.integers(0, len(params)))
    args = values[:cut]
    kwargs = {}
    for p, value in zip(params[cut:], values[cut:]):
        omit = draw(st.integers(0, 3)) == 0
        if omit and (p.default is not p.empty or draw(st.integers(0, 4)) == 0):
            continue
        kwargs[p.name] = value
    shape = draw(st.integers(0, 19))
    if shape == 0:
        kwargs["not_a_field"] = 1
    elif shape == 1 and args:
        kwargs[params[0].name] = args[0]
    return args, kwargs


def outcome(build):
    try:
        return "built", build()
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return "raised", (type(exc), str(exc))


@pytest.mark.parametrize("cls", list(STOCK), ids=lambda c: c.__name__)
def test_signature_is_the_stock_one(cls) -> None:
    assert inspect.signature(cls) == inspect.signature(STOCK[cls])
    assert cls.__init__.__qualname__ == STOCK[cls].__init__.__qualname__


@pytest.mark.parametrize("cls", list(STOCK), ids=lambda c: c.__name__)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_constructor_is_the_stock_one(cls, data) -> None:
    args, kwargs = data.draw(calls(cls))
    new, old = outcome(lambda: cls(*args, **kwargs)), outcome(
        lambda: STOCK[cls](*args, **kwargs))
    assert new[0] == old[0], (new, old)
    if new[0] == "raised":
        assert new[1] == old[1]
        return
    record, stock = new[1], old[1]
    assert repr(record) == repr(stock)
    for f in fields(cls):
        mine, theirs = getattr(record, f.name), getattr(stock, f.name)
        assert mine is theirs or mine == theirs
    assert outcome(lambda: hash(record)) == outcome(lambda: hash(stock))
    twin = cls(*args, **kwargs)
    assert (record == twin) == (stock == STOCK[cls](*args, **kwargs))
