"""``DagJob``, ``JobAttempt`` and ``ResourceProfile`` are slotted; what a
frozen dataclass promised before they were must still hold.

``slots=True`` makes ``@dataclass`` build a *new* class, so everything
that goes through the class object is checked again here: pickle and
``copy`` (a slotted frozen instance has no ``__dict__`` to restore into
and refuses ``setattr``), ``dataclasses.replace``, ``fields()`` order
(``observe/log.py`` derives its known-key set from
``fields(JobAttempt)``), hashing, and each ``__post_init__`` refusal
with its message as callers and users have seen it.
"""

import copy
import pickle
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from repro.dagman.dag import DagJob
from repro.dagman.events import JobAttempt, JobStatus, ResourceProfile

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
RECORDS = pytest.mark.parametrize(
    "record", [JOB, ATTEMPT, PROFILE], ids=lambda r: type(r).__name__
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
    assert hash(copy.deepcopy(record)) == hash(record)
    assert len({record, copy.copy(record)}) == 1


def test_replace_validates_like_the_constructor() -> None:
    assert replace(JOB, retries=5).retries == 5
    assert replace(JOB, retries=5).name == JOB.name
    assert replace(ATTEMPT, attempt=3).profile is PROFILE
    assert replace(PROFILE, read_ops=9).cpu_s == PROFILE.cpu_s
    with pytest.raises(ValueError, match="retries must be >= 0"):
        replace(JOB, retries=-1)
    with pytest.raises(ValueError, match="attempt numbers start at 1"):
        replace(ATTEMPT, attempt=0)


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
    ],
)
def test_every_refusal_reads_as_before(build, message) -> None:
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message
