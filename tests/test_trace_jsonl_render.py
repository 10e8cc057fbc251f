"""``write_trace`` prints each ``trace.jsonl`` line from one template;
``json.dumps(attempt.to_json())`` per record
(``tests/oracles/trace_jsonl_reference.py``) is the reference it is held
to, byte for byte — including the records the template must hand to the
encoder: non-finite times and CPU seconds, ``bool`` / ``IntEnum``
attempt numbers and counters, ``str`` / ``float`` subclasses, ``int``
times, errors and missing profiles.
"""

from __future__ import annotations

from enum import Enum

from hypothesis import given, settings, strategies as st

from repro.dagman.events import JobAttempt, JobStatus, ResourceProfile
from repro.wms.monitor import write_trace
from tests.oracles.trace_jsonl_reference import reference_text
from tests.test_chrome_render import Level, Seconds, Tag, attempts


@given(st.lists(attempts(), max_size=6))
@settings(max_examples=120, deadline=None)
def test_file_is_one_encoded_record_per_line(tmp_path_factory, records):
    path = tmp_path_factory.getbasetemp() / "property.trace.jsonl"
    assert write_trace(path, records) == len(records)
    assert path.read_text() == reference_text(records)


def attempt(setup=1.0, start=None, **kw):
    fields = dict(job_name="j", transformation="t", site="osg", machine="m-0",
                  attempt=1, submit_time=0.0, setup_start=setup,
                  exec_start=setup if start is None else start, exec_end=4.0,
                  status=JobStatus.SUCCEEDED)
    fields.update(kw)
    return JobAttempt(**fields)


PROFILE = ResourceProfile(0.5, 0.25, 1024, 3, 4, "modelled")


class OtherStatus(Enum):
    """A status of another enum, with a ``JobStatus`` value."""

    SUCCEEDED = "succeeded"


class TestOneFallbackAtATime:
    """The template's shape, then each way out of it on its own."""

    CASES = {
        "template": attempt(profile=PROFILE),
        "setup is start": attempt(setup=2.5, profile=PROFILE),
        "equal, not the same object": attempt(setup=2.5, start=float("2.5")),
        "no profile": attempt(),
        "error": attempt(status=JobStatus.FAILED, error="exit 1 ü"),
        "empty error": attempt(error=""),
        "negative zero start": attempt(setup=0.0, start=-0.0, submit_time=0.0),
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
        "float subclass submit": attempt(submit_time=Seconds(0.5)),
        "float subclass end": attempt(exec_end=Seconds(4.0)),
        "infinite end": attempt(exec_end=float("inf")),
        "non-finite CPU": attempt(profile=ResourceProfile(float("nan"), 0.0)),
        "int CPU": attempt(profile=ResourceProfile(2, 0.0)),
        "float subclass system CPU": attempt(profile=ResourceProfile(0.5, Seconds(0.25))),
        "bool counter": attempt(profile=ResourceProfile(0.5, 0.5, True)),
        "str subclass source": attempt(profile=ResourceProfile(source=Tag("m"))),
        "non-str source": attempt(profile=ResourceProfile(source=None)),
    }

    def test_each_case(self, tmp_path):
        for name, record in self.CASES.items():
            path = tmp_path / "t.jsonl"
            write_trace(path, [record])
            assert path.read_text() == reference_text([record]), name
