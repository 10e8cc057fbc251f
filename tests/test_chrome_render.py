"""``write_chrome_trace`` prints ``trace.chrome.json`` straight from the
attempt records, samples and instant events; the dict-building writer it
replaced (``tests/oracles/chrome_trace_reference.py``) is the reference
it is held to.

The file must be, byte for byte, that dict encoded compact
(``json.dumps(doc, separators=(",", ":"))``). The drawn traces carry what the
templates must hand to the encoder instead of printing: errors, a
missing profile, non-finite times and CPU seconds, ``bool`` /
``IntEnum`` attempt numbers, ``str`` / ``float`` subclasses and
non-ASCII names, plus retries across rescue rounds and a resume, where
attempt numbers restart.
"""

from __future__ import annotations

import enum
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.dagman.events import JobAttempt, JobStatus, ResourceProfile, WorkflowTrace
from repro.observe.chrome_trace import write_chrome_trace
from repro.observe.events import EventKind, RunEvent
from repro.observe.sampler import UtilizationSample
from tests.oracles.chrome_trace_reference import reference_text


def chrome_doc(trace, **kwargs) -> dict:
    """The document ``write_chrome_trace`` prints, parsed."""
    with tempfile.TemporaryDirectory() as tmp:
        path = write_chrome_trace(Path(tmp) / "trace.chrome.json", trace, **kwargs)
        return json.loads(path.read_text())


class Tag(str):
    pass


class Seconds(float):
    """A float whose own ``repr`` the encoder never calls."""

    def __repr__(self) -> str:
        return f"Seconds({float(self)!r})"


class Level(enum.IntEnum):
    ONE = 1
    TWO = 2


NASTY = ["", '"', "\\", "\n", "\x00", "\x7f", "é", "\U0001f9ec", "%s", "%d", "#1"]
texts = st.sampled_from(NASTY) | st.text(max_size=6)
names = st.sampled_from(["split", "run_cap3_1", "naïve", "作业"]) | texts
durations = st.sampled_from([0.0, 1e-9, 0.5, 7.25, 1e6]) | st.floats(
    min_value=0, max_value=1e7)
odd_times = st.sampled_from([0, 3, Seconds(1.5), float("inf")])


@st.composite
def attempts(draw, job=None):
    submit = draw(durations | odd_times)
    setup = submit + draw(durations)
    start = setup + draw(durations)
    end = start + draw(durations | st.just(float("inf")))
    profile = draw(st.none() | st.builds(
        ResourceProfile,
        cpu_user_s=durations | st.sampled_from([float("nan"), float("inf"), 2]),
        cpu_sys_s=durations | st.sampled_from([Seconds(0.25)]),
        max_rss_kb=st.integers(0, 10**6) | st.sampled_from([True, Level.TWO]),
        read_ops=st.integers(0, 99),
        write_ops=st.integers(0, 99),
        source=st.sampled_from(["modelled", "measured", Tag("m"), "ü"]),
    ))
    return JobAttempt(
        job_name=job if job is not None else draw(names | st.builds(Tag, texts)),
        transformation=draw(names | st.builds(Tag, texts)),
        site=draw(st.sampled_from(["sandhills", "osg", "café"]) | texts),
        machine=draw(st.sampled_from(["m-0", "m-1", "nœud"]) | texts),
        attempt=draw(st.integers(1, 4) | st.sampled_from([True, Level.TWO])),
        submit_time=submit,
        setup_start=setup,
        exec_start=start,
        exec_end=end,
        status=draw(st.sampled_from(JobStatus)),
        error=draw(st.none() | st.sampled_from(["", "exit 1", "évincé"])
                   | st.builds(Tag, texts)),
        profile=profile,
    )


@st.composite
def traces(draw):
    """Attempts of a few jobs, several per job (retries, rescue rounds
    and a resume restart the numbers), in no particular order."""
    jobs = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    records = []
    for job in jobs:
        records += draw(st.lists(attempts(job=job), min_size=1, max_size=3))
    return WorkflowTrace(draw(st.permutations(records)))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | texts,
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(texts, inner, max_size=2),
    max_leaves=4,
)
events = st.builds(
    RunEvent,
    st.sampled_from([k for k in EventKind if k.value not in ("job.finish", "job.evict")]),
    durations | odd_times,
    job_name=st.none() | names,
    site=st.none() | st.sampled_from(["osg", "café"]),
    machine=st.none() | st.sampled_from(["m-0", "nœud"]),
    attempt=st.none() | st.integers(1, 3) | st.just(Level.ONE),
    detail=st.dictionaries(
        st.sampled_from(["job", "attempt", "fault", "delay_s"]) | texts,
        json_values, max_size=3),
)
samples = st.builds(
    UtilizationSample,
    durations | odd_times,
    st.integers(0, 64) | st.sampled_from([True, Seconds(2.0)]),
    st.integers(0, 64) | st.just(Level.ONE),
)


@given(traces(), st.none() | st.lists(samples, max_size=4),
       st.none() | st.lists(events, max_size=6), names)
@settings(max_examples=120, deadline=None)
def test_file_is_the_dict_api_byte_for_byte(
    tmp_path_factory, trace, sampled, stream, workflow
):
    path = tmp_path_factory.getbasetemp() / "property.chrome.json"
    kwargs = dict(samples=sampled, events=stream, workflow=workflow)
    assert write_chrome_trace(path, trace, **kwargs) == path
    assert path.read_text() == reference_text(trace, **kwargs)


def attempt(job="j", n=1, submit=0.0, setup=1.0, start=1.5, end=4.0, **kw):
    kw.setdefault("status", JobStatus.SUCCEEDED)
    kw.setdefault("transformation", "t")
    return JobAttempt(job_name=job, site="osg", machine="m-0", attempt=n,
                      submit_time=submit, setup_start=setup, exec_start=start,
                      exec_end=end, **kw)


class Code(enum.Enum):
    """A status whose value is not a string."""

    OK = 0


class TestNamedCases:
    def check(self, tmp_path, trace, **kwargs):
        path = write_chrome_trace(tmp_path / "t.json", trace, **kwargs)
        assert path.read_text() == reference_text(trace, **kwargs)

    def test_empty_trace(self, tmp_path):
        self.check(tmp_path, WorkflowTrace())

    def test_each_template_once(self, tmp_path):
        profile = ResourceProfile(0.5, 0.25, 1024, 3, 4, "modelled")
        trace = WorkflowTrace([
            attempt(status=JobStatus.EVICTED, error="evicted", profile=profile),
            attempt(n=2, submit=5.0, setup=5.0, start=5.0, end=9.0,
                    profile=profile),
        ])
        stream = [
            RunEvent(EventKind.TIMEOUT, 3.0, job_name="j", site="osg",
                     machine="m-0", attempt=1, detail={"error": "hung"}),
            RunEvent(EventKind.RESCUE, 4.0, detail={"round": 1}),
            RunEvent(EventKind.HELD, 4.5, job_name="j", attempt=1,
                     detail={"delay_s": float("nan")}),
            RunEvent(EventKind.SUBMIT, 5.0, job_name="j"),
        ]
        self.check(tmp_path, trace, events=stream, workflow="wf",
                   samples=[UtilizationSample(0.0, 1, 0),
                            UtilizationSample(300.0, 0, 1)])

    def test_values_the_templates_hand_to_the_encoder(self, tmp_path):
        odd = ResourceProfile(float("inf"), 0.0, True, 0, 0, Tag("m"))
        self.check(tmp_path, WorkflowTrace([
            attempt(job=Tag("é"), n=Level.TWO, profile=odd),
            attempt(job="k", n=True, end=float("inf"), error=Tag("x")),
            attempt(job="l", submit=Seconds(0.5), setup=1, start=1, end=2),
        ]), samples=[UtilizationSample(float("nan"), True, Level.ONE)])

    def test_values_of_other_types(self, tmp_path):
        # one job per trace: the retry arrows sort the traces' job names
        for record in (
            attempt(job=7),
            attempt(transformation=None),
            attempt(status=Code.OK),
            attempt(error=7),
            attempt(profile=ResourceProfile(source=None)),
            attempt(profile=ResourceProfile(0.5, Seconds(0.25))),
        ):
            self.check(tmp_path, WorkflowTrace([record]))
