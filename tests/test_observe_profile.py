"""Kickstart resource profiles: capture, modelling, serialization, and
their Chrome-trace / histogram surfaces."""

import json

import pytest

from repro.dagman.events import (
    JobAttempt,
    JobStatus,
    ResourceProfile,
    WorkflowTrace,
)
from repro.execution.kickstart import kickstart
from repro.observe.chrome_trace import chrome_trace
from repro.observe.events import EventKind, RunEvent
from repro.observe.metrics import Histogram, merge_summaries
from repro.observe.profile import RusageProbe, modelled_profile


def _attempt(profile=None, **kw):
    base = dict(
        job_name="j1",
        transformation="run_cap3",
        site="osg",
        machine="m0",
        attempt=1,
        submit_time=0.0,
        setup_start=10.0,
        exec_start=15.0,
        exec_end=100.0,
        status=JobStatus.SUCCEEDED,
        profile=profile,
    )
    base.update(kw)
    return JobAttempt(**base)


# -- ResourceProfile schema ------------------------------------------------


def test_profile_validation_and_helpers():
    p = ResourceProfile(cpu_user_s=8.0, cpu_sys_s=2.0, max_rss_kb=1024)
    assert p.cpu_s == 10.0
    assert p.cpu_utilization(20.0) == pytest.approx(0.5)
    assert p.cpu_utilization(0.0) == 0.0
    with pytest.raises(ValueError):
        ResourceProfile(cpu_user_s=-1.0)
    with pytest.raises(ValueError):
        ResourceProfile(max_rss_kb=-5)


def test_profile_json_roundtrip():
    p = ResourceProfile(
        cpu_user_s=1.5, cpu_sys_s=0.25, max_rss_kb=2048,
        read_ops=10, write_ops=4, source="modelled",
    )
    assert ResourceProfile.from_json(p.to_json()) == p
    # from_json tolerates sparse dicts (old logs without profiles).
    assert ResourceProfile.from_json({}) == ResourceProfile()


def test_trace_profile_rollups():
    trace = WorkflowTrace([
        _attempt(ResourceProfile(cpu_user_s=5.0, max_rss_kb=100)),
        _attempt(ResourceProfile(cpu_user_s=3.0, max_rss_kb=700),
                 job_name="j2"),
        _attempt(None, job_name="j3"),
    ])
    assert len(trace.profiled()) == 2
    assert trace.peak_rss_kb() == 700
    assert trace.cumulative_cpu() == pytest.approx(8.0)


# -- measurement and modelling ---------------------------------------------


def test_rusage_probe_measures_real_work():
    probe = RusageProbe()
    acc = 0
    for i in range(200_000):
        acc += i * i
    profile = probe.stop()
    assert profile.source == "measured"
    assert profile.cpu_s > 0
    assert profile.max_rss_kb > 0


def test_kickstart_attaches_profile():
    record = kickstart(lambda: sum(range(100_000)))
    assert record.success
    assert record.profile is not None
    assert record.profile.source == "measured"
    # Failures still carry the profile of the partial run.
    failing = kickstart(lambda: 1 / 0)
    assert not failing.success
    assert failing.profile is not None
    # And profiling can be disabled.
    assert kickstart(lambda: None, profile=False).profile is None


def test_modelled_profile_coefficients():
    p = modelled_profile("run_cap3", 100.0)
    assert p is not None and p.source == "modelled"
    assert 0 < p.cpu_s <= 100.0
    assert p.max_rss_kb > 0 and p.read_ops > 0
    # Decorated transformation names stem-match their base coefficients.
    assert (
        modelled_profile("run_cap3_17", 100.0).max_rss_kb == p.max_rss_kb
    )
    # Unknown transformations fall back to the generic CPU-bound shape.
    assert modelled_profile("mystery_task", 50.0) is not None
    # No exec window, no profile (dead-on-arrival attempts).
    assert modelled_profile("run_cap3", 0.0) is None


def test_coefficients_resolve_once_per_name():
    from repro.observe.profile import MODEL_COEFFICIENTS

    class Name(str):
        """A transformation name that counts the stem probes on it."""

        probes = 0

        def startswith(self, *args):
            Name.probes += 1
            return super().startswith(*args)

    def shape(profile):
        return (
            profile.cpu_user_s / 100.0, profile.cpu_sys_s / 100.0,
            profile.max_rss_kb, profile.read_ops / 100.0,
            profile.write_ops / 100.0,
        )

    stems = list(MODEL_COEFFICIENTS)
    # (name, coefficient row it resolves to, stem probes the walk costs)
    cases = [
        ("merge_joined", MODEL_COEFFICIENTS["merge_joined"], 0),
        ("run_cap3_once_007", MODEL_COEFFICIENTS["run_cap3"],
         stems.index("run_cap3") + 1),
        ("synthetic_once", (0.85, 0.08, 64_000, 120.0, 60.0), len(stems)),
    ]
    for name, row, probes in cases:
        Name.probes = 0
        first = modelled_profile(Name(name), 100.0)
        assert shape(first) == pytest.approx(row)
        assert Name.probes == probes
        assert modelled_profile(Name(name), 100.0) == first
        assert Name.probes == probes  # the second call walks nothing


def test_simulators_attach_modelled_profiles():
    from repro.core.workflow_factory import simulate_paper_run

    for platform in ("sandhills", "osg"):
        result, _ = simulate_paper_run(10, platform, seed=0)
        executed = [a for a in result.trace if a.kickstart_time > 0]
        assert executed
        for a in executed:
            assert a.profile is not None, (platform, a.job_name)
            assert a.profile.source == "modelled"
            assert a.profile.cpu_s <= a.kickstart_time + 1e-6


def test_log_and_monitor_roundtrip_profiles(tmp_path):
    from repro.observe.events import attempt_events
    from repro.observe.log import read_events, write_events
    from repro.wms.monitor import read_trace, write_trace

    attempt = _attempt(ResourceProfile(cpu_user_s=4.0, max_rss_kb=512,
                                       source="modelled"))
    trace_path = tmp_path / "trace.jsonl"
    write_trace(trace_path, WorkflowTrace([attempt]))
    (loaded,) = read_trace(trace_path)
    assert loaded.profile == attempt.profile

    events_path = tmp_path / "events.jsonl"
    write_events(events_path, attempt_events(attempt))
    terminal = [e for e in read_events(events_path) if e.is_terminal]
    assert terminal[0].record.profile == attempt.profile


# -- chrome trace surfaces -------------------------------------------------


def test_chrome_trace_exec_args_carry_profile():
    profile = ResourceProfile(cpu_user_s=42.0, max_rss_kb=9000)
    doc = chrome_trace(WorkflowTrace([_attempt(profile)]))
    exec_events = [
        e for e in doc["traceEvents"]
        if e["ph"] == "X" and e["cat"] == "exec"
    ]
    assert exec_events[0]["args"]["profile"] == profile.to_json()


def test_chrome_trace_renders_resilience_instants_and_flows():
    attempts = [
        _attempt(None, attempt=1, status=JobStatus.FAILED,
                 submit_time=0.0, setup_start=1.0, exec_start=2.0,
                 exec_end=50.0, machine="m0"),
        _attempt(None, attempt=2, submit_time=60.0, setup_start=61.0,
                 exec_start=62.0, exec_end=90.0, machine="m1"),
    ]
    events = [
        RunEvent(EventKind.TIMEOUT, 50.0, job_name="j1", attempt=1,
                 site="osg", machine="m0", detail={"limit_s": 45.0}),
        RunEvent(EventKind.HELD, 52.0, job_name="j1", attempt=1,
                 detail={"delay_s": 8.0}),
        RunEvent(EventKind.FAULT, 49.0, job_name="j1", site="osg",
                 machine="m0", detail={"fault": "start-failure"}),
        RunEvent(EventKind.BLACKLIST, 55.0, detail={"machine": "m0"}),
        RunEvent(EventKind.RESCUE, 58.0, detail={"round": 2}),
        # Kinds with no instant mapping are skipped, not crashed on.
        RunEvent(EventKind.SUBMIT, 0.0, job_name="j1", attempt=1),
    ]
    doc = chrome_trace(WorkflowTrace(attempts), events=events)
    instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
    by_name = {e["name"]: e for e in instants}
    assert set(by_name) == {
        "job.timeout", "job.held", "fault.injected",
        "blacklist.add", "rescue.round",
    }
    # Machine-scoped instants land on the machine's thread…
    assert by_name["job.timeout"]["s"] == "t"
    assert by_name["job.timeout"]["tid"] != 0
    # …global ones cut across the whole trace on the meta track.
    assert by_name["blacklist.add"]["s"] == "g"
    assert by_name["blacklist.add"]["pid"] == 0
    assert by_name["job.held"]["s"] == "p"

    # The retry hop is a flow arrow from attempt 1's end to 2's submit.
    starts = [e for e in doc["traceEvents"] if e["ph"] == "s"]
    finishes = [e for e in doc["traceEvents"] if e["ph"] == "f"]
    assert len(starts) == len(finishes) == 1
    assert starts[0]["id"] == finishes[0]["id"]
    assert starts[0]["ts"] == pytest.approx(50.0 * 1e6)
    assert finishes[0]["ts"] == pytest.approx(60.0 * 1e6)
    json.dumps(doc)  # the whole document stays JSON-able


# -- histogram summary extensions ------------------------------------------


def test_histogram_summary_p99_and_mean():
    h = Histogram()
    for v in range(1, 101):
        h.observe(float(v))
    s = h.summary()
    assert s["mean"] == pytest.approx(50.5)
    assert s["p99"] == pytest.approx(99.0)
    assert s["p50"] <= s["p95"] <= s["p99"] <= s["max"]
    empty = Histogram().summary()
    assert empty["count"] == 0 and empty["p99"] == 0.0


def test_merge_summaries_weights_by_count():
    a = Histogram()
    for _ in range(99):
        a.observe(1.0)
    b = Histogram()
    b.observe(101.0)
    merged = merge_summaries([a.summary(), b.summary()])
    assert merged["count"] == 100
    # Count-weighted: one outlier observation cannot drag the mean to
    # the plain average of means (51.0).
    assert merged["mean"] == pytest.approx(2.0)
    assert merged["max"] == 101.0
