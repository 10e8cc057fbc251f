"""Tests for the live observability layer (repro.observe).

Covers the event bus and taxonomy, the metrics registry, the
utilization sampler, the three exporters (JSONL log, Chrome trace,
status view), and the cross-backend invariant: the same DAG run on the
local backend and on a simulated platform emits the same event
sequence modulo timestamps.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.dagman.dag import Dag, DagJob
from repro.dagman.events import JobAttempt, JobStatus, WorkflowTrace
from repro.dagman.scheduler import DagmanScheduler
from repro.execution.local import LocalEnvironment
from repro.observe import (
    EventBus,
    EventKind,
    EventLogWriter,
    EventRecorder,
    MetricsRegistry,
    RunEvent,
    StatusView,
    UtilizationSample,
    UtilizationSampler,
    attempt_events,
    events_to_trace,
    instrument,
    read_events,
    write_chrome_trace,
    write_events,
)
from repro.observe.log import event_from_json, event_to_json, event_to_json_line
from repro.observe.metrics import Histogram
from repro.sim.cluster import CampusCluster, CampusClusterConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.wms.monitor import read_trace, write_trace
from tests.test_chrome_render import chrome_doc


def make_attempt(
    name="j1",
    *,
    attempt=1,
    status=JobStatus.SUCCEEDED,
    submit=0.0,
    setup=10.0,
    execs=20.0,
    end=30.0,
    error=None,
) -> JobAttempt:
    return JobAttempt(
        job_name=name,
        transformation="run_cap3",
        site="osg",
        machine="node-1",
        attempt=attempt,
        submit_time=submit,
        setup_start=setup,
        exec_start=execs,
        exec_end=end,
        status=status,
        error=error,
    )


def chain_dag() -> Dag:
    """a -> b -> c, runnable both locally and on the simulators."""
    dag = Dag(name="chain")
    for name in ("a", "b", "c"):
        dag.add_job(
            DagJob(
                name=name,
                transformation=f"t_{name}",
                runtime=10.0,
                payload=lambda: None,
            )
        )
    dag.add_edge("a", "b")
    dag.add_edge("b", "c")
    return dag


class TestEventBus:
    def test_delivery_in_subscription_order(self):
        bus = EventBus()
        order = []
        bus.subscribe(lambda e: order.append("first"))
        bus.subscribe(lambda e: order.append("second"))
        bus.emit(RunEvent(EventKind.SUBMIT, 0.0, job_name="j"))
        assert order == ["first", "second"]

    def test_kind_filtering(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, kinds=(EventKind.RETRY,))
        bus.emit(RunEvent(EventKind.SUBMIT, 0.0, job_name="j"))
        bus.emit(RunEvent(EventKind.RETRY, 1.0, job_name="j"))
        assert [e.kind for e in seen] == [EventKind.RETRY]

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        unsubscribe = bus.subscribe(seen.append)
        bus.emit(RunEvent(EventKind.SUBMIT, 0.0))
        unsubscribe()
        unsubscribe()  # idempotent
        bus.emit(RunEvent(EventKind.SUBMIT, 1.0))
        assert len(seen) == 1

    def test_emitted_counter_counts_all(self):
        bus = EventBus()  # no subscribers at all
        bus.emit(RunEvent(EventKind.SUBMIT, 0.0))
        bus.emit(RunEvent(EventKind.RETRY, 1.0))
        assert bus.emitted == 2

    def test_terminal_event_requires_record(self):
        with pytest.raises(ValueError, match="must carry a record"):
            RunEvent(EventKind.FINISH, 1.0, job_name="j")

    def test_recorder_sequence_strips_timestamps(self):
        bus = EventBus()
        recorder = EventRecorder(bus)
        bus.emit(RunEvent(EventKind.SUBMIT, 12.5, job_name="a"))
        bus.emit(RunEvent(EventKind.RETRY, 99.0, job_name="a"))
        assert recorder.sequence() == [
            ("job.submit", "a"), ("job.retry", "a"),
        ]
        assert recorder.sequence(kinds=(EventKind.RETRY,)) == [
            ("job.retry", "a")
        ]


class TestAttemptEvents:
    def test_with_setup_phase(self):
        events = attempt_events(make_attempt())
        assert [e.kind for e in events] == [
            EventKind.SETUP_START, EventKind.EXEC_START, EventKind.FINISH,
        ]
        assert [e.time for e in events] == [10.0, 20.0, 30.0]
        assert events[-1].record is not None

    def test_no_setup_phase_when_coincident(self):
        record = make_attempt(setup=20.0)  # setup_start == exec_start
        kinds = [e.kind for e in attempt_events(record)]
        assert EventKind.SETUP_START not in kinds

    def test_evicted_attempt_ends_in_evict(self):
        record = make_attempt(status=JobStatus.EVICTED, error="preempted")
        assert attempt_events(record)[-1].kind is EventKind.EVICT


class TestMetrics:
    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_histogram_percentiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in (5.0, 1.0, 3.0, 2.0, 4.0):
            h.observe(v)
        assert h.count == 5
        assert h.mean == 3.0
        assert h.percentile(0) == 1.0
        assert h.percentile(50) == 3.0
        assert h.percentile(100) == 5.0

    @given(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("observe"),
                    st.floats(allow_nan=False, allow_infinity=False),
                ),
                st.tuples(st.just("read"), st.floats(0, 100)),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_histogram_reads_as_sorted_observations(self, script):
        """Observations and reads interleaved: every read answers from
        ``sorted()`` of what was observed so far."""
        h, seen = Histogram(), []
        for op, value in script:
            if op == "observe":
                h.observe(value)
                seen.append(value)
                continue
            ordered = sorted(seen)
            rank = min(len(seen) - 1, round(value / 100 * (len(seen) - 1)))
            assert h.percentile(value) == (ordered[rank] if seen else 0.0)
        assert h.count == len(seen)
        assert h.summary()["max"] == max(seen, default=0.0)

    def test_snapshot_renders_labels(self):
        reg = MetricsRegistry()
        reg.counter("events_total", {"kind": "job.finish"}).inc(3)
        snap = reg.snapshot()
        assert snap["counters"]["events_total{kind=job.finish}"] == 3.0

    def test_instrument_standard_metrics(self):
        bus = EventBus()
        reg = instrument(bus)
        ok = make_attempt("a")
        for event in (
            RunEvent(EventKind.SUBMIT, 0.0, job_name="a"),
            RunEvent(EventKind.SUBMIT, 0.0, job_name="b"),
            *attempt_events(ok),
            RunEvent(EventKind.RETRY, 31.0, job_name="b"),
        ):
            bus.emit(event)
        snap = reg.snapshot()
        assert snap["counters"]["events_total{kind=job.submit}"] == 2.0
        assert snap["counters"]["retries_total"] == 1.0
        # two submits, one terminal -> one still in flight
        assert snap["gauges"]["jobs_in_flight"] == 1.0
        hist = snap["histograms"]["kickstart_s{transformation=run_cap3}"]
        assert hist["count"] == 1
        assert hist["mean"] == pytest.approx(10.0)

    def test_instrument_counts_failures_and_evictions(self):
        bus = EventBus()
        reg = instrument(bus)
        evicted = make_attempt(status=JobStatus.EVICTED, error="preempted")
        for event in attempt_events(evicted):
            bus.emit(event)
        snap = reg.snapshot()
        assert snap["counters"]["evictions_total"] == 1.0
        assert snap["counters"]["failures_total"] == 1.0


class TestUtilizationSampler:
    class FakePlatform:
        def __init__(self):
            self.status = {"idle": 2, "running": 3}

        def queue_status(self):
            return dict(self.status)

    def test_samples_on_the_virtual_clock(self):
        sim = Simulator()
        sim.schedule(25.0, lambda: None)  # the workload
        sampler = UtilizationSampler(
            sim, self.FakePlatform(), interval_s=10.0
        ).start()
        sim.run()
        assert [(s.time, s.busy, s.idle) for s in sampler.samples] == [
            (0.0, 3, 2), (10.0, 3, 2), (20.0, 3, 2), (30.0, 3, 2),
        ]

    def test_does_not_keep_simulation_alive(self):
        sim = Simulator()
        UtilizationSampler(sim, self.FakePlatform(), interval_s=5.0).start()
        # No other work pending: the first tick must not reschedule.
        sim.run(max_events=10)
        assert sim.pending == 0

    def test_stop_halts_sampling(self):
        sim = Simulator()
        sim.schedule(100.0, lambda: None)  # the workload
        sampler = UtilizationSampler(
            sim, self.FakePlatform(), interval_s=10.0
        ).start()
        sim.schedule(15.0, sampler.stop)
        sim.run()
        assert [s.time for s in sampler.samples] == [0.0, 10.0]

    def test_emits_sample_events(self):
        sim = Simulator()
        bus = EventBus()
        recorder = EventRecorder(bus)
        UtilizationSampler(
            sim, self.FakePlatform(), interval_s=10.0, bus=bus, site="osg"
        ).start()
        sim.run()
        [event] = recorder.events
        assert event.kind is EventKind.SAMPLE
        assert event.site == "osg"
        assert event.detail == {"busy": 3, "idle": 2}

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            UtilizationSampler(Simulator(), self.FakePlatform(), interval_s=0)


class TestEventLog:
    def events(self):
        ok = make_attempt("a")
        evicted = make_attempt(
            "b", status=JobStatus.EVICTED, error="preempted", end=40.0
        )
        return [
            RunEvent(EventKind.WORKFLOW_START, 0.0, detail={"jobs": 2}),
            RunEvent(EventKind.SUBMIT, 0.0, job_name="a", attempt=1),
            *attempt_events(ok),
            *attempt_events(evicted),
            RunEvent(
                EventKind.WORKFLOW_END, 40.0, detail={"success": False}
            ),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        events = self.events()
        assert write_events(path, events) == len(events)
        loaded = read_events(path)
        assert [e.kind for e in loaded] == [e.kind for e in events]
        assert [e.time for e in loaded] == [e.time for e in events]
        assert events_to_trace(loaded) == events_to_trace(events)
        # detail survives (workflow.end success flag, terminal status)
        assert loaded[-1].detail["success"] is False

    def test_classic_reader_recovers_attempts_from_event_log(self, tmp_path):
        """read_trace over an event log == the attempts (superset schema)."""
        path = tmp_path / "events.jsonl"
        events = self.events()
        write_events(path, events)
        assert sorted(
            read_trace(path), key=lambda a: a.job_name
        ) == sorted(events_to_trace(events), key=lambda a: a.job_name)

    def test_event_reader_accepts_legacy_attempt_logs(self, tmp_path):
        """read_events over a monitor.write_trace log synthesises the
        terminal events, so pre-existing logs keep working."""
        path = tmp_path / "trace.jsonl"
        trace = WorkflowTrace()
        trace.add(make_attempt("a"))
        trace.add(make_attempt("b", status=JobStatus.EVICTED,
                               error="preempted"))
        write_trace(path, trace)
        events = read_events(path)
        assert [e.kind for e in events] == [EventKind.FINISH, EventKind.EVICT]
        assert events_to_trace(events) == trace

    def test_writer_streams_and_closes(self, tmp_path):
        path = tmp_path / "events.jsonl"
        bus = EventBus()
        with EventLogWriter(path, bus):
            bus.emit(RunEvent(EventKind.SUBMIT, 0.0, job_name="a"))
            # flushed per event: visible before close
            assert len(path.read_text().splitlines()) == 1
            bus.emit(RunEvent(EventKind.RETRY, 1.0, job_name="a"))
        # closed: no longer subscribed, writing raises
        bus.emit(RunEvent(EventKind.SUBMIT, 2.0, job_name="b"))
        assert len(path.read_text().splitlines()) == 2

    def test_writer_finishes_a_short_write(self, tmp_path):
        # each line is one unbuffered write; one the OS cuts short (a
        # full disk, a signal) is finished before the next event
        path = tmp_path / "events.jsonl"
        writer = EventLogWriter(path)
        raw = writer._fh

        class Trickle:
            def write(self, data):
                return raw.write(data[:7])

            def close(self):
                raw.close()

        writer._fh = Trickle()
        events = [RunEvent(EventKind.SUBMIT, 0.0, job_name="a"),
                  RunEvent(EventKind.RETRY, 1.0, job_name="a")]
        for event in events:
            writer(event)
        writer.close()
        assert path.read_text() == "".join(
            event_to_json_line(e) + "\n" for e in events)

    def test_non_terminal_json_has_no_attempt_fields(self):
        line = event_to_json(RunEvent(EventKind.SUBMIT, 1.0, job_name="a"))
        assert line == {"event": "job.submit", "t": 1.0, "job_name": "a"}
        back = event_from_json(line)
        assert back.kind is EventKind.SUBMIT and back.record is None


class TestChromeTrace:
    def trace(self):
        trace = WorkflowTrace()
        trace.add(make_attempt("a"))
        trace.add(make_attempt("b", submit=5.0, setup=5.0, execs=5.0,
                               end=35.0))
        trace.add(make_attempt("c", status=JobStatus.EVICTED,
                               error="preempted"))
        return trace

    def test_structure(self):
        doc = chrome_doc(self.trace(), workflow="wf")
        assert set(doc) >= {"traceEvents", "displayTimeUnit"}
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"M", "X"}

    def test_exec_slice_per_attempt_in_microseconds(self):
        doc = chrome_doc(self.trace())
        execs = [
            e for e in doc["traceEvents"]
            if e["ph"] == "X" and e["cat"] == "exec"
        ]
        assert len(execs) == 3
        a = next(e for e in execs if e["args"]["job"] == "a")
        assert a["ts"] == pytest.approx(20.0 * 1e6)
        assert a["dur"] == pytest.approx(10.0 * 1e6)

    def test_zero_duration_phases_skipped_but_exec_kept(self):
        doc = chrome_doc(self.trace())
        b_slices = [
            e for e in doc["traceEvents"]
            if e["ph"] == "X" and e["args"].get("job") == "b"
        ]
        assert [e["cat"] for e in b_slices] == ["exec"]

    def test_error_recorded_in_args(self):
        doc = chrome_doc(self.trace())
        c = next(
            e for e in doc["traceEvents"]
            if e["ph"] == "X" and e["args"].get("job") == "c"
        )
        assert c["args"]["status"] == "evicted"
        assert c["args"]["error"] == "preempted"

    def test_samples_become_counter_track(self):
        samples = [
            UtilizationSample(0.0, 1, 9), UtilizationSample(60.0, 5, 5),
        ]
        doc = chrome_doc(self.trace(), samples=samples)
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert [c["args"]["busy"] for c in counters] == [1, 5]

    def test_write_is_valid_json(self, tmp_path):
        path = tmp_path / "trace.chrome.json"
        write_chrome_trace(path, self.trace(), samples=None, workflow="wf")
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"]


class TestStatusView:
    def test_tracks_phases_and_progress(self):
        view = StatusView(total_jobs=2)
        view.update(RunEvent(EventKind.SUBMIT, 0.0, job_name="a", attempt=1))
        assert view.in_flight["a"][2] == "queued"
        view.update(RunEvent(EventKind.MATCH, 1.0, job_name="a"))
        assert view.in_flight["a"][2] == "matched"
        view.update(RunEvent(EventKind.EXEC_START, 2.0, job_name="a"))
        assert view.in_flight["a"][2] == "running"
        view.update(
            RunEvent(EventKind.FINISH, 30.0, job_name="a",
                     record=make_attempt("a"))
        )
        assert "a" not in view.in_flight
        assert view.done == {"a"}
        assert "1/2 jobs done (50.0%)" in view.render()
        assert "[RUNNING]" in view.render()

    def test_workflow_end_sets_headline(self):
        view = StatusView()
        view.update(
            RunEvent(EventKind.WORKFLOW_END, 5.0, detail={"success": True})
        )
        assert "[SUCCEEDED]" in view.render()

    def test_failed_attempt_counts(self):
        view = StatusView(total_jobs=1)
        evicted = make_attempt("a", status=JobStatus.EVICTED, error="x")
        view.update(RunEvent(EventKind.SUBMIT, 0.0, job_name="a"))
        view.update(
            RunEvent(EventKind.EVICT, 1.0, job_name="a", record=evicted)
        )
        view.update(RunEvent(EventKind.RETRY, 1.0, job_name="a"))
        assert view.failures == 1
        assert view.evictions == 1
        assert view.retries == 1

    def test_render_status_one_shot(self):
        text = StatusView(total_jobs=4).feed(
            [RunEvent(EventKind.SUBMIT, 0.0, job_name="a")]
        ).render()
        assert "0/4 jobs done" in text
        assert "in flight (1):" in text


class TestCrossBackend:
    """The same DAG emits the same event sequence on every backend."""

    #: Kinds every backend emits (MATCH/SETUP_START are platform-only).
    CORE = (
        EventKind.WORKFLOW_START,
        EventKind.SUBMIT,
        EventKind.EXEC_START,
        EventKind.FINISH,
        EventKind.EVICT,
        EventKind.RETRY,
        EventKind.STATE_CHANGE,
        EventKind.WORKFLOW_END,
    )

    def simulated_sequence(self):
        bus = EventBus()
        recorder = EventRecorder(bus)
        simulator = Simulator()
        env = CampusCluster(
            simulator, CampusClusterConfig(group_slots=4),
            streams=RngStreams(seed=7), bus=bus,
        )
        result = DagmanScheduler(chain_dag(), env, bus=bus).run()
        assert result.success
        return recorder

    def local_sequence(self):
        bus = EventBus()
        recorder = EventRecorder(bus)
        with LocalEnvironment(max_workers=2, executor="thread",
                              bus=bus) as env:
            result = DagmanScheduler(chain_dag(), env, bus=bus).run()
        assert result.success
        return recorder

    def test_identical_sequences_modulo_timestamps(self):
        sim = self.simulated_sequence().sequence(kinds=self.CORE)
        local = self.local_sequence().sequence(kinds=self.CORE)
        assert sim == local

    def test_simulated_full_sequence_shape(self):
        recorder = self.simulated_sequence()
        kinds = [e.kind for e in recorder.events]
        assert kinds[0] is EventKind.WORKFLOW_START
        assert kinds[-1] is EventKind.WORKFLOW_END
        # every job: submit, match, exec_start, finish — exactly once
        for kind in (EventKind.SUBMIT, EventKind.MATCH,
                     EventKind.EXEC_START, EventKind.FINISH):
            assert sorted(
                e.job_name for e in recorder.of_kind(kind)
            ) == ["a", "b", "c"]
        # event times never regress (virtual-time causality)
        times = [e.time for e in recorder.events]
        assert times == sorted(times)

    def test_bus_trace_equals_scheduler_trace(self):
        bus = EventBus()
        recorder = EventRecorder(bus)
        simulator = Simulator()
        env = CampusCluster(simulator, streams=RngStreams(seed=1), bus=bus)
        result = DagmanScheduler(chain_dag(), env, bus=bus).run()
        assert events_to_trace(recorder.events) == result.trace

    def test_event_log_round_trip_of_simulated_run(self, tmp_path):
        bus = EventBus()
        recorder = EventRecorder(bus)
        path = tmp_path / "events.jsonl"
        with EventLogWriter(path, bus):
            simulator = Simulator()
            env = CampusCluster(
                simulator, streams=RngStreams(seed=2), bus=bus
            )
            result = DagmanScheduler(chain_dag(), env, bus=bus).run()
        loaded = read_events(path)
        assert [(e.kind, e.job_name) for e in loaded] == [
            (e.kind, e.job_name) for e in recorder.events
        ]
        assert events_to_trace(loaded) == result.trace
