"""Tests for causal span tracing and online anomaly detection.

Covers the deterministic ID scheme, the span hierarchy and every
causal-link relation on scripted DAGs (released_by, retry_of,
rescue_continuation, journal_resume), the critical path walked over a
log's ``released_by`` names against the plan's (hypothesis-pinned over
seeds), the OTLP-JSON and Perfetto exports,
the anomaly detector catalog, the status view's ALERTS pane, and the
journal round-trip that lets a resumed run extend its pre-crash trace.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.workflow_factory import simulate_paper_run
from repro.dagman.dag import Dag, DagJob
from repro.dagman.scheduler import DagmanScheduler
from repro.observe import (
    AnomalyMonitor,
    BlacklistStormDetector,
    EventBus,
    EventKind,
    EventRecorder,
    QueueWaitDetector,
    RunEvent,
    SloBurnDetector,
    SpanTracer,
    StatusView,
    StragglerDetector,
    derive_span_id,
    derive_trace_id,
    write_otlp_trace,
    write_perfetto_trace,
)
from repro.observe.analysis import attribute_makespan
from repro.observe.report import build_report
from tests.oracles.span_documents import to_otlp_json, to_perfetto_json
from repro.resilience.journal import Journal, recover
from repro.sim.cluster import CampusCluster, CampusClusterConfig
from repro.sim.engine import Simulator
from repro.sim.failures import FailureModel
from repro.sim.grid import GridConfig, OpportunisticGrid
from repro.sim.rng import RngStreams


def chain_dag() -> Dag:
    """a -> b -> c: every release edge is unambiguous."""
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


def traced_chain_run(seed=7, probe=None):
    bus = EventBus()
    recorder = EventRecorder(bus)
    tracer = SpanTracer(trace_id=derive_trace_id("chain"), bus=bus)
    if probe is not None:  # sees each event after the tracer has
        bus.subscribe(lambda event: probe(tracer, event))
    env = CampusCluster(
        Simulator(),
        CampusClusterConfig(group_slots=2),
        streams=RngStreams(seed=seed),
        bus=bus,
    )
    result = DagmanScheduler(chain_dag(), env, bus=bus).run()
    assert result.success
    return result, recorder, tracer


def fold(events, trace_id):
    """Replay a recorded event stream through a fresh tracer."""
    tracer = SpanTracer(trace_id=trace_id)
    for event in events:
        tracer(event)
    return tracer.finish()


def by_kind(spans, kind):
    return [s for s in spans if s.kind == kind]


def span_index(spans):
    return {s.span_id: s for s in spans}


class TestDeterministicIds:
    def test_id_shapes_and_stability(self):
        tid = derive_trace_id("anything")
        assert len(tid) == 32 and int(tid, 16) >= 0
        sid = derive_span_id(tid, "job:a", 0)
        assert len(sid) == 16 and int(sid, 16) >= 0
        assert derive_trace_id("anything") == tid
        assert derive_span_id(tid, "job:a", 0) == sid
        assert derive_span_id(tid, "job:a", 1) != sid
        assert derive_span_id(tid, "job:b", 0) != sid

    def test_run_root_is_a_pure_function_of_trace_id(self):
        # Two tracer instances that never saw each other's events agree
        # on the run-root id — the anchor a resumed process links to.
        a = SpanTracer(trace_id=derive_trace_id("x"))
        b = SpanTracer(trace_id=derive_trace_id("x"))
        assert a.run_root_span_id == b.run_root_span_id

    def test_same_run_yields_byte_identical_trace(self):
        _, _, tracer1 = traced_chain_run()
        _, _, tracer2 = traced_chain_run()
        ids1 = [(s.name, s.span_id, s.parent_span_id)
                for s in tracer1.finish()]
        ids2 = [(s.name, s.span_id, s.parent_span_id)
                for s in tracer2.finish()]
        assert ids1 == ids2


class TestSpanHierarchy:
    def test_folds_each_event_as_it_arrives(self):
        mid_run = []

        def probe(tracer, event):
            if event.kind is EventKind.SUBMIT and event.job_name == "b":
                mid_run.extend(
                    (s.kind, s.name, s.end is None) for s in tracer.spans
                )

        _, recorder, tracer = traced_chain_run(probe=probe)
        # When b is submitted, a is over and b has just opened.
        assert mid_run == [
            ("run", "run", True),
            ("workflow", "workflow", True),
            ("job", "job:a", False),
            ("attempt", "a/attempt-1", False),
            ("job", "job:b", True),
            ("attempt", "b/attempt-1", True),
        ]
        live = len(tracer.spans)
        assert not by_kind(tracer.spans, "phase")
        spans = tracer.finish()
        assert tracer.spans is spans
        # finish() appends the phase spans after every other span and
        # closes what the run left open (the run span itself).
        assert spans[live:] and all(s.kind == "phase" for s in spans[live:])
        assert all(s.end is not None for s in spans)
        # The offline fold over the recorded stream is the same list.
        assert fold(recorder.events, tracer.trace_id) == spans

    def test_levels_and_parents(self):
        _, _, tracer = traced_chain_run()
        spans = tracer.finish()
        index = span_index(spans)
        (run,) = by_kind(spans, "run")
        (workflow,) = by_kind(spans, "workflow")
        assert run.parent_span_id is None
        assert workflow.parent_span_id == run.span_id
        jobs = by_kind(spans, "job")
        attempts = by_kind(spans, "attempt")
        assert sorted(s.attributes["job"] for s in jobs) == ["a", "b", "c"]
        assert len(attempts) == 3
        for job in jobs:
            assert job.parent_span_id == workflow.span_id
        for attempt in attempts:
            assert index[attempt.parent_span_id].kind == "job"
        for phase in by_kind(spans, "phase"):
            assert index[phase.parent_span_id].kind == "attempt"
        # all spans closed, clean run is all-ok
        assert all(s.end is not None for s in spans)
        assert all(s.status == "ok" for s in jobs + attempts)

    def test_released_by_links_mirror_the_dag(self):
        _, _, tracer = traced_chain_run()
        spans = tracer.finish()
        index = span_index(spans)
        jobs = {s.attributes["job"]: s for s in by_kind(spans, "job")}
        assert "released_by" not in jobs["a"].attributes  # a root job
        for child, parent in (("b", "a"), ("c", "b")):
            span = jobs[child]
            assert span.attributes["released_by"] == parent
            (link,) = [
                ln for ln in span.links
                if ln.attributes.get("relation") == "released_by"
            ]
            target = index[link.span_id]
            assert target.kind == "attempt"
            assert target.attributes["job"] == parent
            # causality: the parent attempt finished before (or exactly
            # when) the released child's span starts.
            assert target.end <= span.start + 1e-9


class TestRetryChains:
    def grid_run_with_failures(self, seed=3):
        bus = EventBus()
        recorder = EventRecorder(bus)
        tracer = SpanTracer(trace_id=derive_trace_id("flaky"), bus=bus)
        dag = Dag(name="flaky")
        for i in range(12):
            dag.add_job(DagJob(
                name=f"job{i}", transformation="work", runtime=2000.0,
                needs_setup=True,
            ))
        grid = OpportunisticGrid(
            Simulator(),
            GridConfig(failures=FailureModel(
                start_failure_prob=0.25, eviction_rate_per_s=1 / 4000.0,
            )),
            streams=RngStreams(seed=seed),
        bus=bus,
        )
        result = DagmanScheduler(dag, grid, default_retries=10,
                                 bus=bus).run()
        assert result.success
        assert result.trace.retry_count > 0
        return result, recorder, tracer

    def test_retry_of_links_chain_attempts(self):
        result, _, tracer = self.grid_run_with_failures()
        spans = tracer.finish()
        index = span_index(spans)
        retried = [
            s for s in by_kind(spans, "attempt")
            if int(s.attributes["attempt"]) > 1
        ]
        assert retried, "failure model produced no retries"
        for attempt in retried:
            (link,) = [
                ln for ln in attempt.links
                if ln.attributes.get("relation") == "retry_of"
            ]
            prior = index[link.span_id]
            assert prior.attributes["job"] == attempt.attributes["job"]
            assert int(prior.attributes["attempt"]) == (
                int(attempt.attributes["attempt"]) - 1
            )
            # the prior attempt failed or was evicted — never succeeded
            assert prior.status == "error"
            assert link.attributes["prior_status"] in (
                "failed", "evicted",
            )

    def test_eviction_to_retry_chain_is_explicit(self):
        result, _, tracer = self.grid_run_with_failures()
        spans = tracer.finish()
        index = span_index(spans)
        evicted = [
            s for s in by_kind(spans, "attempt")
            if s.attributes.get("status") == "evicted"
        ]
        assert evicted, "eviction rate produced no evictions"
        evicted_ids = {s.span_id for s in evicted}
        followers = [
            s for s in by_kind(spans, "attempt")
            for ln in s.links
            if ln.attributes.get("relation") == "retry_of"
            and ln.span_id in evicted_ids
        ]
        assert followers, "an evicted attempt was never retried"


class TestContinuationLinks:
    def _wf(self, kind, t, **detail):
        return RunEvent(kind, t, detail=detail)

    def test_rescue_round_links_previous_workflow_span(self):
        events = [
            self._wf(EventKind.WORKFLOW_START, 0.0, workflow="w"),
            self._wf(EventKind.WORKFLOW_END, 50.0, workflow="w",
                     success=False),
            self._wf(EventKind.RESCUE, 50.0, round=1, failed=2,
                     remaining=3),
            self._wf(EventKind.WORKFLOW_START, 51.0, workflow="w",
                     round=1),
            self._wf(EventKind.WORKFLOW_END, 90.0, workflow="w",
                     success=True),
        ]
        spans = fold(events, derive_trace_id("r"))
        first, second = by_kind(spans, "workflow")
        (link,) = second.links
        assert link.attributes["relation"] == "rescue_continuation"
        assert link.span_id == first.span_id
        assert link.attributes["round"] == 1
        assert link.attributes["failed"] == 2

    def test_journal_resume_links_pre_crash_run_root(self):
        trace_id = derive_trace_id("crashy")
        events = [
            RunEvent(EventKind.JOURNAL_RESUME, 40.0, detail={
                "replayed": 7, "done": 3, "torn": False, "clock": 40.0,
                "trace_id": trace_id,
            }),
            self._wf(EventKind.WORKFLOW_START, 40.0, workflow="w"),
        ]
        tracer = SpanTracer(trace_id=trace_id)
        for event in events:
            tracer(event)
        spans = tracer.finish()
        (run,) = by_kind(spans, "run")
        (workflow,) = by_kind(spans, "workflow")
        assert run.attributes["resumed"] is True
        (link,) = workflow.links
        assert link.attributes["relation"] == "journal_resume"
        assert link.attributes["replayed"] == 7
        # the link targets the *deterministic* run-root id, which the
        # pre-crash process (same trace id) also had — no pre-crash
        # span data was needed to aim it.
        assert link.span_id == tracer.run_root_span_id
        assert link.span_id == SpanTracer(
            trace_id=trace_id
        ).run_root_span_id


class TestCriticalPathTiling:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=50))
    def test_released_by_path_agrees_with_dag_path(self, seed):
        bus = EventBus()
        recorder = EventRecorder(bus)
        result, planned = simulate_paper_run(
            12, "osg", seed=seed, bus=bus
        )
        assert result.success
        logged = build_report(result.trace, events=recorder.events)
        assert logged["method"] == "released-by"
        at = attribute_makespan(result.trace, planned.dag.parent_sets())
        # exact tiling: the buckets sum to the makespan
        assert sum(at.buckets.values()) == pytest.approx(
            at.makespan_s, abs=1e-6
        )
        assert logged["makespan_s"] == at.makespan_s
        assert [r["job"] for r in logged["critical_path"]] == at.path_jobs
        assert logged["attribution"] == at.buckets


class TestExports:
    def spans(self):
        _, _, tracer = traced_chain_run()
        return tracer.finish()

    def test_otlp_json_structure(self, tmp_path):
        spans = self.spans()
        path = write_otlp_trace(tmp_path / "trace.otlp.json", spans)
        otlp = json.loads(path.read_text())
        scope = otlp["resourceSpans"][0]["scopeSpans"][0]
        rows = scope["spans"]
        assert len(rows) == len(spans)
        ids = {r["spanId"] for r in rows}
        assert len(ids) == len(rows)
        for row in rows:
            assert len(row["traceId"]) == 32
            assert len(row["spanId"]) == 16
            assert int(row["endTimeUnixNano"]) >= int(
                row["startTimeUnixNano"]
            )
            if row.get("parentSpanId"):
                assert row["parentSpanId"] in ids
        # causal links survive export, relation attribute intact
        linked = [r for r in rows if r.get("links")]
        assert linked
        relations = {
            attr["value"]["stringValue"]
            for r in linked
            for ln in r["links"]
            for attr in ln["attributes"]
            if attr["key"] == "relation"
        }
        assert "released_by" in relations

    def test_perfetto_packets_balance(self, tmp_path):
        spans = self.spans()
        path = write_perfetto_trace(tmp_path / "trace.pftrace.json", spans)
        perfetto = json.loads(path.read_text())
        packets = perfetto["packet"]
        tracks = {
            p["trackDescriptor"]["uuid"]
            for p in packets if "trackDescriptor" in p
        }
        slices = [p for p in packets if "trackEvent" in p]
        assert tracks and slices
        assert all(
            p["trackEvent"]["trackUuid"] in tracks for p in slices
        )
        begins = [
            p for p in slices
            if p["trackEvent"]["type"] == "TYPE_SLICE_BEGIN"
        ]
        ends = [
            p for p in slices
            if p["trackEvent"]["type"] == "TYPE_SLICE_END"
        ]
        assert len(begins) == len(ends)
        assert all("timestamp" in p for p in slices)

    def test_to_json_helpers_match_writers(self, tmp_path):
        spans = self.spans()
        assert to_otlp_json(spans) == json.loads(
            write_otlp_trace(tmp_path / "a.json", spans).read_text()
        )
        assert to_perfetto_json(spans) == json.loads(
            write_perfetto_trace(tmp_path / "b.json", spans).read_text()
        )

    def test_writers_replace_atomically(self, tmp_path, monkeypatch):
        # A crash mid-export must leave the previous file, never half a
        # JSON document: both writers print into atomic_open (temp file
        # + rename, 0600 like the other artefacts).
        spans = self.spans()

        def die(*args):
            raise OSError("disk full")

        for write in (write_otlp_trace, write_perfetto_trace):
            path = tmp_path / f"{write.__name__}.json"
            path.write_text("previous")
            with monkeypatch.context() as patch:
                patch.setattr("os.replace", die)
                with pytest.raises(OSError, match="disk full"):
                    write(path, spans)
            assert path.read_text() == "previous"
            assert [p.name for p in tmp_path.iterdir()] == [path.name]
            assert write(path, spans) == path
            assert path.stat().st_mode & 0o777 == 0o600
            path.unlink()


class TestStragglerDetector:
    def events_with_slow_attempt(self, finish_at):
        submit = RunEvent(
            EventKind.SUBMIT, 0.0, job_name="slow",
            transformation="work", attempt=1,
            detail={"expected_s": 100.0},
        )
        start = RunEvent(
            EventKind.EXEC_START, 10.0, job_name="slow",
            transformation="work", site="osg", machine="m1", attempt=1,
        )
        # an unrelated event advances the clock past the deadline
        tick = RunEvent(EventKind.SAMPLE, finish_at,
                        detail={"busy": 1, "idle": 0})
        return [submit, start, tick]

    def test_seeded_slowdown_flagged_within_attempt(self):
        detector = StragglerDetector(factor=3.0)
        alerts = []
        # deadline = 10 + 3 * 100 = 310; clock reaches 400 mid-attempt
        for event in self.events_with_slow_attempt(400.0):
            alerts += detector.update(event)
        (alert,) = alerts
        assert alert.kind is EventKind.ANOMALY_STRAGGLER
        assert alert.job_name == "slow"
        assert alert.detail["expected_s"] == 100.0
        assert alert.detail["elapsed_s"] >= 300.0
        # one alert per attempt, even as the clock keeps advancing
        more = detector.update(
            RunEvent(EventKind.SAMPLE, 500.0, detail={})
        )
        assert more == []

    def test_fast_attempt_never_flagged(self):
        detector = StragglerDetector(factor=3.0)
        events = self.events_with_slow_attempt(200.0)  # before deadline
        alerts = []
        for event in events:
            alerts += detector.update(event)
        assert alerts == []


class TestDetectorUnits:
    def test_queue_wait_spike(self):
        detector = QueueWaitDetector(factor=3.0, min_samples=3,
                                     min_s=1.0)
        alerts = []
        t = 0.0
        for i in range(4):  # establish a ~10s baseline
            alerts += detector.update(RunEvent(
                EventKind.SUBMIT, t, job_name=f"j{i}", site="osg",
            ))
            alerts += detector.update(RunEvent(
                EventKind.MATCH, t + 10.0, job_name=f"j{i}", site="osg",
                detail={"queue_depth": 5},
            ))
            t += 100.0
        assert alerts == []
        alerts += detector.update(RunEvent(
            EventKind.SUBMIT, t, job_name="late", site="osg",
        ))
        alerts += detector.update(RunEvent(
            EventKind.MATCH, t + 500.0, job_name="late", site="osg",
            detail={"queue_depth": 40},
        ))
        (alert,) = alerts
        assert alert.kind is EventKind.ANOMALY_QUEUE_WAIT
        assert alert.detail["wait_s"] == 500.0
        assert alert.detail["queue_depth"] == 40

    def test_blacklist_storm_one_alert_per_window(self):
        detector = BlacklistStormDetector(threshold=3, window_s=100.0)
        alerts = []
        for i in range(5):
            alerts += detector.update(RunEvent(
                EventKind.BLACKLIST, float(i), site="osg",
                machine=f"m{i}", detail={},
            ))
        (alert,) = alerts  # hysteresis: one alert for the whole storm
        assert alert.kind is EventKind.ANOMALY_BLACKLIST_STORM
        assert alert.detail["count"] >= 3

    def test_slo_burn_fires_and_rearms(self):
        detector = SloBurnDetector(
            target_s=100.0, window=4, burn_threshold=0.5, min_count=2
        )
        def done(t, turnaround):
            return RunEvent(
                EventKind.SERVICE_WORKFLOW_DONE, t,
                detail={"tenant": "alice", "workflow": f"w{t}",
                        "succeeded": True, "turnaround_s": turnaround},
            )
        alerts = []
        alerts += detector.update(done(1.0, 500.0))  # miss
        alerts += detector.update(done(2.0, 500.0))  # miss -> burning
        (alert,) = alerts
        assert alert.kind is EventKind.ANOMALY_SLO_BURN
        assert alert.detail["tenant"] == "alice"
        assert alert.detail["burn_rate"] >= 0.5
        # still burning: no duplicate alert
        assert detector.update(done(3.0, 500.0)) == []
        # recovery re-arms, a fresh burn re-fires
        assert detector.update(done(4.0, 10.0)) == []
        assert detector.update(done(5.0, 10.0)) == []
        assert detector.update(done(6.0, 10.0)) == []
        assert detector.update(done(7.0, 500.0)) == []
        assert len(detector.update(done(8.0, 500.0))) == 1


class TestAnomalyMonitor:
    def test_alerts_reemitted_on_the_bus(self):
        bus = EventBus()
        recorder = EventRecorder(bus)
        monitor = AnomalyMonitor(
            bus, straggler=StragglerDetector(factor=3.0)
        )
        bus.emit(RunEvent(
            EventKind.SUBMIT, 0.0, job_name="slow",
            transformation="work", attempt=1,
            detail={"expected_s": 100.0},
        ))
        bus.emit(RunEvent(
            EventKind.EXEC_START, 10.0, job_name="slow",
            transformation="work", attempt=1,
        ))
        bus.emit(RunEvent(EventKind.SAMPLE, 400.0, detail={}))
        assert [a.kind for a in monitor.alerts] == [
            EventKind.ANOMALY_STRAGGLER
        ]
        assert [
            e.kind for e in recorder.of_kind(EventKind.ANOMALY_STRAGGLER)
        ] == [EventKind.ANOMALY_STRAGGLER]

    def test_own_output_never_feeds_back(self):
        bus = EventBus()
        monitor = AnomalyMonitor(bus)
        bus.emit(RunEvent(
            EventKind.ANOMALY_STRAGGLER, 1.0, job_name="x", detail={},
        ))
        assert monitor.alerts == []

    def test_shared_bus_with_tracer_converges(self):
        bus = EventBus()
        tracer = SpanTracer(bus=bus)
        monitor = AnomalyMonitor(bus)
        recorder = EventRecorder(bus)
        env = CampusCluster(
            Simulator(), CampusClusterConfig(group_slots=2),
            streams=RngStreams(seed=7), bus=bus,
        )
        result = DagmanScheduler(chain_dag(), env, bus=bus).run()
        assert result.success
        seen = len(recorder.events)
        assert tracer.finish()
        # The fold runs off the bus: it publishes nothing, so there is
        # nothing for the monitor (or the tracer itself) to feed on.
        assert len(recorder.events) == seen == bus.emitted
        assert monitor.alerts == []  # clean run: nothing anomalous


class TestStatusAlertsPane:
    def test_alerts_render_and_overflow(self):
        view = StatusView()
        view.update(RunEvent(
            EventKind.WORKFLOW_START, 0.0, detail={"jobs": 3},
        ))
        for i in range(7):
            view.update(RunEvent(
                EventKind.ANOMALY_STRAGGLER, float(i),
                job_name=f"job{i}",
                detail={"elapsed_s": 400.0, "expected_s": 100.0},
            ))
        assert len(view.alerts) == 7
        rendered = view.render(max_alerts=5)
        assert "ALERTS (7)" in rendered
        assert "anomaly.straggler" in rendered
        assert "job6" in rendered  # latest alert shown
        assert "… 2 earlier" in rendered
        assert "job0" not in rendered  # overflowed

    def test_no_pane_without_alerts(self):
        view = StatusView()
        view.update(RunEvent(
            EventKind.WORKFLOW_START, 0.0, detail={"jobs": 1},
        ))
        assert "ALERTS" not in view.render()


class TestJournalTraceIdRoundTrip:
    def test_trace_id_survives_recovery(self, tmp_path):
        trace_id = derive_trace_id("pr10")
        journal = Journal(tmp_path / "j")
        journal.record_trace_id(trace_id)
        journal.close()
        recovered = recover(tmp_path / "j")
        assert recovered.trace_id == trace_id

    def test_re_recording_same_id_is_idempotent(self, tmp_path):
        trace_id = derive_trace_id("pr10")
        once = Journal(tmp_path / "once")
        once.record_trace_id(trace_id)
        once.close()
        twice = Journal(tmp_path / "twice")
        twice.record_trace_id(trace_id)
        twice.record_trace_id(trace_id)  # no-op: same id
        twice.close()
        assert (
            recover(tmp_path / "twice").replayed
            == recover(tmp_path / "once").replayed
        )
        # a resumed journal re-records the recovered id: still a no-op
        recovered = recover(tmp_path / "once")
        resumed = Journal(tmp_path / "once", resume=recovered)
        resumed.record_trace_id(trace_id)
        resumed.close()
        after = recover(tmp_path / "once")
        assert after.trace_id == trace_id
        assert after.replayed == recovered.replayed

    def test_fresh_journal_has_no_trace_id(self, tmp_path):
        journal = Journal(tmp_path / "j")
        journal.close()
        assert recover(tmp_path / "j").trace_id is None
