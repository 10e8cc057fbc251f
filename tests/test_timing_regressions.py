"""Regression tests for three timing-accounting bugs.

1. ``Simulator.run(until=...)`` left the clock short of ``until`` when
   the queue drained early, so utilization windows and samplers saw a
   truncated timeline.
2. Cancelled events lingered in the heap, making ``pending`` O(n) and
   (worse) *wrong* as a "work remaining" signal for heavy cancellers.
3. ``OpportunisticGrid`` recorded ``peak_busy`` at match time, counting
   the opportunistic-wait window — during which nothing executes — as
   busy, inflating utilization. The peak is now recorded at arrival.
4. ``summarize()`` derived ``total_jobs`` from attempt records alone,
   so descendants of a hard-failed job silently vanished from the
   report. Plan information (DAG or expected count) now yields planned
   vs attempted vs unrunnable accounting.
5. The Chrome-trace exporter sorted a job's retry chain by attempt
   number alone, but rescue rounds restart numbering at 1 — in a trace
   merged across a ``--resume`` boundary the chain zig-zagged backwards
   in time and the retry flow arrows straddling the boundary were drawn
   wrong (or dropped by Perfetto as acausal). Chains now sort by
   ``(submit_time, attempt)``.
"""

import pytest

from repro.dagman.dag import Dag, DagJob
from repro.dagman.events import JobAttempt, JobStatus, WorkflowTrace
from repro.dagman.scheduler import DagmanScheduler
from repro.sim.engine import Simulator
from repro.sim.failures import FailureModel
from repro.sim.grid import GridConfig, GridSiteConfig, OpportunisticGrid
from repro.sim.rng import RngStreams
from repro.wms.statistics import render_report, summarize


class TestRunUntilClock:
    def test_clock_reaches_until_when_queue_drains_early(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run(until=100.0)
        assert sim.now == 100.0

    def test_clock_reaches_until_on_empty_queue(self):
        sim = Simulator()
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_events_beyond_until_do_not_fire(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(sim.now))
        sim.schedule(200.0, lambda: fired.append(sim.now))
        sim.run(until=100.0)
        assert fired == [5.0]
        assert sim.now == 100.0
        # the late event is still pending and fires on the next run
        sim.run()
        assert fired == [5.0, 200.0]

    def test_consecutive_windows_tile_the_timeline(self):
        """The sampler pattern: fixed windows must not overlap or gap."""
        sim = Simulator()
        sim.schedule(3.0, lambda: None)
        edges = []
        for stop in (10.0, 20.0, 30.0):
            sim.run(until=stop)
            edges.append(sim.now)
        assert edges == [10.0, 20.0, 30.0]


class TestCancelledEventCompaction:
    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        for event in events[:4]:
            event.cancel()
        assert sim.pending == 6

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.pending == 1

    def test_heavily_cancelled_heap_is_compacted(self):
        sim = Simulator()
        events = [
            sim.schedule(float(i + 1), lambda: None) for i in range(200)
        ]
        for event in events[:150]:
            event.cancel()
        # the heap itself shrank (compaction is amortised, so some
        # cancelled entries below the threshold may remain)
        assert len(sim._queue) < 200
        assert sim.pending == 50

    def test_compacted_heap_fires_survivors_in_order(self):
        sim = Simulator()
        fired = []
        events = [
            sim.schedule(float(i + 1), lambda i=i: fired.append(i))
            for i in range(200)
        ]
        for event in events[:150]:
            event.cancel()
        sim.run()
        assert fired == list(range(150, 200))
        assert sim.pending == 0

    def test_cancelled_below_threshold_still_skipped(self):
        sim = Simulator()
        fired = []
        keep = sim.schedule(2.0, lambda: fired.append("keep"))
        drop = sim.schedule(1.0, lambda: fired.append("drop"))
        drop.cancel()
        sim.run()
        assert fired == ["keep"]
        assert keep.time == 2.0


class TestCancelAfterFire:
    """Cancelling an event that already fired must be a no-op.

    Regression: ``cancel()`` used to increment the cancelled-entry
    counter unconditionally, so the watchdog pattern (a timeout event
    cancelling a completion event — or vice versa — after the race was
    already decided) drove ``pending`` negative and corrupted the
    compaction accounting.
    """

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.pending == 0
        event.cancel()
        assert sim.pending == 0
        assert event.fired
        assert not event.cancelled

    def test_watchdog_losing_the_race_keeps_pending_consistent(self):
        sim = Simulator()
        outcomes = []
        completion = sim.schedule(1.0, lambda: outcomes.append("done"))

        def watchdog():
            completion.cancel()  # too late: completion fired at t=1
            outcomes.append("timeout")

        sim.schedule(2.0, watchdog)
        follow_up = sim.schedule(3.0, lambda: outcomes.append("late"))
        sim.run(until=2.5)
        assert outcomes == ["done", "timeout"]
        assert sim.pending == 1  # exactly the follow-up, not 0 or 2
        sim.run()
        assert outcomes == ["done", "timeout", "late"]
        assert sim.pending == 0
        assert not follow_up.cancelled

    def test_mass_post_fire_cancels_do_not_trigger_compaction(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(100)]
        sim.run()
        for event in events:
            event.cancel()
            event.cancel()
        assert sim.pending == 0
        assert sim._cancelled == 0
        live = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        for event in live[:5]:
            event.cancel()
        assert sim.pending == 5
        sim.run()
        assert sim.pending == 0


class TestGridPeakBusyAtArrival:
    def grid(self, **config_kwargs):
        sim = Simulator()
        config = GridConfig(
            sites=(
                GridSiteConfig("site-a", 8, software_prob=1.0),
            ),
            dispatch_latency_s=5.0,
            wait_mean_s=600.0,
            wait_spike_prob=0.0,
            failures=FailureModel(
                start_failure_prob=0.0, eviction_rate_per_s=0.0
            ),
            **config_kwargs,
        )
        env = OpportunisticGrid(sim, config, streams=RngStreams(seed=0))
        return sim, env

    def submit_bag(self, env, count=4, runtime=100.0):
        records = []
        for i in range(count):
            env.submit(
                DagJob(name=f"j{i}", transformation="t", runtime=runtime),
                records.append,
            )
        return records

    def test_matched_but_waiting_is_not_busy(self):
        sim, env = self.grid()
        self.submit_bag(env, count=4)
        # All four matched a slot immediately (submit dispatches
        # synchronously) but none has arrived yet: slots are reserved,
        # not busy.
        assert env.busy_slots == 4
        assert env.occupied_slots == 0
        assert env.peak_busy == 0

    def test_queue_status_counts_waiting_as_idle(self):
        sim, env = self.grid()
        self.submit_bag(env, count=4)
        assert env.queue_status() == {"idle": 4, "running": 0}

    def test_peak_recorded_at_arrival(self):
        sim, env = self.grid()
        records = self.submit_bag(env, count=4)
        sim.run()
        assert len(records) == 4
        assert all(r.status is JobStatus.SUCCEEDED for r in records)
        # at least one job was actually executing at the peak, and the
        # peak never exceeds what arrived
        assert 1 <= env.peak_busy <= 4
        assert env.occupied_slots == 0  # all released

    def test_peak_below_match_count_when_waits_stagger(self):
        """The regression's observable symptom: with long, spread-out
        opportunistic waits and short payloads, jobs execute one or two
        at a time even though all of them match instantly. Match-time
        accounting reported peak==count; arrival accounting must not."""
        sim, env = self.grid(wait_sigma=1.5, wait_max_s=50000.0)
        self.submit_bag(env, count=8, runtime=1.0)
        sim.run()
        assert env.peak_busy < 8


class TestSummarizePlannedVsAttempted:
    def dag(self):
        dag = Dag()
        for name in ("root", "mid", "leaf"):
            dag.add_job(DagJob(name=name, transformation="t", runtime=1.0))
        dag.add_edge("root", "mid")
        dag.add_edge("mid", "leaf")
        return dag

    def failed_root_trace(self):
        trace = WorkflowTrace()
        trace.add(
            JobAttempt(
                job_name="root", transformation="t", site="s", machine="m",
                attempt=1, submit_time=0.0, setup_start=1.0,
                exec_start=1.0, exec_end=2.0, status=JobStatus.FAILED,
                error="boom",
            )
        )
        return trace

    def test_trace_only_total_is_attempted(self):
        stats = summarize(self.failed_root_trace())
        assert stats.total_jobs == 1
        assert stats.planned_jobs is None
        assert stats.unattempted_jobs == 0

    def test_dag_reveals_unrunnable_descendants(self):
        stats = summarize(self.failed_root_trace(), dag=self.dag())
        assert stats.total_jobs == 3
        assert stats.planned_jobs == 3
        assert stats.attempted_jobs == 1
        assert stats.unattempted_jobs == 2
        assert stats.succeeded_jobs == 0

    def test_expected_jobs_count_works_like_dag(self):
        stats = summarize(self.failed_root_trace(), expected_jobs=3)
        assert stats.total_jobs == 3
        assert stats.unattempted_jobs == 2

    def test_dag_and_expected_jobs_are_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            summarize(self.failed_root_trace(), dag=self.dag(),
                      expected_jobs=3)

    def test_trace_outside_dag_rejected(self):
        trace = self.failed_root_trace()
        other = Dag()
        other.add_job(DagJob(name="unrelated", transformation="t"))
        with pytest.raises(ValueError, match="not in the DAG"):
            summarize(trace, dag=other)

    def test_expected_fewer_than_attempted_rejected(self):
        with pytest.raises(ValueError, match="fewer than"):
            summarize(self.failed_root_trace(), expected_jobs=0)

    def test_report_prints_planned_vs_attempted(self):
        stats = summarize(self.failed_root_trace(), dag=self.dag())
        report = render_report(stats)
        assert "planned" in report
        assert "never ran (unrunnable)" in report
        assert ": 2" in report

    def test_end_to_end_unrunnable_accounting(self):
        """A real scheduler run: root fails hard, descendants never
        attempt, and the DAG-aware summary says so."""
        from repro.sim.cluster import CampusCluster

        dag = self.dag()
        dag.jobs["root"] = DagJob(
            name="root", transformation="t", runtime=1.0,
            payload=None, retries=0,
        )
        sim = Simulator()
        env = CampusCluster(sim, streams=RngStreams(seed=0))

        real_submit = env.submit

        def failing_submit(job, on_complete, *, attempt=1):
            if job.name == "root":
                def fail():
                    on_complete(
                        JobAttempt(
                            job_name="root", transformation="t",
                            site="sandhills", machine="m", attempt=attempt,
                            submit_time=env.now, setup_start=env.now,
                            exec_start=env.now, exec_end=env.now + 1.0,
                            status=JobStatus.FAILED, error="boom",
                        )
                    )
                sim.schedule(1.0, fail)
            else:
                real_submit(job, on_complete, attempt=attempt)

        env.submit = failing_submit
        result = DagmanScheduler(dag, env).run()
        assert not result.success
        stats = summarize(result.trace, dag=dag)
        assert stats.total_jobs == 3
        assert stats.attempted_jobs == 1
        assert stats.unattempted_jobs == 2


class TestRetryFlowsAcrossRescueRounds:
    """Regression 5: flow arrows must stay causal in a merged
    multi-round trace where rescue rounds restart attempt numbering."""

    @staticmethod
    def attempt(attempt, submit, end, status):
        return JobAttempt(
            job_name="x", transformation="t", site="osg",
            machine=f"m{attempt}-{submit:.0f}", attempt=attempt,
            submit_time=submit, setup_start=submit, exec_start=submit,
            exec_end=end, status=status,
        )

    def merged_trace(self):
        """Round 1: attempts 1 (failed) and 2 (failed); rescue round
        restarts numbering: attempt 1 (succeeded) after --resume."""
        trace = WorkflowTrace()
        trace.add(self.attempt(1, 0.0, 50.0, JobStatus.FAILED))
        trace.add(self.attempt(2, 60.0, 90.0, JobStatus.FAILED))
        trace.add(self.attempt(1, 100.0, 140.0, JobStatus.SUCCEEDED))
        return trace

    def flows(self, doc):
        from collections import defaultdict

        pairs = defaultdict(dict)
        for e in doc["traceEvents"]:
            if e.get("cat") == "retry" and e["ph"] in ("s", "f"):
                pairs[e["id"]][e["ph"]] = e
        return [
            (pair["s"], pair["f"])
            for _, pair in sorted(pairs.items())
        ]

    def test_arrows_span_the_resume_boundary_in_time_order(self):
        from tests.test_chrome_render import chrome_doc

        doc = chrome_doc(self.merged_trace(), workflow="wf")
        flows = self.flows(doc)
        # two hops: attempt1 -> attempt2 -> rescue-round attempt1
        assert len(flows) == 2
        for start, finish in flows:
            assert start is not None and finish is not None
            assert start["ts"] <= finish["ts"], (
                "retry flow arrow points backwards in time"
            )
        # the cross-boundary hop lands on the rescue round's resubmit
        (hop1, hop2) = flows
        assert hop1[0]["ts"] == 50.0 * 1e6
        assert hop1[1]["ts"] == 60.0 * 1e6
        assert hop2[0]["ts"] == 90.0 * 1e6
        assert hop2[1]["ts"] == 100.0 * 1e6

    def test_single_round_chains_unchanged(self):
        from tests.test_chrome_render import chrome_doc

        trace = WorkflowTrace()
        trace.add(self.attempt(1, 0.0, 50.0, JobStatus.FAILED))
        trace.add(self.attempt(2, 60.0, 90.0, JobStatus.SUCCEEDED))
        flows = self.flows(chrome_doc(trace, workflow="wf"))
        assert len(flows) == 1
        assert flows[0][0]["ts"] == 50.0 * 1e6
        assert flows[0][1]["ts"] == 60.0 * 1e6
