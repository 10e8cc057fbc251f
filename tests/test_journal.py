"""The write-ahead journal: framing, torn tails, compaction, recovery.

The headline property lives in ``TestKillAnywhere``: for *every* crash
point in a journaled run, resuming from the journal reaches the same
final job states and the same executed-attempt set as the uninterrupted
run, and never re-executes a job whose success was journaled.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dagman.dag import Dag, DagJob
from repro.dagman.events import JobAttempt, JobStatus
from repro.dagman.scheduler import NodeState
from repro.observe.bus import EventBus
from repro.observe.events import EventKind, RunEvent, attempt_events
from repro.resilience.blacklist import Blacklist, BlacklistPolicy
from repro.resilience.faults import CrashFault, CrashInjected
from repro.resilience.journal import (
    Journal,
    JournalError,
    JournalState,
    RecoveredState,
    decode_record,
    reconcile_local,
    recover,
)
from repro.resilience.recovery import run_with_recovery
from repro.resilience.retry import FixedDelayRetry
from repro.sim.engine import Simulator
from repro.util import iolib
from repro.util.iolib import ensure_dir
from tests.oracles.journal_reference import encode_record


# ---------------------------------------------------------------------------
# Scripted environment: outcome is a pure function of (job, attempt),
# so a crashed-and-resumed run and an uninterrupted run must agree.
# ---------------------------------------------------------------------------


class ScriptedEnvironment:
    def __init__(self, failures=frozenset(), *, bus=None, start_time=0.0):
        self.sim = Simulator(start_time=start_time)
        self.failures = set(failures)
        self.bus = bus
        self.submissions: list[tuple[str, int]] = []

    @property
    def now(self):
        return self.sim.now

    def call_later(self, delay_s, fn):
        self.sim.schedule(delay_s, fn)

    def submit(self, job, on_complete, *, attempt=1):
        self.submissions.append((job.name, attempt))
        submit_time = self.now

        def finish():
            failed = (job.name, attempt) in self.failures
            record = JobAttempt(
                job_name=job.name,
                transformation=job.transformation,
                site="scripted",
                machine="m0",
                attempt=attempt,
                submit_time=submit_time,
                setup_start=submit_time,
                exec_start=submit_time,
                exec_end=self.now,
                status=JobStatus.FAILED if failed else JobStatus.SUCCEEDED,
                error="scripted failure" if failed else None,
            )
            if self.bus is not None:
                for event in attempt_events(record):
                    self.bus.emit(event)
            on_complete(record)

        self.sim.schedule(job.runtime, finish)

    def run_until_complete(self):
        self.sim.run()


def diamond(retries=1):
    dag = Dag(name="diamond")
    for name in ("a", "b", "c", "d"):
        dag.add_job(
            DagJob(
                name=name, transformation="t", runtime=10.0,
                retries=retries,
            )
        )
    dag.add_edge("a", "b")
    dag.add_edge("a", "c")
    dag.add_edge("b", "d")
    dag.add_edge("c", "d")
    return dag


def run_journaled(failures, jdir, *, dag=None, crash=None,
                  snapshot_every=1000, max_rounds=2, resume=None,
                  retries=1, retry_delay=5.0, close=True, envs=None):
    """One journaled run (or resumed continuation); returns
    (outcome, env, journal). The environment is also appended to
    *envs*, when given, before the run starts: a crashing run never
    returns it."""
    bus = EventBus()
    journal = Journal(
        jdir, bus=bus, snapshot_every=snapshot_every, crash=crash,
        resume=resume,
    )
    env = ScriptedEnvironment(
        failures, bus=bus,
        start_time=resume.clock if resume is not None else 0.0,
    )
    if envs is not None:
        envs.append(env)
    outcome = run_with_recovery(
        dag if dag is not None else diamond(retries),
        env,
        max_rounds=max_rounds,
        bus=bus,
        retry_policy=FixedDelayRetry(retry_delay),
        journal=journal,
        resume=resume,
    )
    if close:
        journal.close()
    else:
        journal._fh.close()  # crash-style: flushed WAL, no compaction
    return outcome, env, journal


def vouched_records(recovered: RecoveredState) -> list[bytes]:
    """Every terminal record body ``recover()`` vouched for, in order:
    the attempts among the log's lines up to ``last_seq``, without their
    framing (a resume appends after them, so any time will do)."""
    lines = (recovered.path / "wal.jsonl").read_bytes().splitlines()
    bodies = []
    for line in lines[: recovered.last_seq + 1]:
        data = decode_record(line)
        assert data is not None
        if data["event"] in ("job.finish", "job.evict"):
            bodies.append(b"{" + line[line.find(b",", 24) + 1 :])
    return bodies


# ---------------------------------------------------------------------------
# Record framing
# ---------------------------------------------------------------------------


class TestRecordFraming:
    def test_round_trip(self):
        body = {"event": "job.submit", "job_name": "a", "t": 1.5,
                "attempt": 2}
        line = encode_record(7, body)
        assert line.endswith("\n")
        data = decode_record(line)
        assert data is not None
        assert data["seq"] == 7
        assert data["job_name"] == "a"

    def test_line_is_plain_jsonl_with_crc_first(self):
        line = encode_record(0, {"event": "workflow.start", "t": 0.0})
        parsed = json.loads(line)
        assert list(parsed)[0] == "crc"

    def test_corrupt_payload_rejected(self):
        line = encode_record(3, {"event": "job.submit", "job_name": "a"})
        corrupt = line.replace('"a"', '"b"')
        assert decode_record(corrupt) is None

    def test_corrupt_crc_rejected(self):
        line = encode_record(3, {"event": "job.submit", "job_name": "a"})
        data = json.loads(line)
        data["crc"] = "00000000"
        assert decode_record(json.dumps(data)) is None

    def test_non_object_rejected(self):
        assert decode_record("[1, 2]") is None
        assert decode_record("garbage") is None
        assert decode_record('{"seq": 1}') is None  # no crc


# ---------------------------------------------------------------------------
# Torn-tail truncation
# ---------------------------------------------------------------------------


def _write_attempts(jdir, jobs=("a", "b", "c")):
    """A journal holding one successful attempt per job."""
    bus = EventBus()
    journal = Journal(jdir, snapshot_every=10_000, bus=bus)
    t = 0.0
    for name in jobs:
        record = JobAttempt(
            job_name=name, transformation="t", site="s", machine="m",
            attempt=1, submit_time=t, setup_start=t, exec_start=t,
            exec_end=t + 5.0, status=JobStatus.SUCCEEDED,
        )
        for event in attempt_events(record):
            bus.emit(event)
        t += 10.0
    # no close(): simulate a crash, leaving only the flushed WAL
    journal._fh.close()
    return journal


class TestTornTail:
    def test_clean_wal_replays_fully(self, tmp_path):
        _write_attempts(tmp_path)
        rec = recover(tmp_path)
        assert not rec.torn_tail
        assert rec.done == {"a", "b", "c"}

    def test_trailing_garbage_truncated(self, tmp_path):
        _write_attempts(tmp_path)
        seg = tmp_path / "wal.jsonl"
        before = seg.read_text()
        with open(seg, "a") as fh:
            fh.write('{"crc":"bogus","half')
        rec = recover(tmp_path)
        assert rec.torn_tail
        assert rec.done == {"a", "b", "c"}
        assert seg.read_text() == before  # repaired back to last valid

    def test_missing_final_newline_truncates_last_record(self, tmp_path):
        _write_attempts(tmp_path)
        seg = tmp_path / "wal.jsonl"
        raw = seg.read_bytes()
        seg.write_bytes(raw[:-1])  # the classic torn write
        rec = recover(tmp_path)
        assert rec.torn_tail
        # the last record was c's terminal event; c's success is lost
        assert rec.done == {"a", "b"}

    def test_mid_file_corruption_truncates_from_there(self, tmp_path):
        _write_attempts(tmp_path)
        seg = tmp_path / "wal.jsonl"
        lines = seg.read_text().splitlines(keepends=True)
        target = next(
            i for i, line in enumerate(lines)
            if '"job.finish"' in line and '"b"' in line
        )
        lines[target] = lines[target].replace('"m"', '"M"', 1)
        seg.write_text("".join(lines))
        rec = recover(tmp_path)
        assert rec.torn_tail
        assert rec.done == {"a"}
        # recovery cut the file to end at the last valid record
        survivors = seg.read_text().splitlines()
        assert len(survivors) == target

    def test_seq_gap_truncates(self, tmp_path):
        _write_attempts(tmp_path)
        seg = tmp_path / "wal.jsonl"
        lines = seg.read_text().splitlines(keepends=True)
        target = next(
            i for i, line in enumerate(lines)
            if '"job.finish"' in line and '"b"' in line
        )
        del lines[target]
        seg.write_text("".join(lines))
        rec = recover(tmp_path)
        assert rec.torn_tail
        assert rec.done == {"a"}

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(JournalError):
            recover(tmp_path / "nope")

    def test_fresh_journal_refuses_nonempty_dir(self, tmp_path):
        _write_attempts(tmp_path)
        with pytest.raises(JournalError, match="resume"):
            Journal(tmp_path)


# ---------------------------------------------------------------------------
# Snapshot compaction
# ---------------------------------------------------------------------------


class TestSnapshotCompaction:
    def test_compaction_preserves_final_state(self, tmp_path):
        sparse, _, _ = run_journaled(
            {("b", 1)}, tmp_path / "sparse", snapshot_every=10_000
        )
        compacted, _, _ = run_journaled(
            {("b", 1)}, tmp_path / "compact", snapshot_every=5
        )
        assert sparse.success and compacted.success
        rec_sparse = recover(tmp_path / "sparse")
        rec_compact = recover(tmp_path / "compact")
        assert vouched_records(rec_compact) == vouched_records(rec_sparse)
        assert rec_compact.attempts == rec_sparse.attempts
        assert rec_compact.done == rec_sparse.done
        # compaction writes a snapshot and no record: one log, the same
        for name in ("sparse", "compact"):
            assert sorted(p.name for p in (tmp_path / name).iterdir()) == [
                "snapshot.json", "wal.jsonl"
            ]
        assert (tmp_path / "compact" / "wal.jsonl").read_bytes() == (
            tmp_path / "sparse" / "wal.jsonl"
        ).read_bytes()

    def test_compaction_bounds_replay_after_crash(self, tmp_path):
        # Crash both journals at the same record; the compacted one
        # replays only the WAL suffix past its last snapshot.
        for name, every in (("sparse", 10_000), ("compact", 4)):
            with pytest.raises(CrashInjected):
                run_journaled(
                    {("b", 1)}, tmp_path / name, snapshot_every=every,
                    crash=CrashFault(15, mode="raise"),
                )
        rec_sparse = recover(tmp_path / "sparse")
        rec_compact = recover(tmp_path / "compact")
        # Each snapshot is a crash point too, so the compacted run dies
        # a few records earlier: only the replay bound is comparable —
        # but both journals must still resume to the same place.
        assert rec_compact.replayed < rec_sparse.replayed
        done_sparse, _, _ = run_journaled(
            {("b", 1)}, tmp_path / "sparse", resume=rec_sparse,
            snapshot_every=10_000,
        )
        done_compact, _, _ = run_journaled(
            {("b", 1)}, tmp_path / "compact", resume=rec_compact,
            snapshot_every=4,
        )
        assert done_sparse.final.states == done_compact.final.states

    def test_snapshot_emits_event(self, tmp_path):
        bus = EventBus()
        seen = []
        bus.subscribe(
            lambda e: seen.append(e)
            if e.kind is EventKind.JOURNAL_SNAPSHOT else None
        )
        journal = Journal(tmp_path, bus=bus, snapshot_every=10_000)
        journal.snapshot()
        journal.close()
        # the header is record 0, and no terminal record yet
        assert [e.detail for e in seen] == [{"seq": 0, "records": 0}] * 2

    def test_corrupt_snapshot_falls_back_to_wal(self, tmp_path):
        _write_attempts(tmp_path)
        (tmp_path / "snapshot.json").write_text("{not json")
        rec = recover(tmp_path)
        assert rec.done == {"a", "b", "c"}


class TestSnapshotIsACache:
    """``snapshot.json`` only bounds replay: the log alone recovers the
    same state and attempts, so a snapshot that is gone or damaged
    costs a longer replay and nothing else."""

    @settings(max_examples=25, deadline=None)
    @given(
        failures=st.sets(
            st.tuples(
                st.sampled_from(["a", "b", "c", "d"]),
                st.integers(min_value=1, max_value=2),
            ),
            max_size=3,
        ),
        snapshot_every=st.integers(min_value=1, max_value=6),
        crash_at=st.integers(min_value=1, max_value=40),
        flip=st.tuples(st.integers(min_value=0), st.integers(0, 7)),
    )
    def test_property_intact_deleted_or_flipped_snapshot(
        self, failures, snapshot_every, crash_at, flip, tmp_path_factory
    ):
        root = tmp_path_factory.mktemp("snapshot-cache")
        try:
            run_journaled(
                failures, root / "crashed", snapshot_every=snapshot_every,
                crash=CrashFault(crash_at, mode="raise"),
            )
        except CrashInjected:
            pass
        snap_path = root / "crashed" / "snapshot.json"
        snap = snap_path.read_bytes() if snap_path.exists() else None
        flipped = None
        if snap is not None:  # a crash before the first snapshot has none
            flipped = bytearray(snap)
            flipped[flip[0] % len(snap)] ^= 1 << flip[1]
        outcomes = []
        for name, data in (
            ("intact", snap), ("deleted", None), ("flipped", flipped),
        ):
            shutil.copytree(root / "crashed", root / name)
            (root / name / "snapshot.json").unlink(missing_ok=True)
            if data is not None:
                (root / name / "snapshot.json").write_bytes(data)
            got = recover(root / name)
            outcomes.append((
                json.dumps(got.state.to_json()), got.state.records_total,
                got.attempts, got.last_seq, got.torn_tail,
                (root / name / "wal.jsonl").read_bytes(),
            ))
        assert outcomes[0] == outcomes[1] == outcomes[2]


# ---------------------------------------------------------------------------
# The kill-anywhere property
# ---------------------------------------------------------------------------


def _successes(outcome):
    return sorted(
        (a.job_name, a.attempt)
        for a in outcome.trace
        if a.status is JobStatus.SUCCEEDED
    )


def _sweep_crash_points(failures, tmp_path, *, retries, snapshot_every):
    baseline_dir = tmp_path / "baseline"
    baseline, baseline_env, _ = run_journaled(
        failures, baseline_dir, retries=retries,
        snapshot_every=snapshot_every,
    )
    baseline_states = baseline.final.states

    # Every journal write is a crash point: each record, and each
    # snapshot (close()'s included); past the last one the run finishes.
    for crash_at in itertools.count(1):
        jdir = tmp_path / f"crash{crash_at}"
        crash = CrashFault(crash_at, mode="raise")
        envs: list[ScriptedEnvironment] = []
        try:
            run_journaled(
                failures, jdir, crash=crash, retries=retries,
                snapshot_every=snapshot_every, envs=envs,
            )
            break
        except CrashInjected:
            pass
        # what the crashed run executed (nothing when it died opening
        # the journal, before its environment was made)
        crashed = set(envs[0].submissions) if envs else set()
        recovered = recover(jdir)
        if recovered.complete:
            # the workflow's end was journaled before the crash point
            assert recovered.done == {
                n for n, s in baseline_states.items()
                if s is NodeState.DONE
            }
            assert crashed == set(baseline_env.submissions), (
                f"crash at record {crash_at}"
            )
            continue
        resumed, resumed_env, _ = run_journaled(
            failures, jdir, resume=recovered, retries=retries,
            snapshot_every=snapshot_every,
        )

        # 1. Same final states as the uninterrupted run.
        assert resumed.final.states == baseline_states, (
            f"crash at record {crash_at}"
        )
        # 2. Zero re-execution of journaled-complete jobs.
        resumed_jobs = {name for name, _ in resumed_env.submissions}
        assert not (resumed_jobs & recovered.done), (
            f"crash at record {crash_at}: re-executed "
            f"{resumed_jobs & recovered.done}"
        )
        # 3. The attempts the crashed and the resumed run executed are
        #    the uninterrupted run's (in-flight attempts resume under the
        #    SAME attempt number).
        merged = crashed | set(resumed_env.submissions)
        assert merged == set(baseline_env.submissions), (
            f"crash at record {crash_at}"
        )
        # 4. Exactly one journaled success per completed job, across
        #    the merged (journal + resumed) trace.
        success_jobs = [name for name, _ in _successes(resumed)]
        assert len(success_jobs) == len(set(success_jobs)), (
            f"crash at record {crash_at}: duplicate success"
        )
        assert _successes(resumed) == _successes(baseline), (
            f"crash at record {crash_at}"
        )


class TestKillAnywhere:
    def test_exhaustive_sweep_with_retries(self, tmp_path):
        # b fails once then succeeds; c exhausts its single retry and
        # hard-fails in round 1, then succeeds in rescue round 2.
        _sweep_crash_points(
            {("b", 1), ("c", 1), ("c", 2)}, tmp_path,
            retries=1, snapshot_every=10_000,
        )

    def test_exhaustive_sweep_with_compaction(self, tmp_path):
        # snapshot_every=5 exercises snapshot-plus-log-suffix recovery
        # at many crash points, just before and after each snapshot.
        _sweep_crash_points(
            {("b", 1)}, tmp_path, retries=1, snapshot_every=5,
        )

    @settings(max_examples=10, deadline=None)
    @given(
        failures=st.sets(
            st.tuples(
                st.sampled_from(["a", "b", "c", "d"]),
                st.integers(min_value=1, max_value=2),
            ),
            max_size=4,
        ),
        retries=st.integers(min_value=0, max_value=2),
    )
    def test_property_random_failure_scripts(
        self, failures, retries, tmp_path_factory
    ):
        tmp_path = tmp_path_factory.mktemp("kill-anywhere")
        _sweep_crash_points(
            failures, tmp_path, retries=retries, snapshot_every=7,
        )


# ---------------------------------------------------------------------------
# The undecided-decision window (FINISH journaled, RETRY lost)
# ---------------------------------------------------------------------------


class TestUndecidedDecision:
    def test_retry_charge_lands_exactly_once(self, tmp_path):
        failures = {("b", 1)}
        baseline_dir = tmp_path / "baseline"
        baseline, baseline_env, _ = run_journaled(
            failures, baseline_dir, retries=2
        )
        # Find the crash point where b's failed FINISH is journaled but
        # the scheduler's RETRY decision is not: the undecided window.
        recovered = None
        for crash_at in range(1, 30):
            jdir = tmp_path / f"probe{crash_at}"
            try:
                run_journaled(
                    failures, jdir, retries=2,
                    crash=CrashFault(crash_at, mode="raise"),
                )
            except CrashInjected:
                candidate = recover(jdir)
                if "b" in candidate.state.undecided:
                    recovered = candidate
                    break
        assert recovered is not None, "no crash point left b undecided"
        jdir = recovered.path
        resumed, resumed_env, _ = run_journaled(
            failures, jdir, resume=recovered, retries=2
        )
        assert resumed.success
        assert set(resumed_env.submissions) == {("b", 2), ("c", 1), ("d", 1)}
        assert set(baseline_env.submissions) == {
            ("a", 1), ("b", 1), ("b", 2), ("c", 1), ("d", 1)
        }
        assert resumed.final.states == baseline.final.states


# ---------------------------------------------------------------------------
# Blacklist state across a manager restart (regression)
# ---------------------------------------------------------------------------


class TestBlacklistAcrossRestart:
    def _trip(self, bus):
        blacklist = Blacklist(
            BlacklistPolicy(threshold=2, site_threshold=3), bus=bus
        )
        for _ in range(2):
            blacklist.record_start_failure("bad-node", "osg", now=10.0)
        assert blacklist.is_blocked("bad-node", "osg", now=20.0)
        return blacklist

    def test_snapshot_restores_blocks_and_streaks(self, tmp_path):
        bus = EventBus()
        journal = Journal(tmp_path, bus=bus)
        blacklist = self._trip(bus)
        blacklist.record_start_failure("other", "osg", now=11.0)  # streak 1
        journal.attach_blacklist(blacklist)
        journal.snapshot()
        journal._fh.close()  # crash: no close()

        # "new process": nothing shared but the journal directory
        recovered = recover(tmp_path)
        restored = recovered.restore_blacklist()
        assert restored is not None
        assert restored.is_blocked("bad-node", "osg", now=20.0)
        assert restored._machine_streak["other"] == 1
        assert restored.trips == blacklist.trips
        assert restored.policy.threshold == 2

    def test_wal_only_blocks_survive_without_snapshot(self, tmp_path):
        # Crash before any snapshot carried the blacklist: the
        # journaled blacklist.add records alone must restore the block.
        bus = EventBus()
        journal = Journal(tmp_path, bus=bus)
        self._trip(bus)
        journal._fh.close()  # crash before snapshot()

        recovered = recover(tmp_path)
        assert recovered.blacklist is None
        assert recovered.state.blacklist_blocks
        restored = recovered.restore_blacklist(
            policy=BlacklistPolicy(threshold=2)
        )
        assert restored is not None
        assert restored.is_blocked("bad-node", "osg", now=20.0)

    def test_no_blacklist_recorded_restores_none(self, tmp_path):
        journal = Journal(tmp_path)
        journal.close()
        assert recover(tmp_path).restore_blacklist() is None


# ---------------------------------------------------------------------------
# Durable directory creation + fsync policy
# ---------------------------------------------------------------------------


class TestDurability:
    def test_ensure_dir_fsyncs_each_created_parent(
        self, tmp_path, monkeypatch
    ):
        synced = []
        real_fsync = os.fsync

        def spy(fd):
            synced.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(iolib.os, "fsync", spy)
        target = ensure_dir(tmp_path / "a" / "b" / "c")
        assert target.is_dir()
        # three directories created -> three parent fsyncs
        assert len(synced) == 3

    def test_ensure_dir_tolerates_fsync_failure(
        self, tmp_path, monkeypatch
    ):
        def boom(fd):
            raise OSError("no dir fsync on this fs")

        monkeypatch.setattr(iolib.os, "fsync", boom)
        target = ensure_dir(tmp_path / "x" / "y")
        assert target.is_dir()  # creation survives; durability degrades

    def test_ensure_dir_existing_dir_no_fsync(self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr(iolib.os, "fsync", lambda fd: synced.append(fd))
        ensure_dir(tmp_path)
        assert synced == []

    def test_wal_fsync_failure_propagates(self, tmp_path, monkeypatch):
        # Unlike directory fsync (best-effort), a failing WAL fsync is
        # a broken durability promise: it must surface, not vanish.
        bus = EventBus()
        Journal(tmp_path, fsync="always", bus=bus)

        import repro.resilience.journal as journal_mod

        def boom(fd):
            raise OSError(5, "I/O error")

        monkeypatch.setattr(journal_mod.os, "fsync", boom)
        event = RunEvent(
            EventKind.SUBMIT, 1.0, job_name="a", transformation="t",
            attempt=1,
        )
        with pytest.raises(OSError):
            bus.emit(event)

    def test_fsync_modes_validated(self, tmp_path):
        with pytest.raises(ValueError):
            Journal(tmp_path, fsync="sometimes")


# ---------------------------------------------------------------------------
# Crash fault + local reconcile
# ---------------------------------------------------------------------------


class TestCrashFault:
    def test_validation(self):
        with pytest.raises(ValueError):
            CrashFault(0)
        with pytest.raises(ValueError):
            CrashFault(1, mode="explode")
        with pytest.raises(ValueError):
            CrashFault(1, torn_fraction=1.0)

    def test_fires_at_nth_record(self, tmp_path):
        bus = EventBus()
        journal = Journal(tmp_path, crash=CrashFault(3, mode="raise"), bus=bus)
        event = RunEvent(
            EventKind.SUBMIT, 1.0, job_name="a", transformation="t",
            attempt=1,
        )
        bus.emit(event)  # record 2 (record 1 is the journal's header)
        with pytest.raises(CrashInjected):
            bus.emit(event)
        assert journal.closed
        # the torn prefix is on disk but unparseable as a record
        rec = recover(tmp_path)
        assert rec.torn_tail
        assert rec.state.in_flight == {"a": 1}

    def test_torn_fraction_zero_still_writes_a_byte(self, tmp_path):
        bus = EventBus()
        Journal(
            tmp_path, crash=CrashFault(2, mode="raise", torn_fraction=0.0),
            bus=bus,
        )
        event = RunEvent(
            EventKind.SUBMIT, 1.0, job_name="a", transformation="t",
            attempt=1,
        )
        with pytest.raises(CrashInjected):
            bus.emit(event)
        assert recover(tmp_path).torn_tail


class TestReconcileLocal:
    def _recovered(self, tmp_path, *, manager, in_flight):
        state = JournalState()
        state.manager_pid = manager
        state.in_flight = dict(in_flight)
        from repro.resilience.journal import RecoveredState

        return RecoveredState(
            path=tmp_path, state=state, blacklist=None, last_seq=0,
            torn_tail=False, replayed=1,
        )

    def test_dead_manager_requeues_in_flight_jobs(self, tmp_path):
        recovered = self._recovered(
            tmp_path, manager=99991, in_flight={"c": 1, "b": 2},
        )
        report = reconcile_local(recovered, alive=lambda pid: False)
        assert report.manager_pid == 99991
        assert report.requeued == ["b", "c"]

    def test_live_manager_refuses_resume(self, tmp_path):
        recovered = self._recovered(
            tmp_path, manager=99991, in_flight={}
        )
        with pytest.raises(JournalError, match="live manager"):
            reconcile_local(recovered, alive=lambda pid: True)

    def test_own_pid_is_not_a_foreign_manager(self, tmp_path):
        # Resuming in the same process (raise-mode crash tests) must
        # not see itself as a conflicting live manager.
        recovered = self._recovered(
            tmp_path, manager=os.getpid(), in_flight={}
        )
        report = reconcile_local(recovered, alive=lambda pid: True)
        assert report.manager_pid == os.getpid()

    def test_journal_records_the_manager(self, tmp_path):
        journal = Journal(tmp_path)
        journal._fh.close()
        assert recover(tmp_path).state.manager_pid == os.getpid()


# ---------------------------------------------------------------------------
# Resume ergonomics
# ---------------------------------------------------------------------------


class TestResumeSurface:
    def test_resume_of_complete_run_raises(self, tmp_path):
        run_journaled(set(), tmp_path)
        recovered = recover(tmp_path)
        assert recovered.complete
        with pytest.raises(ValueError, match="nothing to resume"):
            run_journaled(set(), tmp_path, resume=recovered)

    def test_clock_continues_across_resume(self, tmp_path):
        with pytest.raises(CrashInjected):
            run_journaled(
                {("b", 1)}, tmp_path, crash=CrashFault(9, mode="raise")
            )
        recovered = recover(tmp_path)
        assert recovered.clock > 0.0
        resumed, _, _ = run_journaled(
            {("b", 1)}, tmp_path, resume=recovered
        )
        resumed_times = [
            a.exec_end for a in resumed.trace
            if a.exec_end > recovered.clock
        ]
        assert resumed_times  # post-crash attempts continue the clock

    def test_rescue_dag_interop(self, tmp_path):
        with pytest.raises(CrashInjected):
            run_journaled(set(), tmp_path, crash=CrashFault(12, mode="raise"))
        recovered = recover(tmp_path)
        out = recovered.write_rescue(diamond(), tmp_path / "resume.dag")
        text = out.read_text()
        for name in sorted(recovered.done):
            assert f"DONE {name}" in text or f"{name} DONE" in text

