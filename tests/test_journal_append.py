"""The journal's append path against the one it replaced.

``tests/oracles/journal_append_reference.py`` keeps the writer as it
was before each record's work was done once: the flattened dict built
per event, the line from the general encoder, the frame built from a
copy of the checksummed text, ``sorted(done)`` per snapshot and the
JSON round trip on resume. Here both writers take the same generated
durable stream — every terminal status with and without ``error`` and
``profile``, retries, held parks, hard failures, blacklist trips,
rescue rounds, tenant completions, worker pids, trace ids, and a crash
at any record — and must leave the same bytes in every file, the same
state after every record, and the same :func:`recover` result, which
must then resume into the same bytes again.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dagman.events import JobAttempt, JobStatus, ResourceProfile
from repro.observe.bus import EventBus
from repro.observe.events import EventKind, RunEvent
from repro.observe.log import compact_json
from repro.resilience import CrashFault, CrashInjected
from repro.resilience.journal import Journal, JournalState, recover
from tests.oracles.journal_append_reference import ReferenceJournal

JOBS = ["a", "b", "c", "run_cap3_007", "é\"x"]
names = st.sampled_from(JOBS)
stamps = st.floats(min_value=0, max_value=1e6, allow_nan=False) | st.sampled_from(
    [0.0, 1.0, 2.5, 1e-7]
)
attempts = st.integers(min_value=1, max_value=4)
profiles = st.none() | st.builds(
    ResourceProfile,
    cpu_user_s=st.floats(min_value=0, max_value=1e4),
    cpu_sys_s=st.sampled_from([0.0, 0.25]),
    max_rss_kb=st.integers(min_value=0, max_value=10**6),
    read_ops=st.integers(min_value=0, max_value=99),
    write_ops=st.integers(min_value=0, max_value=99),
    source=st.sampled_from(["modelled", "measured"]),
)


@st.composite
def terminals(draw) -> RunEvent:
    times = sorted(draw(st.lists(stamps, min_size=4, max_size=4)))
    status = draw(st.sampled_from(JobStatus))
    record = JobAttempt(
        job_name=draw(names), transformation="cap3", site="osg",
        machine=draw(st.sampled_from(["m1", "m2"])), attempt=draw(attempts),
        submit_time=times[0], setup_start=times[1], exec_start=times[2],
        exec_end=times[3], status=status,
        error=draw(st.none() | st.sampled_from(["exit 1", "evicted", ""])),
        profile=draw(profiles),
    )
    kind = EventKind.EVICT if status is JobStatus.EVICTED else EventKind.FINISH
    header = dict(
        job_name=record.job_name, transformation=record.transformation,
        site=record.site, machine=record.machine, attempt=record.attempt,
    )
    if draw(st.booleans()):  # a header field left out, as attempt_events never does
        header[draw(st.sampled_from(sorted(header)))] = None
    detail = draw(st.sampled_from([
        {"status": status.value}, {}, {"status": status.value, "tenant": "t0"},
    ]))
    return RunEvent(kind, record.exec_end, record=record, detail=detail, **header)


def _event(kind: EventKind, detail: dict, job: bool = True):
    return st.builds(
        lambda t, name, n: RunEvent(
            kind, t, job_name=name if job else None,
            transformation="cap3" if job else None, attempt=n if job else None,
            detail=detail,
        ),
        stamps, names, attempts,
    )


blacklist_details = st.fixed_dictionaries(
    {"name": st.sampled_from(["m1", "osg"]), "until": st.none() | stamps},
    optional={"scope": st.sampled_from(["machine", "site"])},
)
service_details = st.fixed_dictionaries(
    {"tenant": st.sampled_from(["t0", "t1"])},
    optional={
        "workflow": st.sampled_from(["w1", "w2"]),
        "succeeded": st.booleans(),
        "turnaround_s": stamps,
        "queue_wait_s": stamps,
    },
)
#: One step of a stream: an event for the bus, or a direct call.
steps = st.one_of(
    _event(EventKind.SUBMIT, {"expected_s": 87.5}),
    _event(EventKind.SUBMIT, {}),
    terminals(),
    terminals(),
    st.builds(lambda left: _retry(left), st.integers(min_value=0, max_value=3)),
    _event(EventKind.HELD, {"delay_s": 4.0, "until": 9.5}),
    _event(EventKind.STATE_CHANGE, {"from": "submitted", "to": "failed"}),
    _event(EventKind.STATE_CHANGE, {"from": "ready", "to": "submitted"}),
    blacklist_details.flatmap(lambda d: _event(EventKind.BLACKLIST, d, job=False)),
    st.builds(lambda r, again: {"round": r, "resubmitting": again},
              st.integers(min_value=1, max_value=3), st.booleans())
    .flatmap(lambda d: _event(EventKind.RESCUE, d, job=False)),
    service_details.flatmap(
        lambda d: _event(EventKind.SERVICE_WORKFLOW_DONE, d, job=False)
    ),
    _event(EventKind.WORKFLOW_START, {}, job=False),
    st.booleans().flatmap(
        lambda ok: _event(EventKind.WORKFLOW_END, {"success": ok}, job=False)
    ),
    st.tuples(st.just("trace"), st.sampled_from(["0af7651916cd43dd8448eb211c80319c",
                                                 "4bf92f3577b34da6a3ce929d0e0e4736"])),
)


def _retry(left: int):
    return RunEvent(EventKind.RETRY, 3.0, job_name="a", transformation="cap3",
                    attempt=1, detail={"retries_left": left})


def _feed(bus: EventBus, journal: Journal, step) -> None:
    if isinstance(step, RunEvent):
        bus.emit(step)
    else:
        journal.record_trace_id(step[1])


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _state(state: JournalState) -> str:
    # the text tells 1 from 1.0 and True, which == does not
    return compact_json(state.to_json())


def _open(cls, path: Path, crash_at: int | None, **kwargs):
    crash = None if crash_at is None else CrashFault(crash_at, torn_fraction=0.4)
    try:
        return cls(path, crash=crash, **kwargs)
    except CrashInjected:  # the segment header was the record to die on
        return None


def _run(cls, path: Path, stream, crash_at, snapshot_every, fsync, resume=None):
    """Feed ``stream``; the state text after each record, and the
    journal (``None`` if it died opening)."""
    bus = EventBus()
    journal = _open(cls, path, crash_at, snapshot_every=snapshot_every,
                    fsync=fsync, resume=resume, bus=bus)
    states = []
    if journal is None:
        return states
    try:
        for step in stream:
            _feed(bus, journal, step)
            states.append(_state(journal._state))
        journal.close()  # its snapshot opens a segment: a record too
    except CrashInjected:
        states.append("crashed")
    journal.close()
    return states


def _same_recovery(live: Path, ref: Path):
    got, want = recover(live), recover(ref)
    assert _state(got.state) == _state(want.state)
    assert got.state.records == want.state.records
    assert got.attempts == want.attempts
    assert got.blacklist == want.blacklist
    assert (got.last_seq, got.last_segment, got.torn_tail, got.replayed) == (
        want.last_seq, want.last_segment, want.torn_tail, want.replayed
    )
    assert _files(live) == _files(ref)  # repaired alike
    return got, want


@settings(max_examples=150, deadline=None)
@given(
    stream=st.lists(steps, min_size=1, max_size=40),
    after=st.lists(steps, max_size=6),
    crash_at=st.none() | st.integers(min_value=1, max_value=45),
    # 1 recursed in the reference (test_snapshot_every_one below)
    snapshot_every=st.integers(min_value=2, max_value=12),
    fsync=st.sampled_from(["never", "batch"]),
)
def test_append_path_writes_what_the_reference_writes(
    stream, after, crash_at, snapshot_every, fsync
):
    root = Path(tempfile.mkdtemp(prefix="journal-append-"))
    try:
        live, ref = root / "live", root / "ref"
        kwargs = dict(snapshot_every=snapshot_every, fsync=fsync)
        assert _run(Journal, live, stream, crash_at, **kwargs) == _run(
            ReferenceJournal, ref, stream, crash_at, **kwargs
        )
        assert _files(live) == _files(ref)
        got, want = _same_recovery(live, ref)
        # resumed from what was recovered: the copy that replaced the
        # JSON round trip starts the same writer
        assert _run(Journal, live, after, None, resume=got, **kwargs) == _run(
            ReferenceJournal, ref, after, None, resume=want, **kwargs
        )
        assert _files(live) == _files(ref)
        _same_recovery(live, ref)
    finally:
        shutil.rmtree(root)


def test_done_is_merged_in_sorted_order(tmp_path):
    """Snapshots list ``done`` sorted whether the names arrive in order,
    out of order, twice, or after a resume."""
    bus = EventBus()
    journal = Journal(tmp_path, snapshot_every=3, fsync="never", bus=bus)
    names = ["m", "c", "x", "c", "a", "z", "b", "a", "k"]
    for i, name in enumerate(names):
        record = JobAttempt(name, "t", "s", "m", 1, 0.0, 0.0, 0.0, float(i),
                            JobStatus.SUCCEEDED)
        bus.emit(RunEvent(EventKind.FINISH, float(i), name, "t", "s", "m", 1,
                          record, {"status": "succeeded"}))
        assert journal._state.to_json()["done"] == sorted(set(names[: i + 1]))
    journal.close()
    recovered = recover(tmp_path)
    assert recovered.state.to_json()["done"] == sorted(set(names))
    bus = EventBus()
    resumed = Journal(tmp_path, resume=recovered, fsync="never", bus=bus)
    record = JobAttempt("d", "t", "s", "m", 1, 0.0, 0.0, 0.0, 9.0,
                        JobStatus.SUCCEEDED)
    bus.emit(RunEvent(EventKind.FINISH, 9.0, "d", "t", "s", "m", 1, record))
    assert resumed._state.to_json()["done"] == sorted({*names, "d"})
    resumed.close()


def test_snapshot_every_one(tmp_path):
    """``--journal-snapshot-every 1`` used to recurse: the header of the
    segment each snapshot opens was itself a record to snapshot after.
    Now every segment holds its header and one record."""
    bus = EventBus()
    journal = Journal(tmp_path, snapshot_every=1, fsync="never", bus=bus)
    for t in (1.0, 2.0, 3.0):
        bus.emit(RunEvent(EventKind.SUBMIT, t, job_name="a", attempt=1))
    journal.close()
    recovered = recover(tmp_path)
    assert recovered.state.in_flight == {"a": 1}
    assert recovered.last_seq == 7  # three headers, three submits, one more header
