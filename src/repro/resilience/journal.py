"""Crash-consistent workflow state: the write-ahead journal.

Everything the resilience layer knows — retry budgets, blacklists,
rescue rounds — lived in process memory until this module: ``kill -9``
the manager and the workflow restarts from scratch, re-running every
completed job. Real DAGMan survives its own death because every durable
decision reaches disk first; this module gives :class:`DagmanScheduler`
the same property.

Design, in one paragraph: a :class:`Journal` subscribes to the run's
event bus and appends the *durable subset* of the lifecycle stream
(:data:`DURABLE_KINDS` — submits, terminal attempts, retry charges,
HELD parks, hard failures, blacklist trips, rescue-round boundaries,
workflow start/end) to an append-only JSONL WAL, one CRC32-framed
record per line, in the exact schema of :mod:`repro.observe.log` plus a
``seq`` continuity counter. Periodically the journal compacts: the
reduced state (:class:`JournalState`) is atomically written to
``snapshot.json``, the segment file rotates, and older segments are
deleted — so recovery replay is bounded by the snapshot cadence, not
the run length. :func:`recover` reads the snapshot, replays the
surviving segments, **truncates a torn tail at the last valid record**
(bad CRC, bad JSON, seq gap, or a line missing its newline), and
returns a :class:`RecoveredState` that can mark the DAG's done set,
rebuild the scheduler's counters (:meth:`RecoveredState.scheduler_restore`),
restore the blacklist, rebuild the merged attempt trace, write a
DAGMan-interop rescue ``.dag``, and reconcile local worker processes
orphaned by the crash (:func:`reconcile_local`). What it cannot anchor
it refuses (see :func:`recover`): repair cuts only after an anchored
record.

Bytes are the unit, and each record's are handled once in each
direction. Out: the event's compact JSON text is encoded once; those
bytes are framed into the WAL line, kept as the retained terminal
record and later joined into the sidecar (both files are binary).
Back: :func:`decode_record` checks the CRC over the bytes of the line
on disk and parses what it verified; a replayed terminal record's body
is a slice of that line, and every journaled attempt is parsed once,
through :meth:`JobAttempt.from_json <repro.dagman.events.JobAttempt.from_json>`.
The check-by-re-serialising this replaced is kept as
``tests/oracles/journal_reference.py``.

Exactly-once semantics, precisely: a job whose successful terminal
record reached the journal is **never executed again** — resume marks
it DONE via rescue-DAG semantics. A job in flight at the crash (submit
journaled, terminal lost) re-executes *as the same attempt number*, so
retry budgets and attempt-keyed outcomes line up with the uninterrupted
run; that is at-least-once for the torn window, which is the best any
write-ahead log can promise, and the hypothesis kill-anywhere property
in ``tests/test_journal.py`` pins both halves.

Durability policy: appends are buffered and flushed + fsynced in
batches (``fsync="batch"``, every :data:`FSYNC_BATCH` records, plus at
every snapshot and close; crash injection flushes its torn prefix
explicitly). A crash between batch points can lose the buffered tail —
but only the tail, and only whole or torn-suffix records, so recovery
still sees a consistent prefix; the lost window re-executes, which the
at-least-once contract above already covers. ``fsync="always"`` buys
power-loss durability per record at real I/O cost; either way the CRC
framing keeps the journal *consistent* — a torn tail truncates, it
never corrupts recovered state.

Import discipline: like :mod:`repro.resilience.recovery`, this module
must not import ``repro.dagman.scheduler`` at module top — the
simulators import ``repro.resilience``, and the scheduler's observe
imports reach the simulators.
"""

from __future__ import annotations

import json
import os
import signal
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterable, Mapping

from repro.dagman.dag import Dag
from repro.dagman.events import JobAttempt, WorkflowTrace
from repro.observe.bus import EventBus
from repro.observe.events import EventKind, RunEvent
from repro.observe.log import compact_json, serialize_event
from repro.util.iolib import atomic_write, ensure_dir

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dagman.scheduler import SchedulerRestore
    from repro.resilience.blacklist import Blacklist, BlacklistPolicy
    from repro.resilience.faults import CrashFault

__all__ = [
    "DURABLE_KINDS",
    "JournalError",
    "JournalState",
    "Journal",
    "RecoveredState",
    "ReconcileReport",
    "recover",
    "reconcile_local",
    "encode_record",
    "decode_record",
]

SNAPSHOT_FILE = "snapshot.json"
SEGMENT_GLOB = "wal-*.jsonl"
#: Append-only sidecar holding every terminal record (the merged
#: trace), one compact JSON line each. Snapshots append only the
#: records accumulated since the previous snapshot and store a line
#: count in ``snapshot.json`` — so compaction cost is O(new records),
#: not O(run length), and the file doubles as a directly greppable
#: history of the whole run.
RECORDS_FILE = "records.jsonl"
JOURNAL_VERSION = 1
#: Records between flush + fsync under ``fsync="batch"`` (snapshots
#: and close flush too).
FSYNC_BATCH = 4096

#: Event kinds that change what recovery must reconstruct. Everything
#: else on the bus (match/setup/exec phases, samples, cache traffic) is
#: observability, not state — journaling it would triple the write
#: volume for nothing.
DURABLE_KINDS = frozenset(
    {
        EventKind.WORKFLOW_START,
        EventKind.WORKFLOW_END,
        EventKind.SUBMIT,
        EventKind.FINISH,
        EventKind.EVICT,
        EventKind.RETRY,
        EventKind.HELD,
        EventKind.BLACKLIST,
        EventKind.RESCUE,
        # Tenant workflow completions: the WaaS layer's SLO accounting
        # must count pre-crash completions exactly once after a resume
        # (see WorkflowService.restore_completions).
        EventKind.SERVICE_WORKFLOW_DONE,
    }
)

#: Journal-internal record kinds (the ``/`` keeps them out of the
#: ``EventKind`` namespace): segment headers, worker-pid notes, and
#: the causal-trace id (so a resumed run extends the same trace).
_META_OPEN = "journal/open"
_META_WORKERS = "journal/workers"
_META_TRACE = "journal/trace"


class JournalError(RuntimeError):
    """The journal directory is unusable as asked (not empty on a fresh
    open, closed writer, manager still alive on reconcile, ...)."""


def _durable(event: RunEvent) -> bool:
    if event.kind in DURABLE_KINDS:
        return True
    # Hard failures must survive: without them a resumed run would
    # happily resubmit a job DAGMan already declared dead. The other
    # state transitions (ready/submitted/done/...) are derivable from
    # submit/terminal records, so they stay off the WAL.
    return (
        event.kind is EventKind.STATE_CHANGE
        and event.detail.get("to") == "failed"
    )


# -- record framing ------------------------------------------------------


def _frame_record(seq: int, body: bytes) -> bytes:
    """Frame one serialized body (compact JSON object) as a line."""
    canonical = b'{"seq":%d,' % seq + body[1:]
    return b'{"crc":"%08x",' % zlib.crc32(canonical) + canonical[1:] + b"\n"


def encode_record(seq: int, body: Mapping[str, object]) -> str:
    """Frame one WAL record: compact JSON + CRC32, one line.

    The CRC is taken over the bytes of the compact serialization (no
    whitespace, keys in insertion order, ASCII) of the body with
    ``seq`` as the first key, then spliced in ahead of it — so the line
    is plain JSONL any tool can read, and :func:`decode_record` checks
    it against the very bytes it is handed.
    """
    return _frame_record(seq, compact_json(body).encode()).decode()


_parse_object = json.JSONDecoder().raw_decode


def decode_record(line: bytes | str) -> dict | None:
    """Parse and verify one WAL line; ``None`` means torn/corrupt.

    A line is valid iff it starts ``{"crc":"`` + eight lowercase hex
    digits + ``","seq":``, those digits are the CRC32 of ``{`` + the
    rest of the line from ``"seq":`` on, that text is one JSON object
    and its ``seq`` is an ``int``. The check is over the line's own
    bytes, so a line someone re-spaced or re-ordered by hand is torn
    even when its compact form would still match the checksum.
    """
    try:
        if isinstance(line, str):
            line = line.encode()
        line = line.rstrip(b"\n")
        canonical = b"{" + line[18:]
        if not line.startswith(
            b'{"crc":"%08x","seq":' % zlib.crc32(canonical)
        ):
            return None
        text = canonical.decode()
        data, end = _parse_object(text)
    except ValueError:  # un-encodable, not UTF-8, or not JSON
        return None
    if end != len(text) or not isinstance(data["seq"], int):
        return None
    return data


#: Lines per ``json.loads`` of attempt records: a call per line costs
#: 30 % more, one call for a whole history holds every parsed dict at
#: once (+20 MB of peak RSS at 15 000 records) and is no faster.
_PARSE_CHUNK = 256
_NOT_AN_ATTEMPT = (ValueError, KeyError, TypeError, AttributeError)


def _parse_attempts(lines: list[bytes], where: Path) -> list[JobAttempt]:
    """The attempt records in ``lines`` (record bodies, one per line of
    ``where``); :class:`JournalError` names the first that is not one."""
    attempts: list[JobAttempt] = []
    from_json = JobAttempt.from_json
    for start in range(0, len(lines), _PARSE_CHUNK):
        chunk = lines[start : start + _PARSE_CHUNK]
        try:
            rows = json.loads(b"[" + b",".join(chunk) + b"]")
            if len(rows) != len(chunk):
                raise ValueError("a line holds more than one value")
            attempts += [from_json(row) for row in rows]
        except _NOT_AN_ATTEMPT:
            for number, line in enumerate(chunk, start + 1):
                try:
                    from_json(json.loads(line))
                except _NOT_AN_ATTEMPT as exc:
                    raise JournalError(
                        f"{where}:{number}: not an attempt record: {exc!r}"
                    ) from None
            raise
    return attempts


# -- the reduced state ---------------------------------------------------


@dataclass
class JournalState:
    """The pure reducer over the durable event stream.

    The live :class:`Journal` folds every appended record into one of
    these (that is what a snapshot serializes) and :func:`recover`
    folds the replayed records into one — same code path, so the
    snapshot-plus-suffix invariant is structural, not aspirational.
    """

    #: jobs whose successful terminal record is journaled — never rerun
    done: set[str] = field(default_factory=set)
    #: jobs DAGMan hard-failed this round (retries exhausted)
    failed: set[str] = field(default_factory=set)
    #: per-job attempt high-water mark this round (from submit records)
    attempts: dict[str, int] = field(default_factory=dict)
    #: per-job RETRY budget remaining, from journaled retry charges
    retries_left: dict[str, int] = field(default_factory=dict)
    #: per-job consecutive-failure counts (retry-policy budget input)
    failed_attempts: dict[str, int] = field(default_factory=dict)
    #: submit journaled, terminal not: in flight at the crash
    in_flight: dict[str, int] = field(default_factory=dict)
    #: terminal failure journaled, retry-or-fail decision not: the
    #: scheduler re-decides these at resume (job -> terminal record)
    undecided: dict[str, dict] = field(default_factory=dict)
    #: every journaled terminal record, across rounds — the merged
    #: trace. Kept as the compact JSON *bytes* the WAL and the sidecar
    #: hold, not dicts: bytes are invisible to the cyclic GC, so a
    #: large run's retained state does not inflate every gen-2
    #: collection the way tens of thousands of small dicts would
    #: (measured as the dominant journal overhead).
    records: list[bytes] = field(default_factory=list)
    #: ``blacklist.add`` records since the last snapshot
    blacklist_blocks: list[dict] = field(default_factory=list)
    rescue_round: int = 0
    resubmitting: bool | None = None
    workflow_done: bool | None = None
    clock: float = 0.0
    manager_pid: int | None = None
    worker_pids: list[int] = field(default_factory=list)
    #: W3C-style trace id recorded by the span tracer — a resumed run
    #: reuses it so pre-crash and post-resume spans share one trace.
    trace_id: str | None = None
    #: journaled tenant workflow completions (SLO accounting), each
    #: ``{tenant, workflow, succeeded, turnaround_s, queue_wait_s}``
    service_done: list[dict] = field(default_factory=list)

    def apply(self, data: Mapping[str, object], raw: bytes) -> None:
        """Fold one decoded record into the state.

        ``raw`` is the record body's compact JSON bytes (the live
        writer just framed them, recovery slices them out of the
        verified line), stored verbatim for terminal records; the
        ``seq``/``crc`` framing keys are not part of it.
        """
        t = data.get("t")
        if isinstance(t, (int, float)) and t > self.clock:
            self.clock = float(t)
        kind = data.get("event")
        job = data.get("job_name")
        # Submits and terminals first: nearly every record is one, and
        # the maps they clear stay empty until an attempt fails.
        if kind == "job.submit" and isinstance(job, str):
            attempt_raw = data.get("attempt")
            attempt = attempt_raw if isinstance(attempt_raw, int) else 0
            if attempt > self.attempts.get(job, 0):
                self.attempts[job] = attempt
            self.in_flight[job] = attempt
            if self.undecided:
                self.undecided.pop(job, None)
        elif (
            kind == "job.finish" or kind == "job.evict"
        ) and isinstance(job, str):
            self.in_flight.pop(job, None)
            self.records.append(raw)
            if data.get("status") == "succeeded":
                self.done.add(job)
                if self.failed_attempts:
                    self.failed_attempts.pop(job, None)
                if self.undecided:
                    self.undecided.pop(job, None)
            else:
                self.failed_attempts[job] = (
                    self.failed_attempts.get(job, 0) + 1
                )
                self.undecided[job] = dict(data)
        elif kind == "job.retry" and isinstance(job, str):
            left = data.get("retries_left")
            if isinstance(left, int):
                self.retries_left[job] = left
            self.undecided.pop(job, None)
        elif kind == "job.state_change":
            if data.get("to") == "failed" and isinstance(job, str):
                self.failed.add(job)
                self.undecided.pop(job, None)
        elif kind == "blacklist.add":
            self.blacklist_blocks.append(
                {
                    "scope": data.get("scope", "machine"),
                    "name": data.get("name"),
                    "until": data.get("until"),
                }
            )
        elif kind == "rescue.round":
            round_raw = data.get("round")
            self.rescue_round = (
                round_raw
                if isinstance(round_raw, int)
                else self.rescue_round + 1
            )
            self.resubmitting = bool(data.get("resubmitting"))
            # Round-scoped counters reset: the next round's scheduler
            # starts attempts fresh over the not-yet-done set, exactly
            # like a hand-resubmitted rescue DAG.
            self.attempts.clear()
            self.retries_left.clear()
            self.failed_attempts.clear()
            self.in_flight.clear()
            self.undecided.clear()
            if self.resubmitting:
                self.failed.clear()
        elif kind == "workflow.start":
            self.in_flight.clear()
            self.workflow_done = None
            self.resubmitting = None
        elif kind == "workflow.end":
            self.workflow_done = bool(data.get("success"))
        elif kind == "service.workflow_done":
            self.service_done.append(
                {
                    key: data.get(key)
                    for key in (
                        "tenant",
                        "workflow",
                        "succeeded",
                        "turnaround_s",
                        "queue_wait_s",
                    )
                    if key in data
                }
            )
        elif kind == _META_TRACE:
            trace_id = data.get("trace_id")
            if isinstance(trace_id, str):
                self.trace_id = trace_id
        elif kind == _META_OPEN:
            pid = data.get("pid")
            if isinstance(pid, int):
                self.manager_pid = pid
            # A new manager means the old manager's workers are orphans
            # at best; they were reconciled before this record was cut.
            self.worker_pids = []
        elif kind == _META_WORKERS:
            pids = data.get("pids")
            if isinstance(pids, list):
                self.worker_pids = [p for p in pids if isinstance(p, int)]

    # -- persistence ----------------------------------------------------

    def to_json(self) -> dict:
        """JSON-able state, without the (large, append-only) terminal
        records — snapshots store those in the ``records.jsonl`` sidecar
        and keep only a line count.

        ``done`` is sorted (sets hash-order nondeterministically across
        processes); the dict fields keep insertion order, which a
        deterministic run reproduces exactly — sorting the O(jobs) maps
        on every compaction was measurable at workflow scale.
        """
        return {
            "done": sorted(self.done),
            "failed": sorted(self.failed),
            "attempts": dict(self.attempts),
            "retries_left": dict(self.retries_left),
            "failed_attempts": dict(self.failed_attempts),
            "in_flight": dict(self.in_flight),
            "undecided": dict(self.undecided),
            "blacklist_blocks": list(self.blacklist_blocks),
            "rescue_round": self.rescue_round,
            "resubmitting": self.resubmitting,
            "workflow_done": self.workflow_done,
            "clock": self.clock,
            "manager_pid": self.manager_pid,
            "worker_pids": list(self.worker_pids),
            "trace_id": self.trace_id,
            "service_done": [dict(d) for d in self.service_done],
        }

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "JournalState":
        def _int_map(key: str) -> dict[str, int]:
            raw = data.get(key)
            if not isinstance(raw, Mapping):
                return {}
            return {str(k): int(v) for k, v in raw.items()}  # type: ignore[arg-type]

        state = cls()
        done = data.get("done")
        state.done = set(done) if isinstance(done, list) else set()
        failed = data.get("failed")
        state.failed = set(failed) if isinstance(failed, list) else set()
        state.attempts = _int_map("attempts")
        state.retries_left = _int_map("retries_left")
        state.failed_attempts = _int_map("failed_attempts")
        state.in_flight = _int_map("in_flight")
        undecided = data.get("undecided")
        if isinstance(undecided, Mapping):
            state.undecided = {
                str(k): dict(v) for k, v in undecided.items()
            }
        blocks = data.get("blacklist_blocks")
        if isinstance(blocks, list):
            state.blacklist_blocks = [dict(b) for b in blocks]
        rescue_round = data.get("rescue_round")
        state.rescue_round = (
            rescue_round if isinstance(rescue_round, int) else 0
        )
        resubmitting = data.get("resubmitting")
        state.resubmitting = (
            resubmitting if isinstance(resubmitting, bool) else None
        )
        workflow_done = data.get("workflow_done")
        state.workflow_done = (
            workflow_done if isinstance(workflow_done, bool) else None
        )
        clock = data.get("clock")
        state.clock = float(clock) if isinstance(clock, (int, float)) else 0.0
        pid = data.get("manager_pid")
        state.manager_pid = pid if isinstance(pid, int) else None
        pids = data.get("worker_pids")
        if isinstance(pids, list):
            state.worker_pids = [p for p in pids if isinstance(p, int)]
        trace_id = data.get("trace_id")
        state.trace_id = trace_id if isinstance(trace_id, str) else None
        service_done = data.get("service_done")
        if isinstance(service_done, list):
            state.service_done = [
                dict(d) for d in service_done if isinstance(d, Mapping)
            ]
        return state

    def copy(self) -> "JournalState":
        clone = JournalState.from_json(self.to_json())
        clone.records = list(self.records)
        return clone


# -- the writer ----------------------------------------------------------


class Journal:
    """Append-only, CRC-framed, fsynced WAL writer (a bus subscriber).

    Subscribe it to the run's bus (pass ``bus=``) or feed it events by
    calling it directly. Compaction (snapshot + segment rotation) is
    log-structured: it fires once the WAL suffix reaches
    ``max(snapshot_every, state size)`` records, so replay stays
    bounded while total snapshot cost stays linear in run length;
    ``fsync`` is ``"always"`` /
    ``"batch"`` (every :data:`FSYNC_BATCH` records, plus snapshot/close) /
    ``"never"``. ``crash`` arms a
    :class:`~repro.resilience.faults.CrashFault` — the injection point
    for kill-anywhere testing. ``resume`` continues an existing journal
    (seq and segment numbering carry on) instead of requiring an empty
    directory.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        bus: EventBus | None = None,
        snapshot_every: int = 1000,
        fsync: str = "batch",
        crash: "CrashFault | None" = None,
        resume: "RecoveredState | None" = None,
    ) -> None:
        if fsync not in ("always", "batch", "never"):
            raise ValueError("fsync must be 'always', 'batch', or 'never'")
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        self.path = ensure_dir(path)
        self.snapshot_every = snapshot_every
        self.fsync_mode = fsync
        self.crash = crash
        self.bus = bus
        self._blacklist: "Blacklist | None" = None
        self._blacklist_json: dict | None = None
        self._dead = False
        if resume is None:
            leftovers = sorted(
                p.name
                for p in self.path.iterdir()
                if p.name in (SNAPSHOT_FILE, RECORDS_FILE)
                or p.match(SEGMENT_GLOB)
            )
            if leftovers:
                raise JournalError(
                    f"journal directory {self.path} already holds "
                    f"{', '.join(leftovers[:3])}"
                    f"{', ...' if len(leftovers) > 3 else ''} — resume it "
                    "(repro-run --resume) or point --journal elsewhere"
                )
            self._state = JournalState()
            self._seq = 0
            self._segment = 0
        else:
            self._state = resume.state.copy()
            self._blacklist_json = resume.blacklist
            self._seq = resume.last_seq + 1
            self._segment = resume.last_segment + 1
        self._since_snapshot = 0
        self._since_fsync = 0
        # The records sidecar restarts from this process's in-memory
        # state: a resume rewrites it wholesale (once, O(history)), so
        # any lines a crashed snapshot appended past the durable
        # snapshot.json are dropped rather than left to shadow the
        # replayed WAL.
        self._records_fh: BinaryIO | None = open(
            self.path / RECORDS_FILE, "wb"
        )
        if self._state.records:
            self._records_fh.write(b"\n".join(self._state.records) + b"\n")
            self._records_fh.flush()
        self._records_persisted = len(self._state.records)
        self._fh = self._open_segment()
        # Two kind-filtered subscriptions: the bus's membership test
        # routes durable kinds straight into the append path with no
        # per-event re-checking, and STATE_CHANGE (the one kind whose
        # durability hangs on a detail field) through a minimal filter.
        # Everything else (setup/exec phases, samples) never reaches us.
        self._unsubscribes: list[Callable[[], None]] = (
            [
                bus.subscribe(self._on_durable, kinds=DURABLE_KINDS),
                bus.subscribe(
                    self._on_state_change,
                    kinds=(EventKind.STATE_CHANGE,),
                ),
            ]
            if bus is not None
            else []
        )

    @property
    def closed(self) -> bool:
        """True once the journal stopped accepting records (closed, or
        killed by an armed crash fault)."""
        return self._fh is None or self._dead

    # -- append path ----------------------------------------------------

    def __call__(self, event: RunEvent) -> None:
        """Feed one event by hand (the bus path uses the pre-filtered
        handlers below): journaled iff it is a durable decision."""
        if _durable(event):
            self._on_durable(event)

    def _on_durable(self, event: RunEvent) -> None:
        if self._dead:
            return
        # serialize_event shares a one-slot memo with the EventLogWriter
        # on the same bus: one flatten + serialize per event, however
        # many persistence subscribers are attached.
        body, text = serialize_event(event)
        self._append_serialized(body, text.encode())

    def _on_state_change(self, event: RunEvent) -> None:
        # Only hard failures are durable; the ready/submitted/done
        # transitions outnumber the WAL's records and stay off it.
        if event.detail.get("to") == "failed":
            self._on_durable(event)

    def record_workers(self, pids: Iterable[int]) -> None:
        """Note the local backend's worker PIDs for post-crash reaping."""
        if self._dead:
            return
        self._append({"event": _META_WORKERS, "pids": sorted(pids)})

    def record_trace_id(self, trace_id: str) -> None:
        """Persist the causal-trace id so a resumed run extends the
        same trace (idempotent: a resume that re-records the recovered
        id writes nothing)."""
        if self._dead or self._state.trace_id == trace_id:
            return
        self._append({"event": _META_TRACE, "trace_id": trace_id})

    def attach_blacklist(self, blacklist: "Blacklist") -> None:
        """Snapshot this blacklist's full state (policy + streaks +
        blocks) with every compaction — the cross-process persistence
        ``run_with_recovery`` rescue rounds rely on."""
        self._blacklist = blacklist

    def snapshot(self) -> Path:
        """Compact: write ``snapshot.json`` atomically, rotate the
        segment, delete segments the snapshot subsumes."""
        if self._fh is None or self._dead:
            raise JournalError("journal is closed")
        blacklist_json = self._blacklist_json
        if self._blacklist is not None:
            blacklist_json = self._blacklist.to_json()
            # Blocks recorded since the last snapshot are now subsumed
            # by the serialized blacklist itself.
            self._state.blacklist_blocks = []
        # Records go to the append-only sidecar *before* snapshot.json
        # lands: a crash in between leaves extra sidecar lines that the
        # still-old snapshot's count simply ignores (and the next open
        # rewrites), never a snapshot that references missing records.
        records = self._state.records
        records_fh = self._records_fh
        if records_fh is not None:
            if len(records) > self._records_persisted:
                records_fh.write(
                    b"\n".join(records[self._records_persisted:]) + b"\n"
                )
                self._records_persisted = len(records)
            records_fh.flush()
            if self.fsync_mode != "never":
                os.fsync(records_fh.fileno())
        body = {
            "version": JOURNAL_VERSION,
            "seq": self._seq - 1,
            "segment": self._segment,
            "state": self._state.to_json(),
            "records_in_file": self._records_persisted,
            "blacklist": blacklist_json,
        }
        snap_path = atomic_write(
            self.path / SNAPSHOT_FILE, json.dumps(body)
        )
        old_segment = self._segment
        # No segment fsync here: the snapshot that just landed subsumes
        # the outgoing segment entirely (it is deleted two lines down),
        # so syncing its tail buys no durability the snapshot doesn't
        # already provide. close() flushes it to the OS for the window
        # between rename and unlink.
        self._fh.close()
        self._segment += 1
        self._since_snapshot = 0  # before reopening: _append re-checks
        self._since_fsync = 0  # the old segment's pending count is moot
        self._fh = self._open_segment()
        for seg in self.path.glob(SEGMENT_GLOB):
            if _segment_index(seg) <= old_segment:
                seg.unlink(missing_ok=True)
        if self.bus is not None:
            self.bus.emit(
                RunEvent(
                    EventKind.JOURNAL_SNAPSHOT,
                    self._state.clock,
                    detail={
                        "seq": self._seq - 1,
                        "segment": self._segment,
                        "records": len(self._state.records),
                    },
                )
            )
        return snap_path

    def close(self) -> None:
        """Final snapshot (bounds the next resume's replay) + fsync."""
        for unsubscribe in self._unsubscribes:
            unsubscribe()
        self._unsubscribes = []
        if self._fh is None:
            return
        if not self._dead:
            self.snapshot()
            self._fsync_segment()
        if self._records_fh is not None:
            self._records_fh.close()
            self._records_fh = None
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- internals ------------------------------------------------------

    def _open_segment(self) -> BinaryIO:
        seg_path = self.path / f"wal-{self._segment:08d}.jsonl"
        fh = open(seg_path, "ab")
        self._fh = fh
        self._append({
            "event": _META_OPEN,
            "version": JOURNAL_VERSION,
            "pid": os.getpid(),
        })
        return fh

    def _append(self, body: dict) -> None:
        self._append_serialized(body, compact_json(body).encode())

    def _append_serialized(self, body: dict, raw: bytes) -> None:
        # One serialization per record: the compact body bytes become
        # both the framed WAL line and (for terminal records) the
        # retained state entry and sidecar line, verbatim.
        fh = self._fh
        if fh is None or self._dead:
            raise JournalError("journal is closed")
        line = _frame_record(self._seq, raw)
        crash = self.crash
        if crash is not None and crash.note_record():
            # Simulate the torn write: a prefix of the record reaches
            # the file (never newline-terminated, so recovery sees it
            # as torn, not valid), then the manager dies.
            self._dead = True
            torn = line[: max(1, int(len(line) * crash.torn_fraction))]
            fh.write(torn.rstrip(b"\n"))
            fh.flush()
            crash.fire()  # SIGKILL or CrashInjected — never returns None
        fh.write(line)
        self._seq += 1
        self._since_snapshot += 1
        # Flushes ride the fsync cadence (see the module docstring's
        # durability policy): the buffered tail is the at-least-once
        # window, and a buffer boundary can only tear the final record.
        if self.fsync_mode == "always":
            fh.flush()
            os.fsync(fh.fileno())
        elif self.fsync_mode == "batch":
            self._since_fsync += 1
            if self._since_fsync >= FSYNC_BATCH:
                fh.flush()
                os.fsync(fh.fileno())
                self._since_fsync = 0
        self._state.apply(body, raw)
        # Log-structured trigger: compact only once the WAL suffix is
        # at least as long as the state a snapshot would have to
        # serialize (``snapshot_every`` is the floor). A fixed cadence
        # would re-serialize the ever-growing record list every K
        # appends — O(n^2) over a large run; this keeps the total
        # snapshot cost linear while still bounding replay to
        # O(state size) records.
        if self._since_snapshot >= max(
            self.snapshot_every, len(self._state.records)
        ):
            self.snapshot()

    def _fsync_segment(self) -> None:
        if self._fh is not None and self.fsync_mode != "never":
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._since_fsync = 0


def _segment_index(path: Path) -> int:
    try:
        return int(path.stem.split("-", 1)[1])
    except (IndexError, ValueError):
        return -1


# -- recovery ------------------------------------------------------------


@dataclass
class RecoveredState:
    """What :func:`recover` reconstructs from a journal directory."""

    path: Path
    state: JournalState
    #: the snapshot's serialized blacklist (``Blacklist.to_json``), if any
    blacklist: dict | None
    last_seq: int
    last_segment: int
    #: True when a torn tail was found (and, with ``repair``, truncated)
    torn_tail: bool
    #: WAL records replayed on top of the snapshot
    replayed: int
    #: ``state.records`` parsed, index for index (:func:`recover` reads
    #: each journaled attempt once, before it touches the directory)
    attempts: list[JobAttempt] = field(default_factory=list)

    @property
    def done(self) -> frozenset[str]:
        """Jobs that must never execute again."""
        return frozenset(self.state.done)

    @property
    def clock(self) -> float:
        """Highest journaled event time — the resume clock offset."""
        return self.state.clock

    @property
    def trace_id(self) -> str | None:
        """The journaled causal-trace id (resume reuses it so the
        post-crash spans extend the pre-crash trace)."""
        return self.state.trace_id

    @property
    def service_completions(self) -> list[dict]:
        """Journaled tenant workflow completions — feed to
        :meth:`repro.service.WorkflowService.restore_completions` so
        post-resume SLO reports count each pre-crash workflow once."""
        return [dict(d) for d in self.state.service_done]

    @property
    def complete(self) -> bool:
        """True when the journaled workflow already ran to its end
        (success, or failure with no resubmit pending) — nothing to
        resume."""
        if self.state.workflow_done is True:
            return True
        return (
            self.state.workflow_done is False
            and self.state.resubmitting is False
        )

    def scheduler_restore(self) -> "SchedulerRestore":
        """Counters for :class:`DagmanScheduler`'s ``restore=``.

        Jobs in flight at the crash get their attempt counter rolled
        back one, so the resumed submission re-runs *the same attempt
        number* — budgets and attempt-keyed outcomes match the
        uninterrupted run.
        """
        from repro.dagman.scheduler import SchedulerRestore

        state = self.state
        attempts = dict(state.attempts)
        for job, attempt in state.in_flight.items():
            attempts[job] = max(0, attempt - 1)
        return SchedulerRestore(
            attempts=attempts,
            retries_left=dict(state.retries_left),
            failed_attempts=dict(state.failed_attempts),
            failed=frozenset(state.failed),
            undecided={
                job: JobAttempt.from_json(record)
                for job, record in state.undecided.items()
            },
        )

    def resume_dag(self, dag: Dag) -> Dag:
        """A copy of ``dag`` with the journaled done set marked DONE —
        rescue-DAG semantics, built in memory so payloads and runtimes
        survive (a ``.dag`` file cannot carry them)."""
        return dag.rescue(
            dag.done | {n for n in self.state.done if n in dag.jobs}
        )

    def write_rescue(self, dag: Dag, path: str | Path) -> Path:
        """Emit a DAGMan-style rescue ``.dag`` (DONE marks) for interop
        — the journal's state, in the format real tooling reads."""
        rescue = self.resume_dag(dag)
        rescue.name = f"{dag.name}.rescue"
        return rescue.write_dagfile(path)

    def trace(self) -> WorkflowTrace:
        """The journaled attempts as a :class:`WorkflowTrace` — prepend
        to the resumed run's trace for whole-history statistics."""
        return WorkflowTrace(list(self.attempts))

    def restore_blacklist(
        self,
        *,
        policy: "BlacklistPolicy | None" = None,
        bus: EventBus | None = None,
    ) -> "Blacklist | None":
        """Rebuild the blacklist: snapshot state plus WAL-suffix blocks.

        ``policy`` seeds a blacklist when blocks were journaled before
        any snapshot carried the full serialization. Returns ``None``
        when the journal never saw a blacklist at all.
        """
        if self.blacklist is None and not self.state.blacklist_blocks:
            return None
        from repro.resilience.blacklist import Blacklist

        if self.blacklist is not None:
            restored = Blacklist.from_json(self.blacklist, bus=bus)
        elif policy is not None:
            restored = Blacklist(policy, bus=bus)
        else:
            restored = Blacklist(bus=bus)
        for block in self.state.blacklist_blocks:
            name = block.get("name")
            if isinstance(name, str):
                until = block.get("until")
                restored.restore_block(
                    str(block.get("scope", "machine")),
                    name,
                    until=until if isinstance(until, (int, float)) else None,
                )
        return restored


def _read_snapshot(
    path: Path,
) -> tuple[JournalState, int, dict | None, list[JobAttempt], str]:
    """Where replay starts: the snapshot's state, its last ``seq``, the
    serialized blacklist, the vouched records parsed, and what anchors
    that ``seq`` — an empty state at -1 and the reason when no snapshot
    can be used."""
    def unusable(reason: str) -> tuple[JournalState, int, None, list, str]:
        return JournalState(), -1, None, [], reason

    snap_path = path / SNAPSHOT_FILE
    if not snap_path.exists():
        return unusable(f"there is no {SNAPSHOT_FILE}")
    try:
        snap = json.loads(snap_path.read_bytes())
        state = JournalState.from_json(snap["state"])
        seq, wanted = snap["seq"], snap["records_in_file"]
        # Version 1 keeps the terminal records in the sidecar and says how
        # many: a snapshot that inlines them is refused, not recovered bare.
        if (
            snap["version"] != JOURNAL_VERSION
            or not (isinstance(seq, int) and isinstance(wanted, int))
            or "records" in snap["state"]
        ):
            raise ValueError(snap["version"], seq, wanted)
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        # unreadable, not JSON, or JSON of some other shape
        return unusable(
            f"{SNAPSHOT_FILE} is not a version-{JOURNAL_VERSION} snapshot"
        )
    # The snapshot only vouches for the sidecar's first ``wanted`` lines
    # (later ones belong to a snapshot that never landed).
    where = path / RECORDS_FILE
    try:
        lines = where.read_bytes().split(b"\n")[:-1]
    except OSError:
        lines = []
    if len(lines) < wanted:
        return unusable(
            f"{RECORDS_FILE} holds {len(lines)} of the {wanted} line(s) "
            f"{SNAPSHOT_FILE} vouches for"
        )
    state.records = lines[:wanted]
    blacklist = snap.get("blacklist")
    return (
        state,
        seq,
        blacklist if isinstance(blacklist, dict) else None,
        _parse_attempts(state.records, where),
        f"{SNAPSHOT_FILE} ends at seq {seq}",
    )


def recover(path: str | Path, *, repair: bool = True) -> RecoveredState:
    """Reconstruct state from a journal directory.

    Reads ``snapshot.json`` and the ``records.jsonl`` lines it vouches
    for, then replays every segment in order, verifying CRC and ``seq``
    continuity per record. The first invalid record — torn tail, bad
    checksum, sequence gap, or trailing bytes without a newline — ends
    the replay; with ``repair`` the offending segment is truncated to
    its last valid byte and any later segments (causally after the
    tear) are deleted, leaving the directory consistent for the resumed
    writer.

    Repair only cuts *after* something anchors the cut. A snapshot that
    cannot be used (not JSON, not version 1, a sidecar shorter than it
    claims) leaves replaying the WAL from ``seq`` 0, which no longer
    exists after the first compaction: when the first surviving record
    is not the one the snapshot (or ``seq`` 0) calls for, or is
    unreadable with no snapshot behind it, :class:`JournalError` — as
    for a vouched sidecar line that is not an attempt record
    (``…/records.jsonl:LINE: …``). Raising leaves every file as found.
    """
    path = Path(path)
    if not path.is_dir():
        raise JournalError(f"no journal directory at {path}")
    state, last_seq, blacklist, attempts, anchor = _read_snapshot(path)

    segments = sorted(path.glob(SEGMENT_GLOB), key=_segment_index)
    last_segment = max(
        (_segment_index(s) for s in segments), default=-1
    )
    torn = False
    replayed = 0
    first = True  # no WAL record accepted or skipped yet
    records = state.records
    for position, seg in enumerate(segments):
        raw = seg.read_bytes()
        idx = 0
        valid_end = 0
        while True:
            nl = raw.find(b"\n", idx)
            if nl == -1:
                torn = idx < len(raw)  # trailing bytes, no newline
                break
            line = raw[idx:nl]
            data = decode_record(line)
            if data is None:
                if last_seq < 0:
                    raise JournalError(
                        f"{seg}:1: not a journal record, and {anchor} — "
                        "nothing anchors the records after it"
                    )
                torn = True
                break
            seq = data["seq"]
            if seq > last_seq + 1:  # a gap: records after it are unanchored
                if first:
                    raise JournalError(
                        f"{seg}: the first surviving record is seq {seq}, "
                        f"but {anchor} — nothing anchors it"
                    )
                torn = True
                break
            first = False
            idx = valid_end = nl + 1
            if seq <= last_seq:
                continue  # already in the snapshot
            # The body is the line minus its framing: 24 bytes of
            # '{"crc":"…","seq":', then the digits and a comma.
            state.apply(data, b"{" + line[line.find(b",", 24) + 1 :])
            if len(records) > len(attempts):  # apply kept it: a terminal
                try:
                    attempts.append(JobAttempt.from_json(data))
                except _NOT_AN_ATTEMPT as exc:
                    raise JournalError(
                        f"{seg}: record seq {seq} is not an attempt "
                        f"record: {exc!r}"
                    ) from None
            last_seq = seq
            replayed += 1
        if torn:
            if repair:
                if valid_end < len(raw):
                    with open(seg, "r+b") as fh:
                        fh.truncate(valid_end)
                for later in segments[position + 1 :]:
                    later.unlink(missing_ok=True)
            break
    return RecoveredState(
        path=path,
        state=state,
        blacklist=blacklist,
        last_seq=last_seq,
        last_segment=last_segment,
        torn_tail=torn,
        replayed=replayed,
        attempts=attempts,
    )


# -- local-backend reconciliation ----------------------------------------


@dataclass
class ReconcileReport:
    """What happened to the crashed manager's processes on resume."""

    manager_pid: int | None
    manager_alive: bool
    #: orphaned worker PIDs that were still alive and got SIGKILLed
    reaped: list[int]
    #: jobs whose attempt was in flight at the crash — resubmitted
    requeued: list[str]


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        return True
    except OSError:  # pragma: no cover - platform oddities
        return False
    return True


def reconcile_local(
    recovered: RecoveredState,
    *,
    kill: Callable[[int, int], None] | None = None,
    alive: Callable[[int], bool] | None = None,
) -> ReconcileReport:
    """Reap-or-requeue for the local backend after a manager crash.

    The journal records the manager PID (segment headers) and the pool
    worker PIDs (``record_workers``). On resume: if the old manager is
    *still alive*, raise — resuming would double-run the workflow. If
    it is dead, SIGKILL any worker that outlived it (their results have
    nowhere to land; a worker mid-payload holds files the resumed run
    will rewrite), and report the in-flight jobs the resumed scheduler
    will requeue. ``kill``/``alive`` are injectable for tests.
    """
    kill_fn = kill if kill is not None else os.kill
    alive_fn = alive if alive is not None else _pid_alive
    state = recovered.state
    manager = state.manager_pid
    manager_alive = (
        manager is not None
        and manager != os.getpid()
        and alive_fn(manager)
    )
    if manager_alive:
        raise JournalError(
            f"journal {recovered.path} belongs to a live manager "
            f"(pid {manager}); resuming now would run the workflow twice"
        )
    reaped: list[int] = []
    for pid in state.worker_pids:
        if pid == os.getpid() or not alive_fn(pid):
            continue
        try:
            kill_fn(pid, signal.SIGKILL)
        except OSError:  # pragma: no cover - raced its own exit
            continue
        reaped.append(pid)
    return ReconcileReport(
        manager_pid=manager,
        manager_alive=False,
        reaped=reaped,
        requeued=sorted(state.in_flight),
    )
