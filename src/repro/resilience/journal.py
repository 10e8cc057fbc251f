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
workflow start/end) to one append-only log, ``wal.jsonl``: one
CRC32-framed record per line, in the exact schema of
:mod:`repro.observe.log` plus a ``seq`` continuity counter (line N
holds seq N - 1). The log is never rotated; it is cut only to drop a
torn tail. Periodically the journal compacts: the reduced state
(:class:`JournalState`) is written atomically to ``snapshot.json``, a
single record in the same framing that also holds the byte offset in
the log where its ``seq`` ends. The snapshot is a cache that bounds
replay. :func:`recover` reads the log once: up to the snapshot's offset
it checks every line's CRC and ``seq`` and parses only the terminal
attempts (the merged trace); from there it replays records through
:meth:`JournalState.apply` and **truncates a torn tail at the last
valid record** (bad CRC, bad JSON, seq gap, or a line missing its
newline). A damaged line before the offset is refused with one
``…/wal.jsonl:LINE:`` :class:`JournalError`, every file left as found;
a missing or damaged snapshot means replay from seq 0, which always
works because compaction deletes nothing. The returned
:class:`RecoveredState` can mark the DAG's done set, rebuild the
scheduler's counters (:meth:`RecoveredState.scheduler_restore`),
restore the blacklist, rebuild the merged attempt trace, write a
DAGMan-interop rescue ``.dag``, and refuse a resume while the crashed
manager still lives (:func:`reconcile_local`).

Bytes are the unit, and each record's work is done once in each
direction. Out: the event's line is printed once (a platform's terminal
line from one template, see :mod:`repro.observe.log`) and encoded
once; the CRC runs on from the ``seq`` head over those bytes, which are
then joined with it into the log line. The writer keeps the reduced
state and nothing of the run's history.
:meth:`JournalState.apply` is handed only the keys it reads — four for
a successful terminal — and only a failed terminal, which the state
keeps whole, is flattened into a dict. A snapshot merges the names
done since the last one into the sorted list it already holds, and a
resumed writer copies the recovered state rather than round-tripping
it through JSON. Back: the CRC is checked over the bytes of the line on
disk, chained on from the opening ``{`` rather than over a rebuilt
copy; every journaled attempt is parsed once, through
:meth:`JobAttempt.from_json <repro.dagman.events.JobAttempt.from_json>`,
and shares its job name with the done set.
What this replaced is kept as oracles: the check-by-re-serialising in
``tests/oracles/journal_reference.py``, the append path in
``tests/oracles/journal_append_reference.py``, the copying decoder and
the keyword-built attempt in ``tests/oracles/journal_replay_reference.py``.

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
every snapshot — the log is synced before the snapshot that points
into it — and close; crash injection flushes its torn prefix
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
import zlib
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Callable, Mapping

from repro.dagman.dag import Dag
from repro.dagman.events import JobAttempt, JobStatus, WorkflowTrace
from repro.observe.bus import EventBus
from repro.observe.events import TERMINAL_KINDS, EventKind, RunEvent
from repro.observe.log import compact_json, event_to_json, event_to_json_line
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
    "decode_record",
]

SNAPSHOT_FILE = "snapshot.json"
#: The log: every durable record, from seq 0 on, one framed line each.
WAL_FILE = "wal.jsonl"
#: Version 1 kept rotating log segments, a terminal-record sidecar and
#: an unframed snapshot; a directory of it is refused, not read.
JOURNAL_VERSION = 2
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
    }
)

#: Journal-internal record kinds (the ``/`` keeps them out of the
#: ``EventKind`` namespace): the writer's header (version and pid) and
#: the causal-trace id (so a resumed run extends the same trace).
_META_OPEN = "journal/open"
_META_TRACE = "journal/trace"


class JournalError(RuntimeError):
    """The journal directory is unusable as asked (not empty on a fresh
    open, closed writer, damaged before its snapshot, manager still
    alive on reconcile, ...)."""


#: Each kind's ``value`` (a plain lookup: ``.value`` on a member is a
#: descriptor call).
_KIND_TEXT = {kind: kind.value for kind in EventKind}


def _fields(event: RunEvent) -> dict:
    """Every key :meth:`JournalState.apply` reads of the event's line,
    with the value ``event_to_json(event)`` holds under it (a
    record-less event brings its whole ``detail``). A successful
    terminal is four keys, not its whole attempt record; a failed one
    is kept whole (``undecided``), so it gets the flattened dict."""
    record = event.record
    if record is not None:
        if record.status is JobStatus.SUCCEEDED and event.kind in TERMINAL_KINDS:
            return {
                "event": _KIND_TEXT[event.kind],
                "t": event.time,
                "job_name": record.job_name,
                "status": "succeeded",
            }
        return event_to_json(event)
    # No record: the header's keys take precedence over the detail's,
    # and apply reads no header key but these two.
    data = dict(event.detail)
    data["event"] = _KIND_TEXT[event.kind]
    data["t"] = event.time
    if event.job_name is not None:
        data["job_name"] = event.job_name
    if event.attempt is not None:
        data["attempt"] = event.attempt
    return data


# -- record framing ------------------------------------------------------

#: The CRC-32 of the ``{`` that opens the checksummed text
#: ``{"seq":N,…}``: writer and reader chain it on over the rest, so
#: neither builds that text to take its checksum.
_CRC_OPEN = zlib.crc32(b"{")


def _frame_record(seq: int, body: bytes) -> bytes:
    """Frame one serialized body (compact JSON object) as a line: the
    CRC runs over the ``seq`` head and then on over the body, so the
    two are joined once, into the line itself."""
    head = b'"seq":%d,' % seq
    rest = body[1:]
    crc = zlib.crc32(rest, zlib.crc32(head, _CRC_OPEN))
    return b'{"crc":"%08x",%b%b\n' % (crc, head, rest)


#: json's C scanner, called without ``raw_decode``'s Python frame: one
#: JSON value from an index, ``StopIteration`` when none starts there.
_scan = json.JSONDecoder().scan_once


def decode_record(line: bytes | str) -> dict | None:
    """Parse and verify one framed line; ``None`` means torn/corrupt.

    A line is valid iff it starts ``{"crc":"`` + eight lowercase hex
    digits + ``","seq":``, those digits are the CRC32 of ``{`` + the
    rest of the line from ``"seq":`` on, that text is one JSON object
    and its ``seq`` is an ``int`` (a ``bool`` is not). The check is over
    the line's own bytes, so a line someone re-spaced or re-ordered by
    hand is torn even when its compact form would still match the
    checksum.
    """
    try:
        if isinstance(line, str):
            line = line.encode()
        rest = line.rstrip(b"\n")[18:]
        if not line.startswith(
            b'{"crc":"%08x","seq":' % zlib.crc32(rest, _CRC_OPEN)
        ):
            return None
        text = (b"{" + rest).decode()
        data, end = _scan(text, 0)
    except (ValueError, StopIteration):  # un-encodable, not UTF-8, not JSON
        return None
    # exactly an int: ``true`` is not seq 1
    if end != len(text) or type(data["seq"]) is not int:
        return None
    return data


def _framed_as(line: bytes, seq: int) -> bool:
    """Whether ``line`` (newline included) is framed as record ``seq``:
    :func:`decode_record`'s CRC check and the ``seq`` in one prefix
    test, without parsing the body."""
    return line.endswith(b"\n") and line.startswith(
        b'{"crc":"%08x","seq":%d,' % (zlib.crc32(line[18:-1], _CRC_OPEN), seq)
    )


#: The record kinds that are attempts (what the merged trace holds),
#: and how such a record's line goes on after its framing.
_TERMINAL_TEXT = frozenset(_KIND_TEXT[kind] for kind in TERMINAL_KINDS)
_TERMINAL_HEADS = tuple(b'"event":"%s"' % k.encode() for k in _TERMINAL_TEXT)
#: Terminal bodies per ``json.loads``: a call per line costs 30 % more,
#: one call for a whole history holds every parsed dict at once and is
#: no faster.
_PARSE_CHUNK = 256
_NOT_AN_ATTEMPT = (ValueError, KeyError, TypeError, AttributeError)


def _share_strings(row: dict, strings: dict[str, str]) -> dict:
    """``row`` with the strings that repeat from record to record (the
    job name, which the done set holds too, and a run's handful of
    transformations, sites, machines and profile sources) swapped for
    the first equal one in ``strings``; what is not a string is left
    for ``from_json`` to judge."""
    for key in ("job_name", "transformation", "site", "machine"):
        value = row.get(key)
        if type(value) is str:
            row[key] = strings.setdefault(value, value)
    profile = row.get("profile")
    if type(profile) is dict:
        source = profile.get("source")
        if type(source) is str:
            profile["source"] = strings.setdefault(source, source)
    return row


def _parse_attempts(
    chunk: list[tuple[int, bytes]], where: Path, strings: dict[str, str]
) -> list[JobAttempt]:
    """The attempt records in ``chunk`` (line numbers of ``where`` and
    record bodies), sharing their repeating strings through
    ``strings``; :class:`JournalError` names the first that is not
    one."""
    from_json = JobAttempt.from_json
    try:
        rows = json.loads(b"[" + b",".join(body for _, body in chunk) + b"]")
        if len(rows) != len(chunk):
            raise ValueError("a line holds more than one value")
        return [from_json(_share_strings(row, strings)) for row in rows]
    except _NOT_AN_ATTEMPT:
        for number, body in chunk:
            try:
                from_json(json.loads(body))
            except _NOT_AN_ATTEMPT as exc:
                raise JournalError(
                    f"{where}:{number}: not an attempt record: {exc!r}"
                ) from None
        raise


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
    #: every journaled terminal record, across rounds (the merged
    #: trace's length)
    records_total: int = 0
    #: ``blacklist.add`` records since the last snapshot
    blacklist_blocks: list[dict] = field(default_factory=list)
    rescue_round: int = 0
    resubmitting: bool | None = None
    workflow_done: bool | None = None
    clock: float = 0.0
    manager_pid: int | None = None
    #: W3C-style trace id recorded by the span tracer — a resumed run
    #: reuses it so pre-crash and post-resume spans share one trace.
    trace_id: str | None = None
    #: ``done`` sorted as of the last :meth:`to_json`, and the names
    #: :meth:`apply` added since: each snapshot merges the new names in
    #: instead of sorting the whole set again. ``apply`` is the one
    #: writer of ``done``: a state that starts from a filled one
    #: (loaded, copied) sorts it whole once.
    _done_sorted: list[str] = field(
        default_factory=list, init=False, repr=False, compare=False
    )
    _done_new: list[str] = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    def apply(self, data: Mapping[str, object]) -> None:
        """Fold one decoded record into the state (the ``seq``/``crc``
        framing keys, when present, are ignored)."""
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
            self.records_total += 1
            if data.get("status") == "succeeded":
                if job not in self.done:
                    self.done.add(job)
                    self._done_new.append(job)
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
        elif kind == _META_TRACE:
            trace_id = data.get("trace_id")
            if isinstance(trace_id, str):
                self.trace_id = trace_id
        elif kind == _META_OPEN:
            pid = data.get("pid")
            if isinstance(pid, int):
                self.manager_pid = pid

    # -- persistence ----------------------------------------------------

    def to_json(self) -> dict:
        """JSON-able state (the terminal records stay in the log).

        ``done`` is sorted (sets hash-order nondeterministically across
        processes); the dict fields keep insertion order, which a
        deterministic run reproduces exactly — sorting the O(jobs) maps
        on every compaction was measurable at workflow scale.
        """
        return {
            "done": list(self._sorted_done()),
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
            "trace_id": self.trace_id,
        }

    def _sorted_done(self) -> list[str]:
        new = self._done_new
        if len(self._done_sorted) + len(new) != len(self.done):
            # never sorted yet: the state was loaded or copied
            self._done_sorted = sorted(self.done)
        elif new:
            merged = self._done_sorted + new
            merged.sort()  # two runs, one of them short: a merge
            self._done_sorted = merged
        self._done_new = []
        return self._done_sorted

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
        trace_id = data.get("trace_id")
        state.trace_id = trace_id if isinstance(trace_id, str) else None
        return state

    def copy(self) -> "JournalState":
        """This state, sharing no mutable container with it."""
        return JournalState(
            done=set(self.done),
            failed=set(self.failed),
            attempts=dict(self.attempts),
            retries_left=dict(self.retries_left),
            failed_attempts=dict(self.failed_attempts),
            in_flight=dict(self.in_flight),
            undecided={job: dict(r) for job, r in self.undecided.items()},
            records_total=self.records_total,
            blacklist_blocks=[dict(b) for b in self.blacklist_blocks],
            rescue_round=self.rescue_round,
            resubmitting=self.resubmitting,
            workflow_done=self.workflow_done,
            clock=self.clock,
            manager_pid=self.manager_pid,
            trace_id=self.trace_id,
        )


# -- the writer ----------------------------------------------------------


class Journal:
    """Append-only, CRC-framed, fsynced log writer (a bus subscriber).

    Subscribe it to the run's bus (pass ``bus=``) or feed it events by
    calling it directly. Compaction (a snapshot of the reduced state)
    is log-structured: it fires once the records since the last one
    reach ``max(snapshot_every, terminal records)``, so replay stays
    bounded while total snapshot cost stays linear in run length;
    ``fsync`` is ``"always"`` / ``"batch"`` (every :data:`FSYNC_BATCH`
    records, plus snapshot/close) / ``"never"``. ``crash`` arms a
    :class:`~repro.resilience.faults.CrashFault` — the injection point
    for kill-anywhere testing, consulted at every record and every
    snapshot. ``resume`` continues an existing journal (its log and its
    ``seq`` carry on) instead of requiring an empty directory.
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
                p.name for p in self.path.iterdir()
                if p.name in (SNAPSHOT_FILE, WAL_FILE)
            )
            if leftovers:
                raise JournalError(
                    f"journal directory {self.path} already holds "
                    f"{', '.join(leftovers)} — resume it "
                    "(repro-run --resume) or point --journal elsewhere"
                )
            self._state = JournalState()
            self._seq = 0
        else:
            self._state = resume.state.copy()
            self._blacklist_json = resume.blacklist
            self._seq = resume.last_seq + 1
        self._since_snapshot = 0
        self._since_fsync = 0
        # recover() cut any torn tail, so this appends after the last
        # valid record.
        self._fh: BinaryIO | None = open(self.path / WAL_FILE, "ab")
        self._append({
            "event": _META_OPEN,
            "version": JOURNAL_VERSION,
            "pid": os.getpid(),
        })
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

    def _on_durable(self, event: RunEvent) -> None:
        if self._dead:
            return
        # The line is memo-shared with the EventLogWriter on the same
        # bus (printed once per event, however many persistence
        # subscribers are attached).
        self._append_serialized(
            _fields(event), event_to_json_line(event).encode()
        )

    def _on_state_change(self, event: RunEvent) -> None:
        # Only hard failures are durable; readiness (and what a tagged
        # scheduler restates) outnumbers the log's records and stays off.
        if event.detail.get("to") == "failed":
            self._on_durable(event)

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
        """Compact: sync the log, then write ``snapshot.json``
        atomically — the state as of the last record, and the byte
        offset in the log where that record ends."""
        fh = self._fh
        if fh is None or self._dead:
            raise JournalError("journal is closed")
        blacklist_json = self._blacklist_json
        if self._blacklist is not None:
            blacklist_json = self._blacklist.to_json()
            # Blocks recorded since the last snapshot are now subsumed
            # by the serialized blacklist itself.
            self._state.blacklist_blocks = []
        # The log reaches disk before the snapshot that points into it:
        # a snapshot never vouches for bytes a crash could lose.
        self._sync()
        seq = self._seq - 1
        body = {
            "version": JOURNAL_VERSION,
            "offset": fh.tell(),
            "state": self._state.to_json(),
            "blacklist": blacklist_json,
        }
        snap_path = atomic_write(
            self.path / SNAPSHOT_FILE,
            _frame_record(seq, compact_json(body).encode()),
        )
        self._since_snapshot = 0
        crash = self.crash
        if crash is not None and crash.note_record():
            # A crash point too: right after the snapshot lands, before
            # the next record.
            self._dead = True
            crash.fire()
        if self.bus is not None:
            self.bus.emit(
                RunEvent(
                    EventKind.JOURNAL_SNAPSHOT,
                    self._state.clock,
                    detail={"seq": seq, "records": self._state.records_total},
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
        self._fh.close()
        self._fh = None

    # -- internals ------------------------------------------------------

    def _append(self, body: dict) -> None:
        self._append_serialized(body, compact_json(body).encode())

    def _append_serialized(self, body: dict, raw: bytes) -> None:
        # One serialization per record: the compact body bytes become
        # the framed log line verbatim.
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
                self._sync()
        self._state.apply(body)
        # Log-structured trigger: compact only once the records since
        # the last snapshot are at least as many as the state a
        # snapshot would have to serialize (``snapshot_every`` is the
        # floor; the terminal count stands for that size, ``done`` grows
        # with it). A fixed cadence would
        # re-serialize the ever-growing state every K appends — O(n^2)
        # over a large run; this keeps the total snapshot cost linear
        # while still bounding replay to O(state size) records.
        if self._since_snapshot >= max(self.snapshot_every, self._state.records_total):
            self.snapshot()

    def _sync(self) -> None:
        """Flush the log to the OS, and to disk unless ``fsync="never"``."""
        assert self._fh is not None
        self._fh.flush()
        if self.fsync_mode != "never":
            os.fsync(self._fh.fileno())
        self._since_fsync = 0


# -- recovery ------------------------------------------------------------


@dataclass
class RecoveredState:
    """What :func:`recover` reconstructs from a journal directory."""

    path: Path
    state: JournalState
    #: the snapshot's serialized blacklist (``Blacklist.to_json``), if any
    blacklist: dict | None
    last_seq: int
    #: True when a torn tail was found (and truncated)
    torn_tail: bool
    #: log records replayed on top of the snapshot
    replayed: int
    #: every journaled terminal record, in log order (each parsed
    #: once, before :func:`recover` touches the directory)
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
        """Rebuild the blacklist: the snapshot's, plus the blocks the log
        holds past it.

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


def _read_snapshot(path: Path) -> tuple[JournalState, int, int, dict | None]:
    """Where replay starts: the snapshot's state, its ``seq``, the byte
    offset in the log where that record ends, and the serialized
    blacklist — an empty state at seq -1 when there is no snapshot or it
    is damaged. A snapshot of another version is refused."""
    snap_path = path / SNAPSHOT_FILE
    try:
        raw = snap_path.read_bytes()
    except FileNotFoundError:
        raw = b""
    snap = decode_record(raw)
    if snap is not None:
        version = snap.get("version")
    else:  # missing or damaged, or an older journal's unframed one
        try:
            older = json.loads(raw)
            version = JOURNAL_VERSION if "crc" in older else older["version"]
        except (ValueError, TypeError, KeyError):
            version = JOURNAL_VERSION
    if version != JOURNAL_VERSION:
        raise JournalError(
            f"{snap_path}: a version-{version} journal; this repro reads "
            f"version {JOURNAL_VERSION} only — finish that run with the "
            "release that wrote it"
        )
    try:  # a snapshot that is not there or not whole: replay it all
        seq, offset = snap["seq"], snap["offset"]  # type: ignore[index]
        if type(offset) is not int or offset <= 0 or seq < 0:
            raise ValueError(offset, seq)
        state = JournalState.from_json(snap["state"])
    except (ValueError, KeyError, TypeError, AttributeError):
        return JournalState(), -1, 0, None
    blacklist = snap.get("blacklist")
    return state, seq, offset, blacklist if isinstance(blacklist, dict) else None


def recover(path: str | Path) -> RecoveredState:
    """Reconstruct state from a journal directory.

    Reads ``snapshot.json``, then the log once. Up to the snapshot's
    ``seq`` every line must carry its CRC and the next ``seq`` and end
    at the offset the snapshot names; there only the terminal records
    are parsed (into :attr:`RecoveredState.attempts`), and any damage
    is a :class:`JournalError` naming ``…/wal.jsonl:LINE``. After it
    each record is replayed through :meth:`JournalState.apply`; the
    first invalid one — torn tail, bad checksum, sequence gap, or
    trailing bytes without a newline — ends the replay, and the log is
    truncated to its last valid byte for the resumed writer. Raising
    leaves every file as found.
    """
    path = Path(path)
    if not path.is_dir():
        raise JournalError(f"no journal directory at {path}")
    wal = path / WAL_FILE
    state, last_seq, offset, blacklist = _read_snapshot(path)
    # Each attempt's job name is the done set's string, not a copy.
    strings = {name: name for name in state.done}
    attempts: list[JobAttempt] = []
    chunk: list[tuple[int, bytes]] = []
    seq = end = replayed = 0  # the next line's seq; the bytes verified
    torn = False
    try:
        fh = open(wal, "rb")
    except FileNotFoundError:
        raise JournalError(f"{wal}: no such file — no journal to recover") from None
    with fh:
        # What the snapshot vouches for: checked, and only its terminal
        # records parsed.
        for line in islice(fh, last_seq + 1):
            if not _framed_as(line, seq):
                break
            body = line.find(b",", 24) + 1  # after '{"crc":"…","seq":N,'
            if line.startswith(_TERMINAL_HEADS, body):
                chunk.append((seq + 1, b"{" + line[body:-1]))
                if len(chunk) == _PARSE_CHUNK:
                    attempts += _parse_attempts(chunk, wal, strings)
                    chunk = []
            end += len(line)
            seq += 1
        if seq <= last_seq:
            raise JournalError(
                f"{wal}:{seq + 1}: not journal record seq {seq}, which "
                f"{SNAPSHOT_FILE} vouches for (up to seq {last_seq})"
            )
        if end != offset:
            raise JournalError(
                f"{wal}:{seq}: seq {last_seq} ends at byte {end}, but "
                f"{SNAPSHOT_FILE} says at byte {offset}"
            )
        if chunk:
            attempts += _parse_attempts(chunk, wal, strings)
        # The suffix: replayed, up to the first record that is not the
        # next one.
        for line in fh:
            data = decode_record(line) if line.endswith(b"\n") else None
            if data is None or data.pop("seq") != seq:  # as the writer applied it
                torn = True
                break
            state.apply(_share_strings(data, strings))
            if data.get("event") in _TERMINAL_TEXT:
                try:
                    attempts.append(JobAttempt.from_json(data))
                except _NOT_AN_ATTEMPT as exc:
                    raise JournalError(
                        f"{wal}:{seq + 1}: not an attempt record: {exc!r}"
                    ) from None
            end += len(line)
            seq += 1
            replayed += 1
    if torn:
        os.truncate(wal, end)
    state.records_total = len(attempts)
    return RecoveredState(
        path=path,
        state=state,
        blacklist=blacklist,
        last_seq=seq - 1,
        torn_tail=torn,
        replayed=replayed,
        attempts=attempts,
    )


# -- local-backend reconciliation ----------------------------------------


@dataclass
class ReconcileReport:
    """What happened to the crashed manager's processes on resume."""

    manager_pid: int | None
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
    alive: Callable[[int], bool] | None = None,
) -> ReconcileReport:
    """Refuse-or-requeue after a manager crash.

    The journal records the manager PID (each writer's header record). On resume:
    if the old manager is *still alive*, raise — resuming would
    double-run the workflow. If it is dead, report the in-flight jobs
    the resumed scheduler will requeue. ``alive`` is injectable for
    tests.
    """
    alive_fn = alive if alive is not None else _pid_alive
    state = recovered.state
    manager = state.manager_pid
    if manager is not None and manager != os.getpid() and alive_fn(manager):
        raise JournalError(
            f"journal {recovered.path} belongs to a live manager "
            f"(pid {manager}); resuming now would run the workflow twice"
        )
    return ReconcileReport(
        manager_pid=manager,
        requeued=sorted(state.in_flight),
    )
