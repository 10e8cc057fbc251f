"""The journal handles bytes: its codec against the parse-and-
re-serialise reference, and recovery against damaged directories.

``tests/oracles/journal_reference.py`` holds the decoder and the trace
path the journal had before it checked the CRC over the line's own
bytes. The properties here say the new read path accepts a subset of
what the reference accepts, with equal results wherever both accept,
and that ``recover()`` facing a damaged directory either returns a
prefix of the clean recovery or raises ``JournalError`` with every file
as it found it — never a traceback, never a wiped segment.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observe.bus import EventBus
from repro.observe.log import compact_json
from repro.resilience import CrashFault, CrashInjected
from repro.resilience.journal import (
    Journal,
    JournalError,
    decode_record,
    recover,
)
from repro.service.loadgen import LoadSpec, run_load
from repro.wms.cli import main_plan, main_run
from tests.oracles.journal_reference import (
    decode_record_reference,
    encode_record,
    trace_reference,
)
from tests.oracles.journal_replay_reference import decode_record_copying
from tests.test_artefact_golden import SCENARIOS
from tests.test_journal import _write_attempts

# ---------------------------------------------------------------------------
# Codec: new decoder against the reference
# ---------------------------------------------------------------------------

_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 1e-07, 2**53 + 1, 1e22, 5e-324, ""])
    | st.text()  # non-ASCII and astral characters included
)
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
# The writer never puts the framing keys in a body.
_keys = st.text(max_size=12).filter(lambda k: k not in ("seq", "crc"))
_bodies = st.builds(
    lambda event, rest: {"event": event, **rest},
    st.sampled_from(["job.submit", "job.finish", "journal/open", "é𝄞"]),
    st.dictionaries(_keys, _values, max_size=6),
)
_seqs = st.integers(min_value=0, max_value=10**12)


def _mutations(line: bytes, at: int, byte: int | None) -> list[bytes]:
    """The deletion at ``at``, or the substitution and the insertion of
    ``byte`` there."""
    at %= len(line)
    if byte is None:
        return [line[:at] + line[at + 1 :]]
    return [
        line[:at] + bytes([byte]) + line[at + 1 :],
        line[:at] + bytes([byte]) + line[at:],
    ]


def _assert_subset(mutated: bytes) -> None:
    """Torn for the reference means torn for the decoder."""
    got = decode_record(mutated)
    if got is not None:
        want = decode_record_reference(mutated)
        assert want is not None, mutated
        assert got == want


class TestCodecAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(seq=_seqs, body=_bodies)
    def test_round_trip_equals_reference(self, seq, body):
        line = encode_record(seq, body)
        want = decode_record_reference(line)
        assert want is not None
        assert list(want) == ["seq", *body]
        for spelling in (line, line.encode(), line.rstrip("\n").encode()):
            got = decode_record(spelling)
            assert got == want
            # == cannot tell -0.0 from 0.0 or 1 from 1.0; the text can
            assert compact_json(got) == compact_json(want)

    @settings(max_examples=300, deadline=None)
    @given(
        seq=_seqs,
        body=_bodies,
        at=st.integers(min_value=0),
        byte=st.none() | st.integers(min_value=0, max_value=255),
    )
    def test_damaged_line_never_passes_alone(self, seq, body, at, byte):
        for mutated in _mutations(encode_record(seq, body).encode(), at, byte):
            _assert_subset(mutated)

    @settings(max_examples=300, deadline=None)
    @given(
        seq=_seqs,
        body=_bodies,
        at=st.integers(min_value=0),
        byte=st.none() | st.integers(min_value=0, max_value=255),
    )
    def test_chained_crc_decodes_what_the_copying_one_did(self, seq, body, at, byte):
        """Chaining the CRC over the line and calling the scanner
        directly move no verdict and no value, whole or damaged; the one
        difference is the bool seq the copying decoder let through."""
        line = encode_record(seq, body).encode()
        for candidate in (line, *_mutations(line, at, byte)):
            got, want = decode_record(candidate), decode_record_copying(candidate)
            if want is not None and type(want["seq"]) is bool:
                assert got is None
                continue
            assert got == want
            if got is not None:
                assert compact_json(got) == compact_json(want)

    def test_every_single_byte_change_of_a_terminal_line(self):
        line = encode_record(
            58,
            {
                "event": "job.finish", "t": 3768.245375712837,
                "job_name": "run_cap3_1", "site": "ucsd-t2", "attempt": 1,
                "exec_end": 1e-07, "status": "failed",
                "error": "café \U0001d11e \"quoted\"", "detail": [],
            },
        ).encode()
        accepted = 0
        for at in range(len(line)):
            for byte in (None, *range(256)):
                for mutated in _mutations(line, at, byte):
                    _assert_subset(mutated)
                    accepted += decode_record(mutated) is not None
        # What survives: the untouched line (each byte substituted by
        # itself), the line without its newline, and with two of them.
        assert accepted == len(line) + 2

    def test_respaced_line_is_torn_now(self):
        # The deliberate tightening: the CRC is over the line's bytes,
        # not over the compact form of whatever the line parses to.
        line = encode_record(3, {"event": "job.submit", "job_name": "a"})
        respaced = json.dumps(json.loads(line))
        assert decode_record_reference(respaced) is not None
        assert decode_record(respaced) is None
        assert decode_record(line.replace("\n", "\r\n")) is None

    def test_not_a_record(self):
        for junk in (b"", b"{", b'{"crc":"00000000","seq":', "\udc80", b"\xff"):
            assert decode_record(junk) is None
        # A matching CRC over something that is not one JSON object
        # with an integer seq is still not a record; a bool is not an
        # integer seq, though isinstance(True, int) holds.
        for body in (b'{"seq":1.5}', b'{"seq":"7"}', b'{"seq":1}x', b'{"seq":1',
                     b'{"seq":true,"event":"x"}', b'{"seq":false}'):
            line = b'{"crc":"%08x",' % zlib.crc32(body) + body[1:]
            assert decode_record(line) is None
            assert decode_record_reference(line) is None
            if b"true" not in body and b"false" not in body:
                assert decode_record_copying(line) is None


# ---------------------------------------------------------------------------
# Recorded journals: one compacted and crashed, per platform
# ---------------------------------------------------------------------------


def _quiet(fn, argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return fn(argv)


@pytest.fixture(scope="module")
def crashed(tmp_path_factory) -> Path:
    """``submit/`` and ``journal/`` of the golden table's ``osg-crash``
    row: chaos on the grid, a snapshot, a sidecar, a WAL suffix ending
    in a torn record, one attempt left undecided."""
    root = tmp_path_factory.mktemp("crashed")
    submit, journal = str(root / "submit"), str(root / "journal")
    assert _quiet(main_plan, ["--submit-dir", submit, "-n", "12",
                              "--site", "osg"]) == 0
    args = [a if a != "journal" else journal for a in SCENARIOS["osg-crash"][1]]
    assert _quiet(main_run, ["--submit-dir", submit, "--seed", "0", *args]) == 3
    return root


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _restore(directory: Path, files: dict[str, bytes]) -> None:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    for name, data in files.items():
        (directory / name).write_bytes(data)


class TestTraceAgainstReference:
    def _check(self, journal: Path):
        recovered = recover(journal, repair=False)
        assert recovered.replayed > 0 and recovered.state.records
        assert len(recovered.attempts) == len(recovered.state.records)
        want = trace_reference(recovered.state.records)
        assert recovered.trace().attempts == want.attempts
        return recovered

    def test_osg_chaos(self, crashed):
        recovered = self._check(crashed / "journal")
        assert {a.status.value for a in recovered.trace()} >= {
            "succeeded", "failed"
        }
        # the undecided attempt comes back through the attempt codec
        (job,) = recovered.state.undecided
        record = recovered.scheduler_restore().undecided[job]
        assert record == trace_reference(
            [compact_json(recovered.state.undecided[job])]
        ).attempts[0]

    def test_sandhills(self, tmp_path):
        submit, journal = str(tmp_path / "s"), tmp_path / "j"
        assert _quiet(main_plan, ["--submit-dir", submit, "-n", "12",
                                  "--site", "sandhills"]) == 0
        assert _quiet(main_run, [
            "--submit-dir", submit, "--journal", str(journal),
            "--journal-snapshot-every", "16", "--crash-at-record", "40",
            "--crash-mode", "raise",
        ]) == 3
        self._check(journal)

    def test_service(self, tmp_path):
        bus = EventBus()
        Journal(
            tmp_path, bus=bus, snapshot_every=40,
            crash=CrashFault(90, mode="raise"),
        )
        spec = LoadSpec(tenants=2, workflows_per_tenant=2,
                        jobs_per_workflow=12, workflows_per_minute=6.0)
        with pytest.raises(CrashInjected):
            run_load(spec, backend="cluster", seed=3, bus=bus)
        self._check(tmp_path)


# ---------------------------------------------------------------------------
# Recovery refuses what it cannot anchor (and says so in one line)
# ---------------------------------------------------------------------------


def _drop_last_vouched_line(journal: Path) -> None:
    wanted = json.loads((journal / "snapshot.json").read_text())[
        "records_in_file"
    ]
    sidecar = journal / "records.jsonl"
    lines = sidecar.read_bytes().splitlines(keepends=True)
    sidecar.write_bytes(b"".join(lines[: wanted - 1]))


def _flip_first_snapshot_byte(journal: Path) -> None:
    snap = journal / "snapshot.json"
    snap.write_bytes(b"[" + snap.read_bytes()[1:])


def _misshapen_snapshot(journal: Path) -> None:
    snap = journal / "snapshot.json"
    body = json.loads(snap.read_text())
    body["state"]["attempts"]["split"] = None  # right keys, wrong shape
    snap.write_text(json.dumps(body))


def _inlined_records(journal: Path) -> None:
    # What PR 18's ``include_records`` wrote last: the terminal records
    # inside the snapshot instead of a count of sidecar lines.
    snap = journal / "snapshot.json"
    body = json.loads(snap.read_text())
    wanted = body.pop("records_in_file")
    lines = (journal / "records.jsonl").read_text().splitlines()[:wanted]
    body["state"]["records"] = [json.loads(line) for line in lines]
    snap.write_text(json.dumps(body))


def _non_utf8_sidecar_byte(journal: Path) -> None:
    sidecar = journal / "records.jsonl"
    raw = bytearray(sidecar.read_bytes())
    raw[raw.index(b"\n") + 40] = 0xFF  # inside vouched line 2
    sidecar.write_bytes(bytes(raw))


def _garbage_sidecar_line(journal: Path) -> None:
    sidecar = journal / "records.jsonl"
    lines = sidecar.read_bytes().splitlines(keepends=True)
    lines[2] = b"x" * (len(lines[2]) - 1) + b"\n"
    sidecar.write_bytes(b"".join(lines))


DAMAGE = {
    "short-sidecar": (_drop_last_vouched_line, r"wal-\d+\.jsonl: .*seq 48.*"
                      r"records\.jsonl holds 10 of the 11 line"),
    "flipped-snapshot": (_flip_first_snapshot_byte, r"wal-\d+\.jsonl: .*seq 48"
                         r".*snapshot\.json is not a version-1 snapshot"),
    "misshapen-snapshot": (_misshapen_snapshot, r"wal-\d+\.jsonl: .*seq 48"
                           r".*snapshot\.json is not a version-1 snapshot"),
    "inlined-records": (_inlined_records, r"wal-\d+\.jsonl: .*seq 48"
                        r".*snapshot\.json is not a version-1 snapshot"),
    "non-utf8-sidecar": (_non_utf8_sidecar_byte, r"records\.jsonl:2: not an "
                         r"attempt record"),
    "garbage-sidecar": (_garbage_sidecar_line, r"records\.jsonl:3: not an "
                        r"attempt record"),
}


class TestRefusesTheUnanchored:
    @pytest.mark.parametrize("name", sorted(DAMAGE))
    def test_recover_raises_and_touches_nothing(self, crashed, tmp_path, name):
        damage, message = DAMAGE[name]
        journal = tmp_path / "journal"
        shutil.copytree(crashed / "journal", journal)
        damage(journal)
        before = _files(journal)
        with pytest.raises(JournalError, match=message):
            recover(journal)
        assert _files(journal) == before

    @pytest.mark.parametrize("name", sorted(DAMAGE))
    def test_resume_exits_2_with_one_line(self, crashed, tmp_path, capsys, name):
        shutil.copytree(crashed, tmp_path / "run")
        journal = tmp_path / "run" / "journal"
        DAMAGE[name][0](journal)
        before = _files(journal)
        capsys.readouterr()
        code = main_run([
            "--submit-dir", str(tmp_path / "run" / "submit"),
            "--resume", str(journal),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("cannot resume: ")
        assert _files(journal) == before

    def test_clean_directory_still_resumes(self, crashed, tmp_path):
        shutil.copytree(crashed, tmp_path / "run")
        args = [a if a != "journal" else str(tmp_path / "run" / "journal")
                for a in SCENARIOS["osg-crash-resume"][1]]
        assert _quiet(main_run, [
            "--submit-dir", str(tmp_path / "run" / "submit"), "--seed", "0",
            *args,
        ]) == 0

    def test_unreadable_first_record_without_snapshot(self, tmp_path):
        # Never compacted: nothing but the WAL, and its first line is
        # damaged. Cutting there would delete the whole history.
        _write_attempts(tmp_path)
        seg = next(tmp_path.glob("wal-*.jsonl"))
        seg.write_bytes(seg.read_bytes().replace(b'"journal/open"',
                                                 b'"journal/0pen"', 1))
        before = _files(tmp_path)
        with pytest.raises(JournalError, match=r"jsonl:1: not a journal record"):
            recover(tmp_path)
        assert _files(tmp_path) == before

    def test_lost_first_segment_without_snapshot(self, tmp_path):
        _write_attempts(tmp_path)
        seg = next(tmp_path.glob("wal-*.jsonl"))
        seg.write_bytes(b"".join(seg.read_bytes().splitlines(keepends=True)[1:]))
        before = _files(tmp_path)
        with pytest.raises(JournalError, match="seq 1, but there is no snapshot"):
            recover(tmp_path)
        assert _files(tmp_path) == before


# ---------------------------------------------------------------------------
# Damage sweep over the compacted, crashed journal
# ---------------------------------------------------------------------------


class TestDamageSweep:
    @pytest.fixture(scope="class")
    def clean(self, crashed):
        files = _files(crashed / "journal")
        return files, recover(crashed / "journal", repair=False)

    @staticmethod
    def _segment(files: dict[str, bytes]) -> str:
        (name,) = (n for n in files if n.startswith("wal-"))
        return name

    def _recover_damaged(self, directory, clean, name, data):
        """``recover()`` with file ``name`` holding ``data``: the
        contract for damage to the segment or the sidecar, and the
        weaker one for the snapshot, which no checksum covers."""
        clean_files, clean_state = clean
        files = {**clean_files, name: data}
        segment = self._segment(files)
        _restore(directory, files)
        try:
            got = recover(directory)
        except JournalError:
            assert _files(directory) == files
            return None
        after = _files(directory)
        if name == "snapshot.json":
            assert after[segment], "recovery emptied the segment"
        else:
            assert got.done <= clean_state.done
            assert got.replayed <= clean_state.replayed
            assert got.last_seq <= clean_state.last_seq
            assert len(got.attempts) == len(got.state.records)
        if name == segment:
            records = clean_state.state.records
            assert got.state.records == records[: len(got.state.records)]
        # repair cuts the segment's tail and nothing else
        assert files[segment].startswith(after.pop(segment))
        assert after == {n: d for n, d in files.items() if n != segment}
        return got

    def test_truncate_segment_at_every_offset(self, clean, tmp_path):
        files, clean_state = clean
        segment = self._segment(files)
        whole = files[segment]
        replayed = set()
        for size in range(len(whole)):
            got = self._recover_damaged(
                tmp_path / "j", clean, segment, whole[:size]
            )
            assert got is not None  # a torn tail is never refused
            assert got.torn_tail == (size > 0 and whole[size - 1] != 10)
            replayed.add(got.replayed)
        assert replayed == set(range(clean_state.replayed + 1))

    @pytest.mark.parametrize(
        "target", ["segment", "records.jsonl", "snapshot.json"]
    )
    def test_flip_one_bit(self, clean, tmp_path, target):
        files, clean_state = clean
        name = self._segment(files) if target == "segment" else target
        rng = random.Random(0)
        outcomes = {"refused": 0, "recovered": 0}
        for _ in range(200):
            raw = bytearray(files[name])
            raw[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
            got = self._recover_damaged(tmp_path / "j", clean, name, bytes(raw))
            outcomes["refused" if got is None else "recovered"] += 1
        # the sweep saw both halves of the contract where both exist
        assert outcomes["recovered"] > 0
        assert (outcomes["refused"] > 0) == (target != "segment")

    def test_garbage_line_mid_segment(self, clean, tmp_path):
        files, clean_state = clean
        segment = self._segment(files)
        lines = files[segment].splitlines(keepends=True)
        for at in range(1, len(lines)):
            spliced = b"".join(lines[:at]) + b"garbage\n" + b"".join(lines[at:])
            got = self._recover_damaged(tmp_path / "j", clean, segment, spliced)
            assert got is not None and got.torn_tail
            assert got.replayed == at
