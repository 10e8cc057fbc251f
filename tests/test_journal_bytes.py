"""The journal handles bytes: its codec against the parse-and-
re-serialise reference, and recovery against damaged directories.

``tests/oracles/journal_reference.py`` holds the decoder and the trace
path the journal had before it checked the CRC over the line's own
bytes. The properties here say the new read path accepts a subset of
what the reference accepts, with equal results wherever both accept,
and that ``recover()`` facing a damaged directory either returns a
prefix of the clean recovery or raises ``JournalError`` with every file
as it found it — never a traceback, never a wiped log.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import shutil
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observe.bus import EventBus
from repro.observe.log import compact_json
from repro.resilience import CrashFault, CrashInjected
from repro.resilience import journal as journal_module
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
from tests.test_journal import _write_attempts, vouched_records

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
    row: chaos on the grid, a snapshot at seq 47, the log's suffix past
    it ending in a torn record, one attempt left undecided. Tests that
    recover it copy it first: recovery cuts the torn tail."""
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
    def _check(self, journal: Path, tmp_path: Path):
        shutil.copytree(journal, tmp_path / "copy")
        recovered = recover(tmp_path / "copy")
        assert recovered.replayed > 0
        records = vouched_records(recovered)
        assert len(recovered.attempts) == recovered.state.records_total
        assert recovered.state.records_total == len(records)
        want = trace_reference(records)
        assert recovered.trace().attempts == want.attempts
        return recovered

    def test_osg_chaos(self, crashed, tmp_path):
        recovered = self._check(crashed / "journal", tmp_path)
        assert {a.status.value for a in recovered.trace()} >= {
            "succeeded", "failed"
        }
        # the undecided attempt comes back through the attempt codec
        (job,) = recovered.state.undecided
        record = recovered.scheduler_restore().undecided[job]
        assert record == trace_reference(
            [compact_json(recovered.state.undecided[job])]
        ).attempts[0]

    def test_attempts_share_their_repeating_strings(self, crashed, tmp_path):
        # the attempts before the snapshot and the replayed ones alike:
        # an equal job name, transformation, site, machine or profile
        # source is one object, and a done job's name is the done set's
        recovered = self._check(crashed / "journal", tmp_path)
        for get in (
            lambda a: a.job_name, lambda a: a.transformation,
            lambda a: a.site, lambda a: a.machine,
            lambda a: a.profile.source if a.profile else None,
        ):
            values = [get(a) for a in recovered.attempts]
            assert len({id(v) for v in values}) == len(set(values))
        done = {name: name for name in recovered.state.done}
        assert done and all(
            a.job_name is done[a.job_name]
            for a in recovered.attempts if a.job_name in done
        )

    def test_sandhills(self, tmp_path):
        submit, journal = str(tmp_path / "s"), tmp_path / "j"
        assert _quiet(main_plan, ["--submit-dir", submit, "-n", "12",
                                  "--site", "sandhills"]) == 0
        assert _quiet(main_run, [
            "--submit-dir", submit, "--journal", str(journal),
            "--journal-snapshot-every", "16", "--crash-at-record", "40",
            "--crash-mode", "raise",
        ]) == 3
        self._check(journal, tmp_path)

    def test_service(self, tmp_path):
        bus = EventBus()
        Journal(
            tmp_path / "j", bus=bus, snapshot_every=40,
            crash=CrashFault(90, mode="raise"),
        )
        spec = LoadSpec(tenants=2, workflows_per_tenant=2,
                        jobs_per_workflow=12, workflows_per_minute=6.0)
        with pytest.raises(CrashInjected):
            run_load(spec, backend="cluster", seed=3, bus=bus)
        self._check(tmp_path / "j", tmp_path)


# ---------------------------------------------------------------------------
# Recovery refuses what it cannot anchor (and says so in one line)
# ---------------------------------------------------------------------------


def _version_1(journal: Path) -> None:
    """Turn ``journal`` into what the previous layout held at the same
    point: ``snapshot.json`` version 1 (unframed, with a count of
    sidecar lines), the terminal records up to it in ``records.jsonl``
    and the log's suffix in a numbered segment."""
    wal = journal / "wal.jsonl"
    lines = wal.read_bytes().splitlines(keepends=True)
    snap = decode_record((journal / "snapshot.json").read_bytes())
    seq = snap["seq"]
    bodies = [
        b"{" + line[line.find(b",", 24) + 1 :]
        for line in lines[: seq + 1]
        if b'"event":"job.finish"' in line or b'"event":"job.evict"' in line
    ]
    (journal / "records.jsonl").write_bytes(b"".join(bodies))
    (journal / "wal-00000003.jsonl").write_bytes(b"".join(lines[seq + 1 :]))
    wal.unlink()
    (journal / "snapshot.json").write_text(json.dumps({
        "version": 1, "seq": seq, "segment": 3, "state": snap["state"],
        "records_in_file": len(bodies), "blacklist": snap["blacklist"],
    }))


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
    # What ``include_records`` once wrote: the terminal records inside
    # the snapshot instead of a count of sidecar lines.
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


_VERSION_1 = r"snapshot\.json: a version-1 journal; this repro reads version 2"
#: Damage to a directory of the previous layout: what it refused then,
#: it is refused for now by its version (or, with no snapshot to name
#: one, for holding no ``wal.jsonl``), never read as an empty journal.
DAMAGE = {
    "short-sidecar": (_drop_last_vouched_line, _VERSION_1),
    "flipped-snapshot": (_flip_first_snapshot_byte,
                         r"wal\.jsonl: no such file — no journal to recover"),
    "misshapen-snapshot": (_misshapen_snapshot, _VERSION_1),
    "inlined-records": (_inlined_records, _VERSION_1),
    "non-utf8-sidecar": (_non_utf8_sidecar_byte, _VERSION_1),
    "garbage-sidecar": (_garbage_sidecar_line, _VERSION_1),
}


def _resume_refused(run: Path, capsys) -> str:
    """``repro-run --resume`` of ``run/journal``: exit 2, nothing on
    stdout, one line on stderr (returned), every journal file as it
    was."""
    journal = run / "journal"
    before = _files(journal)
    capsys.readouterr()
    code = main_run(["--submit-dir", str(run / "submit"), "--resume", str(journal)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("cannot resume: ")
    assert _files(journal) == before
    return line


class TestRefusesTheUnanchored:
    """A journal directory of the previous layout (rotated segments, a
    ``records.jsonl`` sidecar, an unframed version-1 snapshot), damaged
    or not, is refused with one line and left as found."""

    @pytest.mark.parametrize("name", sorted(DAMAGE))
    def test_recover_raises_and_touches_nothing(self, crashed, tmp_path, name):
        damage, message = DAMAGE[name]
        journal = tmp_path / "journal"
        shutil.copytree(crashed / "journal", journal)
        _version_1(journal)
        damage(journal)
        before = _files(journal)
        with pytest.raises(JournalError, match=message):
            recover(journal)
        assert _files(journal) == before

    @pytest.mark.parametrize("name", sorted(DAMAGE))
    def test_resume_exits_2_with_one_line(self, crashed, tmp_path, capsys, name):
        shutil.copytree(crashed, tmp_path / "run")
        _version_1(tmp_path / "run" / "journal")
        DAMAGE[name][0](tmp_path / "run" / "journal")
        _resume_refused(tmp_path / "run", capsys)

    def test_pre_change_directory_names_its_version(self, crashed, tmp_path, capsys):
        shutil.copytree(crashed, tmp_path / "run")
        _version_1(tmp_path / "run" / "journal")
        line = _resume_refused(tmp_path / "run", capsys)
        assert re.search(_VERSION_1, line), line
        assert "version-1" in line

    def test_clean_directory_still_resumes(self, crashed, tmp_path):
        shutil.copytree(crashed, tmp_path / "run")
        args = [a if a != "journal" else str(tmp_path / "run" / "journal")
                for a in SCENARIOS["osg-crash-resume"][1]]
        assert _quiet(main_run, [
            "--submit-dir", str(tmp_path / "run" / "submit"), "--seed", "0",
            *args,
        ]) == 0
        assert sorted(_files(tmp_path / "run" / "journal")) == [
            "snapshot.json", "wal.jsonl"
        ]

    def _segment_only(self, directory: Path) -> Path:
        """A never-compacted journal of the previous layout: one
        segment, no snapshot, no sidecar."""
        _write_attempts(directory)
        seg = directory / "wal-00000000.jsonl"
        (directory / "wal.jsonl").rename(seg)
        return seg

    def test_unreadable_first_record_without_snapshot(self, tmp_path):
        seg = self._segment_only(tmp_path)
        seg.write_bytes(seg.read_bytes().replace(b'"journal/open"',
                                                 b'"journal/0pen"', 1))
        before = _files(tmp_path)
        with pytest.raises(JournalError, match=r"wal\.jsonl: no such file"):
            recover(tmp_path)
        assert _files(tmp_path) == before

    def test_lost_first_segment_without_snapshot(self, tmp_path):
        seg = self._segment_only(tmp_path)
        seg.write_bytes(b"".join(seg.read_bytes().splitlines(keepends=True)[1:]))
        before = _files(tmp_path)
        with pytest.raises(JournalError, match=r"wal\.jsonl: no such file"):
            recover(tmp_path)
        assert _files(tmp_path) == before


def _vouched_end(journal: Path) -> tuple[int, int]:
    """The snapshot's seq, and its byte offset in the log."""
    snap = decode_record((journal / "snapshot.json").read_bytes())
    return snap["seq"], snap["offset"]


def _cut_inside_the_snapshot(journal: Path) -> str:
    seq, offset = _vouched_end(journal)
    wal = journal / "wal.jsonl"
    wal.write_bytes(wal.read_bytes()[: offset - 1])  # seq 47 loses its newline
    return rf"wal\.jsonl:{seq + 1}: not journal record seq {seq}, which snapshot\.json"


def _flip_a_vouched_bit(journal: Path) -> str:
    wal = journal / "wal.jsonl"
    raw = bytearray(wal.read_bytes())
    raw[raw.index(b"\n") + 30] ^= 0x04  # inside line 2
    wal.write_bytes(bytes(raw))
    return r"wal\.jsonl:2: not journal record seq 1, which snapshot\.json"


def _garbage_vouched_line(journal: Path) -> str:
    wal = journal / "wal.jsonl"
    lines = wal.read_bytes().splitlines(keepends=True)
    lines[2] = b"x" * (len(lines[2]) - 1) + b"\n"
    wal.write_bytes(b"".join(lines))
    return r"wal\.jsonl:3: not journal record seq 2, which snapshot\.json"


def _non_utf8_vouched_byte(journal: Path) -> str:
    wal = journal / "wal.jsonl"
    raw = bytearray(wal.read_bytes())
    raw[raw.index(b"\n") + 40] = 0xFF  # inside line 2
    wal.write_bytes(bytes(raw))
    return r"wal\.jsonl:2: not journal record seq 1, which snapshot\.json"


def _lost_log(journal: Path) -> str:
    (journal / "wal.jsonl").unlink()
    return r"wal\.jsonl: no such file"


#: Damage to the log before the snapshot's offset -> what the refusal says.
BEFORE_THE_SNAPSHOT = {
    "cut": _cut_inside_the_snapshot,
    "flipped-bit": _flip_a_vouched_bit,
    "garbage-line": _garbage_vouched_line,
    "non-utf8": _non_utf8_vouched_byte,
    "lost-log": _lost_log,
}


class TestRefusesDamageBeforeTheSnapshot:
    """What ``snapshot.json`` vouches for must be in the log, whole: a
    line before its offset that is damaged or gone is one
    ``…/wal.jsonl:LINE:`` refusal, every file left as found."""

    @pytest.mark.parametrize("name", sorted(BEFORE_THE_SNAPSHOT))
    def test_recover_raises_and_touches_nothing(self, crashed, tmp_path, name):
        journal = tmp_path / "journal"
        shutil.copytree(crashed / "journal", journal)
        message = BEFORE_THE_SNAPSHOT[name](journal)
        before = _files(journal)
        with pytest.raises(JournalError, match=message):
            recover(journal)
        assert _files(journal) == before

    @pytest.mark.parametrize("name", sorted(BEFORE_THE_SNAPSHOT))
    def test_resume_exits_2_with_one_line(self, crashed, tmp_path, capsys, name):
        shutil.copytree(crashed, tmp_path / "run")
        message = BEFORE_THE_SNAPSHOT[name](tmp_path / "run" / "journal")
        assert re.search(message, _resume_refused(tmp_path / "run", capsys))

    def test_a_log_of_another_run_is_refused(self, crashed, tmp_path):
        # Every line whole, but not the bytes the snapshot vouches for.
        journal = tmp_path / "journal"
        shutil.copytree(crashed / "journal", journal)
        seq, offset = _vouched_end(journal)
        lines = (journal / "wal.jsonl").read_bytes().splitlines(keepends=True)
        body = json.loads(b"{" + lines[seq][lines[seq].find(b",", 24) + 1 :])
        body["note"] = "longer"
        lines[seq] = journal_module._frame_record(
            seq, compact_json(body).encode()
        )
        (journal / "wal.jsonl").write_bytes(b"".join(lines))
        with pytest.raises(JournalError, match=rf"wal\.jsonl:{seq + 1}: seq {seq} "
                           rf"ends at byte \d+, but snapshot\.json says at byte {offset}"):
            recover(journal)

    def test_without_a_snapshot_a_bad_first_line_is_the_torn_tail(self, tmp_path):
        # Nothing vouches for the log: the first bad line ends it, here
        # the first, and the resumed run starts from nothing.
        _write_attempts(tmp_path)
        wal = tmp_path / "wal.jsonl"
        wal.write_bytes(wal.read_bytes().replace(b'"journal/open"',
                                                 b'"journal/0pen"', 1))
        got = recover(tmp_path)
        assert (got.last_seq, got.replayed, got.torn_tail) == (-1, 0, True)
        assert not got.done and wal.read_bytes() == b""


# ---------------------------------------------------------------------------
# A resume never rewrites what the snapshot vouches for
# ---------------------------------------------------------------------------


class _HalfWrites:
    """A log whose writes land half their bytes and then fail, as when
    the writer dies inside one."""

    def __init__(self, fh) -> None:
        self._fh = fh

    def write(self, data: bytes):
        self._fh.write(data[: len(data) // 2])
        self._fh.flush()
        raise OSError(28, "No space left on device")

    def __getattr__(self, name):
        return getattr(self._fh, name)


class TestResumeKeepsTheVouchedSidecar:
    """The terminal records a resume must keep are the log's own lines:
    a resume appends after them and never rewrites them. (These held
    the ``records.jsonl`` sidecar that once copied them.)"""

    def test_a_resume_dying_in_its_sidecar_write_loses_nothing(
        self, crashed, tmp_path, monkeypatch
    ):
        journal = tmp_path / "journal"
        shutil.copytree(crashed / "journal", journal)
        before = recover(journal)
        vouched = (journal / "wal.jsonl").read_bytes()
        opened = []

        def log_dies(file, mode="r", *args, **kwargs):
            fh = open(file, mode, *args, **kwargs)
            if Path(file).name != "wal.jsonl":
                return fh
            opened.append(fh)
            return _HalfWrites(fh)

        monkeypatch.setattr(journal_module, "open", log_dies, raising=False)
        with pytest.raises(OSError, match="No space"):
            Journal(journal, resume=before)
        monkeypatch.undo()
        for fh in opened:
            fh.close()
        # half a header past the vouched bytes: a torn tail
        assert (journal / "wal.jsonl").read_bytes().startswith(vouched)
        after = recover(journal)
        assert after.torn_tail
        assert after.done == before.done
        assert after.attempts == before.attempts
        assert (journal / "wal.jsonl").read_bytes() == vouched
        # and the next resume still goes through
        Journal(journal, resume=after).close()
        assert recover(journal).done == before.done

    def test_lines_past_the_snapshot_give_way_to_the_replayed_ones(
        self, crashed, tmp_path
    ):
        # The log runs on past what snapshot.json vouches for, into a
        # torn record: recovery replays the whole lines, cuts the torn
        # one, and the resumed writer appends after them.
        journal = tmp_path / "journal"
        shutil.copytree(crashed / "journal", journal)
        raw = (journal / "wal.jsonl").read_bytes()
        _, offset = _vouched_end(journal)
        whole = raw[: raw.rindex(b"\n") + 1]
        assert offset < len(whole) < len(raw)
        recovered = recover(journal)
        assert recovered.replayed == whole[offset:].count(b"\n")
        Journal(journal, resume=recovered).close()
        after = (journal / "wal.jsonl").read_bytes()
        assert after.startswith(whole) and len(after) > len(whole)
        assert recover(journal).attempts == recovered.attempts


# ---------------------------------------------------------------------------
# Damage sweep over the compacted, crashed journal
# ---------------------------------------------------------------------------


class TestDamageSweep:
    """Damage to the log's *segment* past the snapshot's offset (what
    replay reads) recovers a prefix of the clean recovery, never a
    refusal; a bit flip anywhere in ``wal.jsonl`` does one or the
    other; damage to ``snapshot.json`` recovers exactly the clean state
    (replayed from seq 0)."""

    @pytest.fixture(scope="class")
    def clean(self, crashed, tmp_path_factory):
        files = _files(crashed / "journal")
        copy = tmp_path_factory.mktemp("clean") / "journal"
        shutil.copytree(crashed / "journal", copy)
        recovered = recover(copy)
        return files, recovered, vouched_records(recovered)

    def _recover_damaged(self, directory, clean, name, data):
        """``recover()`` with file ``name`` holding ``data``: the
        contract for damage to the log or the snapshot."""
        clean_files, clean_state, clean_records = clean
        files = {**clean_files, name: data}
        _restore(directory, files)
        try:
            got = recover(directory)
        except JournalError as exc:
            assert name == "wal.jsonl" and "wal.jsonl:" in str(exc)
            assert _files(directory) == files
            return None
        after = _files(directory)
        if name == "snapshot.json":  # a cache: the log alone says the same
            # (but for the blacklist, which only snapshots serialize: its
            # blocks come back from the log's records, its streaks do not)
            want = clean_state.state.to_json()
            assert {**got.state.to_json(), "blacklist_blocks": None} == {
                **want, "blacklist_blocks": None
            }
            assert got.attempts == clean_state.attempts
            assert got.last_seq == clean_state.last_seq
        else:
            assert got.done <= clean_state.done
            assert got.replayed <= clean_state.replayed
            assert got.last_seq <= clean_state.last_seq
            assert len(got.attempts) == got.state.records_total
            records = vouched_records(got)
            assert len(records) == got.state.records_total
            assert records == clean_records[: len(records)]
        # recovery cuts the log's tail and nothing else
        assert files["wal.jsonl"].startswith(after.pop("wal.jsonl"))
        assert after == {n: d for n, d in files.items() if n != "wal.jsonl"}
        return got

    def test_truncate_segment_at_every_offset(self, clean, tmp_path):
        files, clean_state, _ = clean
        whole = files["wal.jsonl"]
        _, offset = _vouched_end(clean_state.path)
        replayed = set()
        for size in range(offset, len(whole)):
            got = self._recover_damaged(
                tmp_path / "j", clean, "wal.jsonl", whole[:size]
            )
            assert got is not None  # a torn tail is never refused
            assert got.torn_tail == (whole[size - 1] != 10)
            replayed.add(got.replayed)
        assert replayed == set(range(clean_state.replayed + 1))
        # one byte short of the snapshot's offset is a refusal
        assert self._recover_damaged(
            tmp_path / "j", clean, "wal.jsonl", whole[: offset - 1]
        ) is None

    @pytest.mark.parametrize("target", ["segment", "wal.jsonl", "snapshot.json"])
    def test_flip_one_bit(self, clean, tmp_path, target):
        files, clean_state, _ = clean
        name = "wal.jsonl" if target == "segment" else target
        _, offset = _vouched_end(clean_state.path)
        start = offset if target == "segment" else 0
        rng = random.Random(0)
        outcomes = {"refused": 0, "recovered": 0}
        for _ in range(200):
            raw = bytearray(files[name])
            raw[rng.randrange(start, len(raw))] ^= 1 << rng.randrange(8)
            got = self._recover_damaged(tmp_path / "j", clean, name, bytes(raw))
            outcomes["refused" if got is None else "recovered"] += 1
        # the sweep saw both halves of the contract where both exist
        assert outcomes["recovered"] > 0
        assert (outcomes["refused"] > 0) == (target == "wal.jsonl")

    def test_garbage_line_mid_segment(self, clean, tmp_path):
        files, clean_state, _ = clean
        lines = files["wal.jsonl"].splitlines(keepends=True)
        first = clean_state.last_seq + 1 - clean_state.replayed
        for at in range(first, len(lines)):
            spliced = b"".join(lines[:at]) + b"garbage\n" + b"".join(lines[at:])
            got = self._recover_damaged(tmp_path / "j", clean, "wal.jsonl", spliced)
            assert got is not None and got.torn_tail
            assert got.replayed == at - first
