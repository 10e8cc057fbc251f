"""Tests for the streaming atomic-write path (`atomic_open`).

The satellite guarantees: writers stream instead of buffering whole
files, a failed write never clobbers (or half-writes) the destination,
no temp files are left behind, and `.gz` destinations are finalised
(valid gzip trailer) before the rename.
"""

import gzip

import pytest

from repro.bio.fasta import FastaRecord, read_fasta, write_fasta
from repro.blast.tabular import TabularHit, read_tabular, write_tabular
from repro.util.iolib import atomic_open, atomic_write


def leftovers(tmp_path):
    """Hidden temp files left in the directory (should always be [])."""
    return [p.name for p in tmp_path.iterdir() if p.name.startswith(".")]


class TestAtomicOpen:
    def test_streaming_roundtrip(self, tmp_path):
        p = tmp_path / "out.txt"
        with atomic_open(p) as fh:
            for i in range(1000):
                fh.write(f"line {i}\n")
        assert p.read_text().splitlines()[999] == "line 999"
        assert leftovers(tmp_path) == []

    def test_gz_trailer_finalised(self, tmp_path):
        p = tmp_path / "out.txt.gz"
        with atomic_open(p) as fh:
            fh.write("payload " * 1000)
        # A missing trailer would raise on full decompression.
        assert gzip.decompress(p.read_bytes()).decode() == "payload " * 1000

    def test_error_leaves_destination_untouched(self, tmp_path):
        p = tmp_path / "out.txt"
        p.write_text("original")
        with pytest.raises(RuntimeError):
            with atomic_open(p) as fh:
                fh.write("partial garbage")
                raise RuntimeError("boom")
        assert p.read_text() == "original"
        assert leftovers(tmp_path) == []

    def test_error_before_first_write(self, tmp_path):
        p = tmp_path / "never.txt"
        with pytest.raises(RuntimeError):
            with atomic_open(p):
                raise RuntimeError("boom")
        assert not p.exists()
        assert leftovers(tmp_path) == []

    def test_creates_parent_dirs(self, tmp_path):
        p = tmp_path / "a" / "b" / "c.txt"
        with atomic_open(p) as fh:
            fh.write("deep")
        assert p.read_text() == "deep"

    def test_no_partial_visibility(self, tmp_path):
        # The destination must not exist until the handle closes cleanly.
        p = tmp_path / "late.txt"
        with atomic_open(p) as fh:
            fh.write("x" * 10_000)
            fh.flush()
            assert not p.exists()
        assert p.exists()


class TestAtomicWrite:
    def test_text_and_bytes(self, tmp_path):
        assert (atomic_write(tmp_path / "t.txt", "hi")).read_text() == "hi"
        assert (atomic_write(tmp_path / "b.bin", b"\x00\x01")).read_bytes() == b"\x00\x01"
        assert leftovers(tmp_path) == []

    def test_overwrites_atomically(self, tmp_path):
        p = tmp_path / "x.txt"
        atomic_write(p, "one")
        atomic_write(p, "two")
        assert p.read_text() == "two"


class TestWritersStream:
    """The FASTA/tabular path-writers route through atomic_open."""

    def test_failed_fasta_write_preserves_old_file(self, tmp_path):
        p = tmp_path / "t.fasta"
        write_fasta(p, [FastaRecord(id="ok", seq="ACGT")])

        def records():
            yield FastaRecord(id="first", seq="AC")
            raise RuntimeError("mid-stream failure")

        with pytest.raises(RuntimeError):
            write_fasta(p, records())
        assert [r.id for r in read_fasta(p)] == ["ok"]
        assert leftovers(tmp_path) == []

    def test_tabular_gz_roundtrip_via_atomic_open(self, tmp_path):
        hit = TabularHit(
            qseqid="t1", sseqid="p1", pident=98.0, length=50, mismatch=1,
            gapopen=0, qstart=1, qend=150, sstart=1, send=50,
            evalue=1e-30, bitscore=99.5,
        )
        p = tmp_path / "a.out.gz"
        assert write_tabular(p, [hit]) == 1
        assert [h.format() for h in read_tabular(p)] == [hit.format()]
        assert leftovers(tmp_path) == []


def _attempt(job, *, error=None):
    from repro.dagman.events import JobAttempt, JobStatus

    return JobAttempt(job, "t", "s", "m", 1, 0.0, 1.0, 2.0, 3.0,
                      JobStatus.SUCCEEDED, error=error)


def _spans(last_end):
    from repro.observe.trace import Span

    return [
        Span(f"s{i}", "run", "ab" * 16, f"{i:016x}", None, float(i),
             end=float(i) + 0.5 if i < 3 else last_end,
             attributes={"job": f"j{i}"})
        for i in range(4)
    ]


def _otlp(path, bad):
    from repro.observe.trace import write_otlp_trace

    # An infinite time has no nanosecond count: the last span refuses.
    write_otlp_trace(path, _spans(float("inf") if bad else 4.0))


def _perfetto(path, bad):
    from repro.observe.trace import write_perfetto_trace

    write_perfetto_trace(path, _spans(float("inf") if bad else 4.0))


def _records(bad):
    # An error the encoder cannot spell fails the last record only.
    return [_attempt(f"j{i}") for i in range(3)] + [
        _attempt("j9", error=object() if bad else "lost")
    ]


def _chrome(path, bad):
    from repro.dagman.events import WorkflowTrace
    from repro.observe.chrome_trace import write_chrome_trace

    write_chrome_trace(path, WorkflowTrace(_records(bad)))


def _trace_jsonl(path, bad):
    from repro.wms.monitor import write_trace

    write_trace(path, _records(bad))


def _utilization(path, bad):
    from repro.observe.sampler import UtilizationSample
    from repro.wms.monitor import write_utilization

    samples = [UtilizationSample(60.0 * i, i, 3 - i) for i in range(3)]
    write_utilization(path, samples + [UtilizationSample("x" if bad else 180.0, 0, 3)])


def _events(path, bad):
    from repro.observe.events import EventKind, RunEvent
    from repro.observe.log import write_events

    write_events(path, [
        RunEvent(EventKind.FAULT, float(i), f"j{i}",
                 detail={"x": object() if bad and i == 3 else i})
        for i in range(4)
    ])


class TestStreamedArtefacts:
    """Each run-sized artefact writer prints into ``atomic_open`` record
    by record, so a record that raises comes after others were written
    to the temp file: the previous file must survive byte for byte."""

    @pytest.mark.parametrize(
        "write",
        [_otlp, _perfetto, _chrome, _trace_jsonl, _utilization, _events],
        ids=lambda write: write.__name__.lstrip("_"),
    )
    def test_raise_mid_stream_keeps_previous_file(self, tmp_path, write):
        p = tmp_path / "artefact"
        write(p, bad=False)
        before = p.read_bytes()
        with pytest.raises((OverflowError, TypeError, ValueError)):
            write(p, bad=True)
        assert p.read_bytes() == before
        assert leftovers(tmp_path) == []
