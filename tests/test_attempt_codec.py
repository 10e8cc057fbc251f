"""The attempt record's one JSON codec and the one JSONL reader.

``JobAttempt.to_json`` / ``from_json`` is the only place the record's
JSON shape is decided; ``trace.jsonl`` lines, ``events.jsonl`` terminal
lines and journal records are renderings of it, and
``repro.observe.log.iter_events`` is the only code that reads any of
them back. These tests pin the round trips, the key order, and what the
reader does with a damaged file.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.dagman.dag import Dag, DagJob
from repro.dagman.events import JobAttempt, JobStatus, ResourceProfile
from repro.dagman.scheduler import DagmanScheduler
from repro.observe import EventBus, EventLogWriter
from repro.observe.events import attempt_events
from repro.observe.log import event_from_json, event_to_json_line, read_events
from repro.observe.report import main as main_report
from repro.sim.engine import Simulator
from repro.sim.failures import FailureModel
from repro.sim.grid import GridConfig, GridSiteConfig, OpportunisticGrid
from repro.sim.rng import RngStreams
from repro.wms.cli import main_plan, main_run, main_statistics, main_status
from repro.wms.monitor import read_trace, write_trace
from tests.oracles.journal_replay_reference import attempt_from_json_keywords

ATTEMPT_KEYS = [
    "job_name", "transformation", "site", "machine", "attempt",
    "submit_time", "setup_start", "exec_start", "exec_end", "status",
]

names = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)),
    min_size=1, max_size=12,
)
seconds = st.floats(min_value=0.0, max_value=1e7, allow_nan=False)
profiles = st.builds(
    ResourceProfile,
    cpu_user_s=seconds,
    cpu_sys_s=seconds,
    max_rss_kb=st.integers(0, 2**40),
    read_ops=st.integers(0, 2**40),
    write_ops=st.integers(0, 2**40),
    source=st.sampled_from(["measured", "modelled"]),
)


@st.composite
def attempts(draw):
    submit, *gaps = draw(st.tuples(seconds, seconds, seconds, seconds))
    setup = submit + gaps[0]
    start = setup + gaps[1]
    return JobAttempt(
        job_name=draw(names),
        transformation=draw(names),
        site=draw(names),
        machine=draw(names),
        attempt=draw(st.integers(1, 50)),
        submit_time=submit,
        setup_start=setup,
        exec_start=start,
        exec_end=start + gaps[2],
        status=draw(st.sampled_from(list(JobStatus))),
        error=draw(st.none() | names),
        profile=draw(st.none() | profiles),
    )


class TestCodecRoundTrip:
    @given(attempts())
    @settings(max_examples=200, deadline=None)
    def test_json_round_trip(self, attempt):
        wire = json.loads(json.dumps(attempt.to_json()))
        assert JobAttempt.from_json(wire) == attempt

    @given(attempts())
    @settings(max_examples=100, deadline=None)
    def test_key_order(self, attempt):
        expected = list(ATTEMPT_KEYS)
        if attempt.error:
            expected.append("error")
        if attempt.profile is not None:
            expected.append("profile")
        data = attempt.to_json()
        assert list(data) == expected
        if attempt.profile is not None:
            assert list(data["profile"]) == [
                "cpu_user_s", "cpu_sys_s", "max_rss_kb",
                "read_ops", "write_ops", "source",
            ]

    @given(attempts())
    @settings(max_examples=100, deadline=None)
    def test_events_jsonl_terminal_line_round_trip(self, attempt):
        terminal = attempt_events(attempt)[-1]
        line = event_to_json_line(terminal)
        data = json.loads(line)
        # header, then the record exactly as the codec renders it
        assert list(data) == ["event", "t", *attempt.to_json()]
        back = event_from_json(data)
        assert back == terminal and back.record == attempt

    def test_chaos_run_events_jsonl_reprints_byte_for_byte(
        self, tmp_path, capsys
    ):
        # Retries, holds, blacklisting and rescue rounds: every kind of
        # line a grid run writes, each decoded and printed again.
        d = str(tmp_path / "submit")
        assert main_plan(["--submit-dir", d, "-n", "12", "--site", "osg"]) == 0
        main_run([
            "--submit-dir", d, "--seed", "0",
            "--chaos-start-failure", "0.2", "--retry-policy", "backoff",
            "--blacklist-threshold", "2", "--max-rescue-rounds", "2",
        ])
        capsys.readouterr()
        lines = (tmp_path / "submit" / "events.jsonl").read_text().splitlines()
        assert sum('"event":"job.retry"' in line for line in lines) > 10
        for line in lines:
            assert event_to_json_line(event_from_json(json.loads(line))) == line

    @given(st.lists(attempts(), max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_trace_jsonl_line_round_trip(self, tmp_path_factory, batch):
        path = tmp_path_factory.mktemp("codec") / "trace.jsonl"
        assert write_trace(path, batch) == len(batch)
        lines = path.read_text().splitlines()
        assert lines == [json.dumps(a.to_json(), separators=(",", ":")) for a in batch]
        assert read_trace(path).attempts == batch

    @given(
        attempts(),
        st.dictionaries(
            st.sampled_from([*ATTEMPT_KEYS, "error", "profile"]),
            st.none() | st.sampled_from(
                ["exploded", "failed", JobStatus.EVICTED, 0, -1, 1.5, True, [1],
                 {"cpu_user_s": "x"}, {"max_rss_kb": -3}, {"source": None}]
            ),
            max_size=3,
        ),
        st.sets(st.sampled_from([*ATTEMPT_KEYS, "profile"]), max_size=2),
    )
    @settings(max_examples=300, deadline=None)
    def test_from_json_builds_what_the_keyword_version_built(
        self, attempt, changes, dropped
    ):
        """Positional construction and the status lookup change no
        outcome: the same record, or the same exception with the same
        arguments, for any mapping."""
        wire = {**attempt.to_json(), **changes}
        for key in dropped:
            wire.pop(key, None)
        outcomes = []
        for build in (JobAttempt.from_json, attempt_from_json_keywords):
            try:
                outcomes.append(build(wire))
            except Exception as exc:  # compared, not swallowed
                outcomes.append((type(exc), exc.args))
        assert outcomes[0] == outcomes[1]

    def test_not_an_attempt_record(self):
        good = JobAttempt(
            "j", "t", "s", "m", 1, 0.0, 1.0, 2.0, 3.0, JobStatus.SUCCEEDED
        ).to_json()
        with pytest.raises(KeyError):
            JobAttempt.from_json({k: v for k, v in good.items() if k != "site"})
        with pytest.raises(ValueError):
            JobAttempt.from_json({**good, "status": "exploded"})


def retried_osg_run(events_path):
    """split → six cap3 jobs → merge on a flaky two-site grid, streamed
    to ``events_path``; returns the scheduler's result."""
    dag = Dag()
    dag.add_job(DagJob("split", "split", runtime=120.0, retries=30))
    dag.add_job(DagJob("merge", "merge", runtime=60.0, retries=30))
    for i in range(6):
        name = f"cap3_{i}"
        dag.add_job(DagJob(name, "run_cap3", runtime=900.0 + 200 * i,
                           needs_setup=True, retries=30))
        dag.add_edge("split", name)
        dag.add_edge(name, "merge")
    bus = EventBus()
    config = GridConfig(
        sites=(GridSiteConfig("a", 3), GridSiteConfig("b", 3)),
        failures=FailureModel(
            start_failure_prob=0.25, eviction_rate_per_s=1 / 4000.0
        ),
    )
    env = OpportunisticGrid(
        Simulator(), config, streams=RngStreams(seed=5), bus=bus
    )
    with EventLogWriter(events_path, bus):
        return DagmanScheduler(dag, env, bus=bus).run()


class TestOneReaderBothFiles:
    def test_read_trace_agrees_across_files(self, tmp_path):
        events, trace = tmp_path / "events.jsonl", tmp_path / "trace.jsonl"
        result = retried_osg_run(events)
        assert result.success and result.trace.retry_count > 0
        assert {a.status for a in result.trace} > {JobStatus.SUCCEEDED}
        write_trace(trace, result.trace)
        assert read_trace(events) == read_trace(trace) == result.trace


@pytest.fixture(scope="module")
def submit_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("damaged") / "run"
    assert main_plan(["--submit-dir", str(d), "-n", "4",
                      "--site", "sandhills"]) == 0
    assert main_run(["--submit-dir", str(d), "--seed", "0"]) == 0
    return d


class TestDamagedLog:
    def test_torn_final_line_at_every_offset(self, submit_dir, tmp_path, capsys):
        # Two complete lines, then a terminal line (the longest kind:
        # header, attempt record, nested profile) cut at every byte.
        lines = (submit_dir / "events.jsonl").read_bytes().splitlines(True)
        finish = max(
            i for i, line in enumerate(lines) if b'"job.finish"' in line
        )
        whole = b"".join(lines[finish - 2:finish + 1])
        log = tmp_path / "events.jsonl"
        log.write_bytes(whole)
        complete = read_events(log)
        assert len(complete) == 3 and complete[-1].record is not None
        last = len(whole) - len(lines[finish])
        capsys.readouterr()
        for cut in range(last, len(whole)):
            log.write_bytes(whole[:cut])
            got = read_events(log)
            note = capsys.readouterr().err
            if cut == last:  # nothing of the last line made it
                assert got == complete[:-1] and note == ""
            elif cut == len(whole) - 1:  # only the newline is missing
                assert got == complete and note == ""
            else:
                assert got == complete[:-1]
                assert note.count("\n") == 1
                assert f"{log}:3: " in note

    @pytest.mark.parametrize("garbage", [
        b"\xff\xfe not even text {",
        b'{"event": "job.finish", "t": 1.0}',
        b'{"event": "no.such.kind", "t": 1.0}',
        b'{"foo": 1}',
        b"[1, 2, 3]",
    ], ids=["not-utf8", "finish-without-record", "unknown-kind",
            "no-schema", "not-an-object"])
    def test_garbage_mid_file_names_the_line(self, submit_dir, tmp_path, garbage):
        lines = (submit_dir / "events.jsonl").read_bytes().splitlines()
        lines.insert(7, garbage)
        log = tmp_path / "events.jsonl"
        log.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ValueError, match=rf"^{log}:8: "):
            read_events(log)
        with pytest.raises(ValueError, match=rf"^{log}:8: "):
            read_trace(log)

    def test_clis_survive_a_torn_log(self, submit_dir, capsys):
        events = submit_dir / "events.jsonl"
        whole = events.read_bytes()
        try:
            events.write_bytes(whole[:-37])
            capsys.readouterr()
            assert main_status(["--submit-dir", str(submit_dir)]) == 0
            assert capsys.readouterr().err.count("\n") == 1
            assert main_report(["analyze", str(submit_dir), "--quiet"]) == 0
            assert capsys.readouterr().err.count("\n") == 1
        finally:
            events.write_bytes(whole)

    def test_clis_exit_2_on_garbage(self, submit_dir, capsys):
        originals = {
            name: (submit_dir / name).read_bytes()
            for name in ("events.jsonl", "trace.jsonl")
        }
        try:
            for name, whole in originals.items():
                lines = whole.splitlines()
                lines.insert(3, b"}{ garbage")
                (submit_dir / name).write_bytes(b"\n".join(lines) + b"\n")

            def refusal(main, argv):
                capsys.readouterr()
                try:
                    code = main(argv)
                except SystemExit as stop:  # the post-run commands' way out
                    code = stop.code
                out, err = capsys.readouterr()
                assert code == 2 and out == "" and err.count("\n") == 1
                return err

            # One loader, one log: the event log while there is one ...
            for main, argv in (
                (main_status, ["--submit-dir", str(submit_dir)]),
                (main_statistics, ["--submit-dir", str(submit_dir)]),
                (main_report, ["analyze", str(submit_dir)]),
            ):
                assert f"{submit_dir / 'events.jsonl'}:4: " in refusal(main, argv)
            # ... and the attempt trace when that is all a run left.
            (submit_dir / "events.jsonl").unlink()
            for main, argv in (
                (main_statistics, ["--submit-dir", str(submit_dir)]),
                (main_report, ["analyze", str(submit_dir)]),
            ):
                assert f"{submit_dir / 'trace.jsonl'}:4: " in refusal(main, argv)
        finally:
            for name, whole in originals.items():
                (submit_dir / name).write_bytes(whole)
