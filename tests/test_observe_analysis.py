"""Makespan attribution and the ``repro-report`` CLI.

The core invariant (pinned by a hypothesis property): the attribution
buckets tile the realized critical path, so they **sum exactly to the
makespan** for any trace — retries, failed tails, held delays,
overlapping timelines, all of it.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.dagman.dag import Dag, DagJob
from repro.dagman.events import JobAttempt, JobStatus, WorkflowTrace
from repro.observe.analysis import (
    BUCKETS,
    MakespanAttribution,
    aggregate_components,
    attribute_makespan,
)
from repro.observe.report import (
    build_report,
    check_thresholds,
    compare_reports,
    load_report,
    main,
    parse_fail_on,
    render_compare_markdown,
    render_markdown,
)


def _attempt(
    job="j1",
    transformation="run_cap3",
    attempt=1,
    submit=0.0,
    setup=10.0,
    start=15.0,
    end=100.0,
    status=JobStatus.SUCCEEDED,
    site="sandhills",
    machine="m0",
):
    return JobAttempt(
        job_name=job,
        transformation=transformation,
        site=site,
        machine=machine,
        attempt=attempt,
        submit_time=submit,
        setup_start=setup,
        exec_start=start,
        exec_end=end,
        status=status,
    )


def _sums_to_makespan(at: MakespanAttribution) -> None:
    assert sum(at.buckets.values()) == pytest.approx(
        at.makespan_s, abs=1e-6
    )


# -- edge cases ------------------------------------------------------------


def test_empty_trace():
    at = attribute_makespan(WorkflowTrace())
    assert at.makespan_s == 0.0
    assert at.buckets == {b: 0.0 for b in BUCKETS}
    assert at.segments == []
    assert at.path_jobs == []
    _sums_to_makespan(at)


def test_single_job_decomposition():
    trace = WorkflowTrace([_attempt()])
    at = attribute_makespan(trace)
    assert at.makespan_s == 100.0
    assert at.buckets["waiting"] == pytest.approx(10.0)
    assert at.buckets["setup"] == pytest.approx(5.0)
    assert at.buckets["exec"] == pytest.approx(85.0)
    assert at.buckets["retry_lost"] == 0.0
    assert at.buckets["idle"] == 0.0
    assert at.path_jobs == ["j1"]
    _sums_to_makespan(at)


def test_retry_chain_charges_lost_time():
    # Attempt 1 fails at t=50; attempt 2 is submitted at t=60 and wins.
    trace = WorkflowTrace([
        _attempt(attempt=1, submit=0, setup=5, start=5, end=50,
                 status=JobStatus.FAILED),
        _attempt(attempt=2, submit=60, setup=70, start=75, end=200),
    ])
    at = attribute_makespan(trace)
    assert at.makespan_s == pytest.approx(200.0)
    # Everything before the final attempt's submit is retry-lost.
    assert at.buckets["retry_lost"] == pytest.approx(60.0)
    assert at.buckets["waiting"] == pytest.approx(10.0)
    assert at.buckets["setup"] == pytest.approx(5.0)
    assert at.buckets["exec"] == pytest.approx(125.0)
    _sums_to_makespan(at)


def test_all_failed_trace_still_reaches_end():
    # A rescue-round story where nothing ever succeeds: the path must
    # still extend to the last completion so the sum invariant holds.
    trace = WorkflowTrace([
        _attempt(job="a", attempt=1, submit=0, setup=1, start=2, end=30,
                 status=JobStatus.FAILED),
        _attempt(job="a", attempt=2, submit=35, setup=36, start=38, end=80,
                 status=JobStatus.EVICTED),
        _attempt(job="b", attempt=1, submit=85, setup=90, start=95, end=120,
                 status=JobStatus.TIMEOUT),
    ])
    at = attribute_makespan(trace)
    assert at.makespan_s == pytest.approx(120.0)
    assert at.end_s == 120.0
    assert at.path_jobs[-1] == "b"
    _sums_to_makespan(at)


def test_dag_guided_path_follows_dependencies():
    dag = Dag()
    for name in ("a", "b", "c"):
        dag.add_job(DagJob(name=name, transformation="t", runtime=1.0))
    dag.add_edge("a", "c")
    dag.add_edge("b", "c")
    trace = WorkflowTrace([
        _attempt(job="a", submit=0, setup=0, start=0, end=40),
        _attempt(job="b", submit=0, setup=0, start=0, end=60),
        _attempt(job="c", submit=60, setup=62, start=65, end=100),
    ])
    at = attribute_makespan(trace, dag.parent_sets())
    # b (finished later) gated c, so a is off the path.
    assert at.path_jobs == ["b", "c"]
    _sums_to_makespan(at)


def test_what_if_and_ranking():
    trace = WorkflowTrace([_attempt()])
    at = attribute_makespan(trace)
    assert at.what_if_free("exec") == pytest.approx(15.0)
    assert at.what_if()["waiting"] == pytest.approx(90.0)
    assert at.ranked()[0][0] == "exec"
    assert at.share("exec") == pytest.approx(0.85)
    with pytest.raises(KeyError):
        at.what_if_free("nonsense")


def test_aggregate_components_counts_machine_time():
    trace = WorkflowTrace([
        _attempt(attempt=1, submit=0, setup=5, start=5, end=50,
                 status=JobStatus.FAILED),
        _attempt(attempt=2, submit=60, setup=70, start=75, end=200),
    ])
    agg = aggregate_components(trace)
    assert agg["waiting"] == pytest.approx(5 + 10)
    assert agg["setup"] == pytest.approx(0 + 5)
    assert agg["exec"] == pytest.approx(45 + 125)
    assert agg["retry_lost"] == pytest.approx(50.0)


# -- the sum invariant, property-based -------------------------------------


@st.composite
def random_trace(draw):
    n_jobs = draw(st.integers(min_value=1, max_value=8))
    attempts = []
    for j in range(n_jobs):
        n_attempts = draw(st.integers(min_value=1, max_value=3))
        t = draw(st.floats(min_value=0, max_value=50))
        for k in range(1, n_attempts + 1):
            waits = [
                draw(st.floats(min_value=0, max_value=30))
                for _ in range(3)
            ]
            submit = t
            setup = submit + waits[0]
            start = setup + waits[1]
            end = start + waits[2]
            failed = k < n_attempts or draw(st.booleans())
            attempts.append(JobAttempt(
                job_name=f"j{j}",
                transformation="t",
                site="s",
                machine=f"m{k}",
                attempt=k,
                submit_time=submit,
                setup_start=setup,
                exec_start=start,
                exec_end=end,
                status=JobStatus.FAILED if failed else JobStatus.SUCCEEDED,
            ))
            t = end + draw(st.floats(min_value=0, max_value=20))
    return WorkflowTrace(attempts)


@given(random_trace())
@settings(max_examples=150, deadline=None)
def test_property_buckets_sum_to_makespan(trace):
    at = attribute_makespan(trace)
    _sums_to_makespan(at)
    assert all(v >= -1e-9 for v in at.buckets.values())
    # Segments tile [start, end] with no gaps or overlaps.
    cursor = at.start_s
    for seg in at.segments:
        assert seg.start == pytest.approx(cursor, abs=1e-6)
        assert seg.end >= seg.start
        cursor = seg.end
    if at.segments:
        assert cursor == pytest.approx(at.end_s, abs=1e-6)


# -- report build / compare / CLI ------------------------------------------


def _two_run_dirs(tmp_path):
    from repro.wms.monitor import write_trace

    fast = tmp_path / "fast"
    slow = tmp_path / "slow"
    for d in (fast, slow):
        d.mkdir()
    write_trace(fast / "trace.jsonl", WorkflowTrace([_attempt(end=100.0)]))
    write_trace(slow / "trace.jsonl", WorkflowTrace([
        _attempt(attempt=1, submit=0, setup=5, start=5, end=80,
                 status=JobStatus.FAILED),
        _attempt(attempt=2, submit=90, setup=120, start=140, end=400),
    ]))
    return fast, slow


def test_build_and_render_report():
    trace = WorkflowTrace([_attempt()])
    report = build_report(trace, label="unit")
    assert report["schema"] == "repro-report/1"
    assert sum(report["attribution"].values()) == pytest.approx(
        report["makespan_s"]
    )
    md = render_markdown(report)
    assert "Makespan attribution — unit" in md
    assert "exact tiling" in md


def test_load_report_roundtrip_via_saved_json(tmp_path):
    trace = WorkflowTrace([_attempt()])
    report = build_report(trace, label="unit")
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert load_report(path) == report
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"schema": "other"}))
    with pytest.raises(ValueError):
        load_report(bogus)


def test_parse_fail_on_specs():
    th = parse_fail_on(["makespan=5%", "retries=3", "exec=120s"])
    assert th["makespan"] == ("pct", 5.0)
    assert th["retries"] == ("abs", 3.0)
    assert th["exec"] == ("abs", 120.0)
    for bad in ("makespan", "nope=5%", "makespan=abc"):
        with pytest.raises(ValueError):
            parse_fail_on([bad])


def test_compare_and_thresholds(tmp_path):
    fast, slow = _two_run_dirs(tmp_path)
    comparison = compare_reports(load_report(fast), load_report(slow))
    row = comparison["metrics"]["makespan"]
    assert row["base"] == pytest.approx(100.0)
    assert row["new"] == pytest.approx(400.0)
    violations = check_thresholds(comparison, parse_fail_on(["makespan=5%"]))
    assert len(violations) == 1 and "makespan" in violations[0]
    # The improvement direction never trips the gate.
    back = compare_reports(load_report(slow), load_report(fast))
    assert check_thresholds(back, parse_fail_on(["makespan=5%"])) == []
    md = render_compare_markdown(comparison, violations=violations)
    assert "REGRESSIONS" in md


def test_cli_analyze_and_compare_exit_codes(tmp_path, capsys):
    fast, slow = _two_run_dirs(tmp_path)
    out_json = tmp_path / "report.json"
    assert main([
        "analyze", str(fast), "--label", "fast",
        "--json", str(out_json), "--quiet",
    ]) == 0
    saved = json.loads(out_json.read_text())
    assert saved["label"] == "fast"

    # Same run against itself: clean pass.
    assert main([
        "compare", str(out_json), str(out_json),
        "--fail-on", "makespan=5%",
    ]) == 0
    # Regressed run: gate trips (exit 1).
    assert main([
        "compare", str(fast), str(slow),
        "--fail-on", "makespan=5%",
    ]) == 1
    # Usage errors: exit 2.
    assert main(["analyze", str(tmp_path / "missing")]) == 2
    assert main([
        "compare", str(fast), str(slow), "--fail-on", "bogus=1%",
    ]) == 2
    capsys.readouterr()


def test_cli_gate_on_a_metric_the_candidate_lacks_is_refused(tmp_path, capsys):
    base = tmp_path / "base.json"
    base.write_text(json.dumps(build_report(
        WorkflowTrace([_attempt(end=100.0)]), label="base"
    )))
    stripped = json.loads(base.read_text())
    del stripped["makespan_s"]
    new = tmp_path / "new.json"
    new.write_text(json.dumps(stripped))
    gate = ["--fail-on", "makespan=20%"]
    # It used to read the missing value as 0.0: -100 %, within threshold.
    assert main(["compare", str(base), str(new), *gate]) == 2
    assert capsys.readouterr().err == (
        "repro-report: NEW has no value for 'makespan' (makespan_s)\n"
    )
    # Ungated, the table still renders; a baseline without the metric
    # keeps its absolute-gate reading.
    assert main(["compare", str(base), str(new)]) == 0
    assert main(["compare", str(new), str(base),
                 "--fail-on", "makespan=120"]) == 0
    # An unknown metric name is still the bad-spec error.
    assert main(["compare", str(base), str(new),
                 "--fail-on", "nope=1%"]) == 2
    assert "bad --fail-on 'nope=1%'" in capsys.readouterr().err


def test_cli_compare_paper_platforms_gates(tmp_path):
    """The acceptance scenario: Sandhills baseline vs an OSG run must
    trip a 5 % makespan gate (the paper's Fig. 4 gap is ~24 %)."""
    from repro.core.workflow_factory import simulate_paper_run

    reports = {}
    for platform in ("sandhills", "osg"):
        result, planned = simulate_paper_run(50, platform, seed=0)
        reports[platform] = build_report(
            result.trace, dag=planned.dag, label=platform
        )
        path = tmp_path / f"{platform}.json"
        path.write_text(json.dumps(reports[platform]))
    comparison = compare_reports(reports["sandhills"], reports["osg"])
    assert comparison["metrics"]["makespan"]["delta"] > 0
    assert main([
        "compare",
        str(tmp_path / "sandhills.json"),
        str(tmp_path / "osg.json"),
        "--fail-on", "makespan=5%",
    ]) == 1
