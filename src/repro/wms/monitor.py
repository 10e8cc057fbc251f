"""The submit directory: its files, and how each is written and read.

The one module that knows the directory's files (docs/ARCHITECTURE.md,
"The submit directory", lists the ten files and who writes each); their
JSON spelling is :func:`repro.observe.log.compact_json`'s.
``repro-plan`` leaves the DAX, the ``.dag`` file and ``plan.json``;
everything ``repro-run`` leaves is derivable from ``events.jsonl``,
whose terminal lines carry :meth:`JobAttempt.to_json
<repro.dagman.events.JobAttempt.to_json>` after their header — a
``trace.jsonl`` line, byte for byte — so :func:`read_trace` recovers
the same trace from either file.

Every reader refuses what it cannot use with one ``PATH: reason`` (or
``PATH:LINE: reason``) :class:`ValueError`; the commands print it and
exit 2. :func:`load_run` is the loader the post-run commands and
``repro-report`` share.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import Iterable, NamedTuple

from repro.dagman.dag import PLAN_JOB_KEYS, Dag
from repro.dagman.events import JobAttempt, WorkflowTrace
from repro.observe.bus import events_to_trace
from repro.observe.events import RunEvent
from repro.observe.log import attempt_to_json_line, compact_json, iter_events, read_events
from repro.observe.sampler import UtilizationSample
from repro.util.iolib import atomic_open, atomic_write

__all__ = [
    "DAX_FILE", "DAG_FILE", "PLAN_FILE", "EVENTS_FILE", "TRACE_FILE",
    "CHROME_TRACE_FILE", "OTLP_TRACE_FILE", "PERFETTO_TRACE_FILE",
    "UTILIZATION_FILE", "METRICS_FILE",
    "Plan",
    "Run",
    "write_plan",
    "read_plan",
    "write_trace",
    "read_trace",
    "write_utilization",
    "read_utilization",
    "load_run",
    "progress_line",
]

DAX_FILE = "workflow.dax"
DAG_FILE = "workflow.dag"
PLAN_FILE = "plan.json"
EVENTS_FILE = "events.jsonl"
TRACE_FILE = "trace.jsonl"
CHROME_TRACE_FILE = "trace.chrome.json"
OTLP_TRACE_FILE = "trace.otlp.json"
PERFETTO_TRACE_FILE = "trace.perfetto.json"
UTILIZATION_FILE = "utilization.tsv"
METRICS_FILE = "metrics.json"

_UTILIZATION_HEADER = "time_s\tbusy\tidle"


def _read_json(path: Path) -> object:
    try:
        return json.loads(path.read_text())
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ValueError(f"{path}: not JSON: {exc}") from None


class Plan(NamedTuple):
    """What ``repro-plan`` decided: the site and the executable DAG."""

    site: str
    dag: Dag


def write_plan(submit: str | Path, dag: Dag, *, site: str, n: int) -> Path:
    """What the ``.dag`` file cannot hold, the way Pegasus persists
    per-job submit files: each job's :data:`PLAN_JOB_KEYS`, the edges
    and the DONE marks (what :meth:`Dag.from_json` reads back) under
    the plan's site and *n*.

    The text is printed from the DAG, byte for byte the compact
    encoding of that dict (``tests/test_plan_render.py`` compares them
    with the dict ``tests/oracles/plan_document.py`` builds); no dict
    is built.
    """
    jobs = ",".join(
        _PLAN_JOB % (
            _json_str(name), *(_plan_value(getattr(job, key)) for key in PLAN_JOB_KEYS)
        )
        for name, job in dag.jobs.items()
    )
    edges = ",".join(
        "[%s,%s]" % (_json_str(p), _json_str(c)) for p, c in sorted(dag.edges())
    )
    text = '{"site":%s,"n":%s,"jobs":{%s},"edges":[%s]' % (
        _plan_value(site), _plan_value(n), jobs, edges
    )
    if dag.done:
        text += ',"done":[%s]' % ",".join(_json_str(name) for name in sorted(dag.done))
    return atomic_write(Path(submit) / PLAN_FILE, text + "}")


_PLAN_JOB = "%s:{" + ",".join(f"{_json_str(key)}:%s" for key in PLAN_JOB_KEYS) + "}"


def _plan_value(value: object) -> str:
    """*value* as the compact encoder spells it."""
    if type(value) is str:
        return _json_str(value)
    if type(value) is int or (type(value) is float and value - value == 0):  # finite
        return repr(value)
    return compact_json(value)


def read_plan(submit: str | Path) -> Plan:
    """The ``plan.json`` of a submit directory; a ``PATH: reason``
    :class:`ValueError` when it is missing, is not JSON (a torn write),
    is not a plan, or holds a job or an edge no DAG can."""
    path = Path(submit) / PLAN_FILE
    if not path.exists():
        raise ValueError(f"{path}: missing — run repro-plan first")
    meta = _read_json(path)
    try:
        dag = Dag.from_json(meta)
        if not isinstance(meta.get("site"), str):
            raise ValueError("not a plan (missing 'site')")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    dag.name = f"blast2cap3-n{meta.get('n')}-{meta['site']}"
    return Plan(meta["site"], dag)


def write_trace(path: str | Path, trace: WorkflowTrace | Iterable[JobAttempt]) -> int:
    """Write a whole trace as JSONL; returns the attempt count. Each
    line is :func:`~repro.observe.log.attempt_to_json_line`: the
    attempt's terminal line in ``events.jsonl`` with the header taken
    off."""
    count = 0
    with atomic_open(path) as out:
        for count, a in enumerate(trace, 1):
            out.write(attempt_to_json_line(a) + "\n")
    return count


def read_trace(path: str | Path) -> WorkflowTrace:
    """Load the attempts of a ``trace.jsonl`` or an ``events.jsonl``
    (whose non-terminal lines carry no attempt and are passed over)."""
    return events_to_trace(iter_events(path))


def write_utilization(path: str | Path, samples: Iterable[UtilizationSample]) -> Path:
    """One header line, then ``time<TAB>busy<TAB>idle`` per sample."""
    with atomic_open(path) as out:
        out.write(f"{_UTILIZATION_HEADER}\n")
        out.writelines(f"{s.time:.0f}\t{s.busy}\t{s.idle}\n" for s in samples)
    return Path(path)


def read_utilization(path: str | Path) -> list[UtilizationSample]:
    """The samples :func:`write_utilization` wrote; a line that is not
    one of its lines raises a ``ValueError`` naming ``path:lineno``."""
    text = Path(path).read_text(errors="replace")
    lines = text.splitlines()
    if lines[:1] != [_UTILIZATION_HEADER]:
        raise ValueError(f"{path}:1: not a utilization series (no {_UTILIZATION_HEADER!r} header)")
    samples = []
    for lineno, line in enumerate(lines[1:], 2):
        try:
            time, busy, idle = line.split("\t")
            samples.append(UtilizationSample(float(time), int(busy), int(idle)))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: not a time/busy/idle sample: {line!r}") from None
    if not text.endswith("\n"):  # written whole or not at all: this is damage
        raise ValueError(f"{path}:{len(lines)}: torn final line")
    return samples


class Run(NamedTuple):
    """What a run left behind. One log is parsed, once — ``log`` names
    it — and ``trace`` is its terminal events' records."""

    label: str
    log: Path
    events: list[RunEvent]
    trace: WorkflowTrace
    #: the planned DAG, when the directory has a ``plan.json``
    dag: Dag | None
    metrics: dict | None
    samples: list[UtilizationSample] | None


def load_run(path: str | Path) -> Run:
    """Load a submit directory, or a bare ``events.jsonl`` /
    ``trace.jsonl`` log. In a directory the event log is preferred and
    the attempt trace is the fallback; the plan, the metrics and the
    utilization series are read when present. A file that is present
    and damaged refuses the whole directory, as does one with no log."""
    path = Path(path)
    if not path.is_dir():
        if not path.exists():
            raise ValueError(f"{path}: no such run directory or log")
        events = read_events(path)
        return Run(path.stem, path, events, events_to_trace(events), None, None, None)
    dag = read_plan(path).dag if (path / PLAN_FILE).exists() else None
    log = path / EVENTS_FILE
    if not log.exists():
        log = path / TRACE_FILE
    if not log.exists():
        if dag is None:
            read_plan(path)  # nothing here at all: start from repro-plan
        raise ValueError(f"{path}: no {EVENTS_FILE} or {TRACE_FILE} — run repro-run first")
    events = read_events(log)
    metrics = path / METRICS_FILE
    samples = path / UTILIZATION_FILE
    return Run(
        path.name or str(path), log, events, events_to_trace(events), dag,
        _read_json(metrics) if metrics.exists() else None,  # type: ignore[arg-type]
        read_utilization(samples) if samples.exists() else None,
    )


def progress_line(trace: WorkflowTrace, total_jobs: int) -> str:
    """A ``pegasus-status`` style one-liner.

    >>> from repro.dagman.events import WorkflowTrace
    >>> progress_line(WorkflowTrace(), 10)
    '0/10 jobs done (0.0%), 0 failures, 0 retries'
    """
    done = len({a.job_name for a in trace.successful()})
    pct = 100.0 * done / total_jobs if total_jobs else 0.0
    return (
        f"{done}/{total_jobs} jobs done ({pct:.1f}%), "
        f"{len(trace.failures())} failures, {trace.retry_count} retries"
    )
