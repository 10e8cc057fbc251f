"""The submit directory: its files, and how each is written and read.

The one module that knows the layout (docs/ARCHITECTURE.md, "The submit
directory", lists the ten files and who writes each). ``repro-plan``
leaves the DAX, the ``.dag`` file and ``plan.json``; everything
``repro-run`` leaves is derivable from ``events.jsonl``, whose terminal
lines carry :meth:`JobAttempt.to_json
<repro.dagman.events.JobAttempt.to_json>` after their header — a
``trace.jsonl`` line — so :func:`read_trace` recovers the same trace
from either file.

Every reader refuses what it cannot use with one ``PATH: reason`` (or
``PATH:LINE: reason``) :class:`ValueError`; the commands print it and
exit 2. :func:`load_run` is the loader the post-run commands and
``repro-report`` share.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, NamedTuple

from repro.dagman.dag import Dag
from repro.dagman.events import JobAttempt, WorkflowTrace
from repro.observe.bus import events_to_trace
from repro.observe.events import RunEvent
from repro.observe.log import iter_events, read_events
from repro.observe.sampler import UtilizationSample
from repro.util.iolib import atomic_write

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
    per-job submit files: ``Dag.to_json`` under the plan's site and *n*."""
    return atomic_write(
        Path(submit) / PLAN_FILE,
        json.dumps({"site": site, "n": n, **dag.to_json()}, indent=2),
    )


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
    """Write a whole trace as JSONL; returns the attempt count."""
    attempts = list(trace)
    atomic_write(
        path, "".join(json.dumps(a.to_json()) + "\n" for a in attempts)
    )
    return len(attempts)


def read_trace(path: str | Path) -> WorkflowTrace:
    """Load the attempts of a ``trace.jsonl`` or an ``events.jsonl``
    (whose non-terminal lines carry no attempt and are passed over)."""
    return events_to_trace(iter_events(path))


def write_utilization(path: str | Path, samples: Iterable[UtilizationSample]) -> Path:
    """One header line, then ``time<TAB>busy<TAB>idle`` per sample."""
    rows = "".join(f"{s.time:.0f}\t{s.busy}\t{s.idle}\n" for s in samples)
    return atomic_write(path, f"{_UTILIZATION_HEADER}\n{rows}")


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
