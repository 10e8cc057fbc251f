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
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import Iterable, NamedTuple

from repro.dagman.dag import PLAN_JOB_KEYS, Dag
from repro.dagman.events import JobAttempt, JobStatus, WorkflowTrace
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
    per-job submit files: ``Dag.to_json`` under the plan's site and *n*.

    The text is printed from the DAG in ``json.dumps(indent=2)``'s
    layout, byte for byte what that call gives for the dict
    (``tests/test_plan_render.py`` compares them); no dict is built.
    """
    jobs = [
        _PLAN_JOB % (
            _json_str(name),
            *(_plan_value(getattr(job, key), 3) for key in PLAN_JOB_KEYS),
        )
        for name, job in dag.jobs.items()
    ]
    edges = [_PLAN_EDGE % (_json_str(p), _json_str(c)) for p, c in sorted(dag.edges())]
    parts = [
        f'{{\n  "site": {_plan_value(site, 1)},\n  "n": {_plan_value(n, 1)}',
        ',\n  "jobs": ', _plan_block(jobs, "{", "}"),
        ',\n  "edges": ', _plan_block(edges, "[", "]"),
    ]
    if dag.done:
        done = ["    " + _json_str(name) for name in sorted(dag.done)]
        parts += [',\n  "done": ', _plan_block(done, "[", "]")]
    parts.append("\n}")
    return atomic_write(Path(submit) / PLAN_FILE, "".join(parts))


_PLAN_JOB = "    %s: {\n" + ",\n".join(
    f"      {_json_str(key)}: %s" for key in PLAN_JOB_KEYS
) + "\n    }"
_PLAN_EDGE = "    [\n      %s,\n      %s\n    ]"


def _plan_block(items: list[str], opening: str, closing: str) -> str:
    """A member of the plan object: *items*, each already indented
    four spaces, between *opening* and *closing*."""
    if not items:
        return opening + closing
    return f"{opening}\n" + ",\n".join(items) + f"\n  {closing}"


def _plan_value(value: object, depth: int) -> str:
    """*value* as ``json.dumps(indent=2)`` spells it *depth* levels in."""
    if type(value) is str:
        return _json_str(value)
    if type(value) is int or (type(value) is float and value - value == 0):  # finite
        return repr(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


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
    """Write a whole trace as JSONL; returns the attempt count.

    Each line is ``json.dumps(attempt.to_json())``, printed from
    :data:`_TRACE_LINE` when the record's values have their plain types
    and encoded otherwise (``tests/test_trace_jsonl_render.py`` holds it
    to the encoder)."""
    attempts = list(trace)
    atomic_write(path, "".join([_trace_line(a) for a in attempts]))
    return len(attempts)


#: A ``trace.jsonl`` line up to its optional ``error`` and ``profile``,
#: in ``json.dumps``' default layout; ``%d`` spells an ``int`` as the
#: encoder does, and the times arrive already spelled.
_TRACE_LINE = (
    '{"job_name": %s, "transformation": %s, "site": %s, "machine": %s,'
    ' "attempt": %d, "submit_time": %s, "setup_start": %s, "exec_start": %s,'
    ' "exec_end": %s, "status": %s'
)
_STATUS_TEXT = {status: _json_str(status.value) for status in JobStatus}


def _trace_line(a: JobAttempt) -> str:
    """One ``trace.jsonl`` line, newline included."""
    job, transformation, site, machine = a.job_name, a.transformation, a.site, a.machine
    submit, setup, start, end = a.submit_time, a.setup_start, a.exec_start, a.exec_end
    attempt, status, error = a.attempt, a.status, a.error
    if (
        type(job) is type(transformation) is type(site) is type(machine) is str
        and type(attempt) is int
        and type(submit) is type(setup) is type(start) is type(end) is float
        and type(status) is JobStatus
        and (not error or type(error) is str)
    ):
        total = submit + setup + start + end
        if total - total == 0:  # all finite (an overflow only falls back)
            # With no setup phase a platform starts execution at the
            # same float object: spell it once.
            setup_text = repr(setup)
            line = _TRACE_LINE % (
                _json_str(job), _json_str(transformation), _json_str(site),
                _json_str(machine), attempt, repr(submit), setup_text,
                setup_text if start is setup else repr(start), repr(end),
                _STATUS_TEXT[status],
            )
            if error:
                line += ', "error": ' + _json_str(error)
            if a.profile is not None:
                line += ', "profile": ' + a.profile.to_json_text()
            return line + "}\n"
    return json.dumps(a.to_json()) + "\n"


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
