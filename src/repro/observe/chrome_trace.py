"""Chrome trace-event export: open any run in Perfetto / about://tracing.

Emits the `Trace Event Format`_ JSON object form. Mapping:

* **process** (pid) = execution site — Sandhills is one process, an OSG
  run fans out into one per contributing site;
* **thread** (tid) = machine/slot within the site;
* complete (``"ph": "X"``) events per attempt phase — ``waiting``,
  ``setup`` (OSG's download/install), and ``exec`` — so the paper's
  three per-job time components are literally the coloured bars;
* counter (``"ph": "C"``) events from utilization samples — busy/idle
  over time as a stacked area track;
* instant (``"ph": "i"``) events for the resilience layer's lifecycle
  points (``job.timeout``, ``job.held``, ``fault.injected``,
  ``blacklist.add``, ``rescue.round``) when the live event stream is
  passed via ``events=`` — faults and recovery are visible in Perfetto
  instead of silently dropped;
* flow (``"ph": "s"``/``"f"``) arrows linking each failed/evicted
  attempt to its retry, so a job's whole retry chain reads as one
  connected story across machines;
* attempts that carry a :class:`~repro.dagman.events.ResourceProfile`
  expose it in the exec slice's ``args`` (click a bar to see CPU split,
  RSS high-water mark and I/O counts).

Timestamps are microseconds as the format requires; the source clock is
the backend's (virtual seconds × 1e6 for simulated runs).

.. _Trace Event Format: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import Callable, Iterable

from repro.dagman.events import JobAttempt, WorkflowTrace
from repro.observe.events import EventKind, RunEvent
from repro.observe.sampler import UtilizationSample

__all__ = ["write_chrome_trace"]

_US = 1e6  # seconds -> microseconds

#: Resilience event kinds rendered as instant events, with their scope:
#: "t" (thread — pinned to the machine the event happened on) or "g"
#: (global — a vertical line across the whole trace).
_INSTANT_KINDS: dict[EventKind, str] = {
    EventKind.TIMEOUT: "t",
    EventKind.HELD: "t",
    EventKind.FAULT: "t",
    EventKind.BLACKLIST: "g",
    EventKind.RESCUE: "g",
}

# One template per record kind, keys in the order the dicts they stand
# for had them and in ``json.dumps``' default layout (``", "`` between
# members, ``": "`` after a key). Values are filled in already spelled.
_PROCESS = (
    '{"ph": "M", "name": "process_name", "pid": %d, "tid": 0,'
    ' "args": {"name": %s}}'
)
_THREAD = '{"ph": "M", "name": "thread_name", "pid": %d, "tid": %d, "args": {"name": %s}}'
_SLICE = (
    '{"ph": "X", "name": %s, "cat": "%s", "pid": %d, "tid": %d,'
    ' "ts": %s, "dur": %s, "args": %s}'
)
_FLOW_START = (
    '{"ph": "s", "name": "retry", "cat": "retry", "id": %d,'
    ' "pid": %d, "tid": %d, "ts": %s}'
)
_FLOW_END = (
    '{"ph": "f", "bp": "e", "name": "retry", "cat": "retry", "id": %d,'
    ' "pid": %d, "tid": %d, "ts": %s}'
)
_INSTANT = (
    '{"ph": "i", "name": %s, "cat": "resilience", "s": "%s", "ts": %s,'
    ' "args": %s, "pid": %d, "tid": %d}'
)
_COUNTER = (
    '{"ph": "C", "name": "utilization", "pid": 0, "tid": 0, "ts": %s,'
    ' "args": {"busy": %s, "idle": %s}}'
)
#: A slice's ``args`` when its values have their plain types: ``%d``
#: spells an ``int`` as the encoder does.
_ARGS = '{"job": %s, "transformation": %s, "attempt": %d, "status": %s'


def _value(value: object) -> str:
    """*value* as ``json.dumps`` spells it."""
    if type(value) is str:
        return _json_str(value)
    if type(value) is int or (type(value) is float and value - value == 0):  # finite
        return repr(value)
    return json.dumps(value)


def _args(a: JobAttempt) -> str:
    """The ``args`` object every slice of attempt *a* shares, printed
    once: from :data:`_ARGS` when its values have their plain types,
    through the encoder otherwise."""
    job, transformation, attempt = a.job_name, a.transformation, a.attempt
    status, error, profile = a.status.value, a.error, a.profile
    if (
        type(job) is type(transformation) is type(status) is str
        and type(attempt) is int
        and (not error or type(error) is str)
    ):
        text = _ARGS % (
            _json_str(job), _json_str(transformation), attempt, _json_str(status)
        )
        if error:
            text += ', "error": ' + _json_str(error)
        if profile is not None:
            text += ', "profile": ' + profile.to_json_text()
        return text + "}"
    args: dict[str, object] = {
        "job": job, "transformation": transformation, "attempt": attempt,
        "status": status,
    }
    if error:
        args["error"] = error
    if profile is not None:
        args["profile"] = profile.to_json()
    return json.dumps(args)


def write_chrome_trace(
    path: str | Path,
    trace: WorkflowTrace,
    *,
    samples: Iterable[UtilizationSample] | None = None,
    events: Iterable[RunEvent] | None = None,
    workflow: str = "workflow",
) -> Path:
    """Write the trace (plus optional utilization samples and live
    events) as a trace-event JSON object next to the run's other
    artifacts, and return the path.

    The document is printed into the file record by record from
    per-kind templates; no dict tree is built and no document string.
    The bytes are those ``json.dumps`` gives for the dict the writer
    used to build
    (``tests/oracles/chrome_trace_reference.py``, held to it by
    ``tests/test_chrome_render.py``). An instant event's ``detail``, and
    any value of a type its template cannot spell, goes through the
    encoder.
    """
    from repro.util.iolib import atomic_open

    path = Path(path)
    with atomic_open(path) as out:
        out.write('{"traceEvents": [')
        _write_records(out.write, trace, samples, events)
        out.write('], "displayTimeUnit": "ms", "otherData": %s}' % json.dumps(
            {"workflow": workflow, "attempts": len(trace)}
        ))
    return path


def _write_records(
    write: Callable[[str], object],
    trace: WorkflowTrace,
    samples: Iterable[UtilizationSample] | None,
    events: Iterable[RunEvent] | None,
) -> None:
    """Write the trace-event records, one printed record per event,
    ``", "`` between records."""
    sep = ""

    def append(record: str) -> None:
        nonlocal sep
        write(sep + record)
        sep = ", "

    pids: dict[str, int] = {}
    tids: dict[tuple[str, str], int] = {}

    def pid(site: str) -> int:
        if site not in pids:
            pids[site] = len(pids) + 1
            append(_PROCESS % (pids[site], _json_str(f"site:{site}")))
        return pids[site]

    def tid(site: str, machine: str) -> int:
        key = (site, machine)
        if key not in tids:
            tids[key] = len(tids) + 1
            append(_THREAD % (pid(site), tids[key], _value(machine)))
        return tids[key]

    for a in sorted(trace, key=lambda a: (a.submit_time, a.job_name, a.attempt)):
        p, t = pid(a.site), tid(a.site, a.machine)
        # The label's text without its closing quote: a phase's name is
        # the label and a suffix, and escaping goes character by character.
        label = _json_str(f"{a.job_name}#{a.attempt}")[:-1]
        args = _args(a)
        submit, setup, start = a.submit_time, a.setup_start, a.exec_start
        waiting, install = setup - submit, start - setup
        # A phase of no length has no slice, but exec is kept even if instant.
        if not waiting <= 0:
            append(_SLICE % (
                label + ' waiting"', "waiting", p, t, _value(submit * _US),
                _value(waiting * _US), args,
            ))
        if not install <= 0:
            append(_SLICE % (
                label + ' setup"', "setup", p, t, _value(setup * _US),
                _value(install * _US), args,
            ))
        append(_SLICE % (
            label + '"', "exec", p, t, _value(start * _US),
            _value((a.exec_end - start) * _US), args,
        ))

    # Retry chains: a flow arrow from each non-final attempt's end to
    # the next attempt's submit, so Perfetto draws the requeue hop
    # (often onto a different machine or site). by_job() orders a job's
    # attempts in time, so the arrows run forward across rescue rounds
    # and a --resume boundary, where attempt numbers restart.
    flow_id = 0
    for _, attempts in sorted(trace.by_job().items()):
        for prev, nxt in zip(attempts, attempts[1:]):
            flow_id += 1
            append(_FLOW_START % (
                flow_id, pid(prev.site), tid(prev.site, prev.machine),
                _value(prev.exec_end * _US),
            ))
            append(_FLOW_END % (
                flow_id, pid(nxt.site), tid(nxt.site, nxt.machine),
                _value(nxt.submit_time * _US),
            ))

    for e in events or ():
        scope = _INSTANT_KINDS.get(e.kind)
        if scope is None:
            continue
        detail = {k: v for k, v in e.detail.items()}
        if e.job_name is not None:
            detail.setdefault("job", e.job_name)
        if e.attempt is not None:
            detail.setdefault("attempt", e.attempt)
        ts, args = _value(e.time * _US), json.dumps(detail)
        if scope == "t" and e.site is not None and e.machine is not None:
            p, t = pid(e.site), tid(e.site, e.machine)
        else:
            # Scheduler-scoped (held/rescue) or global events live on
            # the meta track shared with the utilization counters.
            scope, p, t = "g" if scope == "g" else "p", 0, 0
        append(_INSTANT % (_json_str(e.kind.value), scope, ts, args, p, t))

    for s in samples or ():
        append(_COUNTER % (_value(s.time * _US), _value(s.busy), _value(s.idle)))
