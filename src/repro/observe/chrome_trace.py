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
from pathlib import Path
from typing import Iterable

from repro.dagman.events import WorkflowTrace
from repro.observe.events import EventKind, RunEvent
from repro.observe.sampler import UtilizationSample

__all__ = ["chrome_trace", "write_chrome_trace"]

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


def chrome_trace(
    trace: WorkflowTrace,
    *,
    samples: Iterable[UtilizationSample] | None = None,
    events: Iterable[RunEvent] | None = None,
    workflow: str = "workflow",
) -> dict:
    """Render a trace (plus optional utilization samples and live
    events) to the trace-event JSON object. ``json.dump`` the result,
    or use :func:`write_chrome_trace`."""
    out: list[dict] = []
    pids: dict[str, int] = {}
    tids: dict[tuple[str, str], int] = {}

    def pid(site: str) -> int:
        if site not in pids:
            pids[site] = len(pids) + 1
            out.append({
                "ph": "M", "name": "process_name", "pid": pids[site], "tid": 0,
                "args": {"name": f"site:{site}"},
            })
        return pids[site]

    def tid(site: str, machine: str) -> int:
        key = (site, machine)
        if key not in tids:
            tids[key] = len(tids) + 1
            out.append({
                "ph": "M", "name": "thread_name", "pid": pid(site),
                "tid": tids[key], "args": {"name": machine},
            })
        return tids[key]

    for a in sorted(trace, key=lambda a: (a.submit_time, a.job_name, a.attempt)):
        p, t = pid(a.site), tid(a.site, a.machine)
        label = f"{a.job_name}#{a.attempt}"
        args = {
            "job": a.job_name,
            "transformation": a.transformation,
            "attempt": a.attempt,
            "status": a.status.value,
        }
        if a.error:
            args["error"] = a.error
        if a.profile is not None:
            args["profile"] = a.profile.to_json()
        phases = (
            ("waiting", a.submit_time, a.waiting_time),
            ("setup", a.setup_start, a.download_install_time),
            ("exec", a.exec_start, a.kickstart_time),
        )
        for cat, start, dur in phases:
            if dur <= 0 and cat != "exec":
                continue  # no distinct phase; keep exec even if instant
            out.append({
                "ph": "X",
                "name": f"{label} {cat}" if cat != "exec" else label,
                "cat": cat,
                "pid": p,
                "tid": t,
                "ts": start * _US,
                "dur": dur * _US,
                "args": args,
            })

    # Retry chains: a flow arrow from each non-final attempt's end to
    # the next attempt's submit, so Perfetto draws the requeue hop
    # (often onto a different machine or site). by_job() orders a job's
    # attempts in time, so the arrows run forward across rescue rounds
    # and a --resume boundary, where attempt numbers restart.
    flow_id = 0
    for _, attempts in sorted(trace.by_job().items()):
        for prev, nxt in zip(attempts, attempts[1:]):
            flow_id += 1
            common = {"name": "retry", "cat": "retry", "id": flow_id}
            out.append({
                "ph": "s", **common,
                "pid": pid(prev.site), "tid": tid(prev.site, prev.machine),
                "ts": prev.exec_end * _US,
            })
            out.append({
                "ph": "f", "bp": "e", **common,
                "pid": pid(nxt.site), "tid": tid(nxt.site, nxt.machine),
                "ts": nxt.submit_time * _US,
            })

    for e in events or ():
        scope = _INSTANT_KINDS.get(e.kind)
        if scope is None:
            continue
        detail = {k: v for k, v in e.detail.items()}
        if e.job_name is not None:
            detail.setdefault("job", e.job_name)
        if e.attempt is not None:
            detail.setdefault("attempt", e.attempt)
        record = {
            "ph": "i",
            "name": e.kind.value,
            "cat": "resilience",
            "s": scope,
            "ts": e.time * _US,
            "args": detail,
        }
        if scope == "t" and e.site is not None and e.machine is not None:
            record["pid"] = pid(e.site)
            record["tid"] = tid(e.site, e.machine)
        else:
            # Scheduler-scoped (held/rescue) or global events live on
            # the meta track shared with the utilization counters.
            record["s"] = "g" if scope == "g" else "p"
            record["pid"] = 0
            record["tid"] = 0
        out.append(record)

    for s in samples or ():
        out.append({
            "ph": "C", "name": "utilization", "pid": 0, "tid": 0,
            "ts": s.time * _US, "args": {"busy": s.busy, "idle": s.idle},
        })

    return {
        "traceEvents": out,
        "displayTimeUnit": "ms",
        "otherData": {"workflow": workflow, "attempts": len(trace)},
    }


def write_chrome_trace(
    path: str | Path,
    trace: WorkflowTrace,
    *,
    samples: Iterable[UtilizationSample] | None = None,
    events: Iterable[RunEvent] | None = None,
    workflow: str = "workflow",
) -> Path:
    """Write the trace-event JSON next to the run's other artifacts."""
    from repro.util.iolib import atomic_write

    path = Path(path)
    payload = json.dumps(
        chrome_trace(trace, samples=samples, events=events, workflow=workflow)
    )
    atomic_write(path, payload)
    return path
