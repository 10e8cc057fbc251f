"""Trace persistence: the attempt-per-line ``trace.jsonl``.

One finished attempt is one JSON line —
:meth:`JobAttempt.to_json <repro.dagman.events.JobAttempt.to_json>`,
the same record an ``events.jsonl`` terminal line carries after its
header — and :mod:`repro.observe.log` is the one reader of both files,
so :func:`read_trace` recovers the same trace from either.
``pegasus-status`` style progress summaries read the same trace.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from repro.dagman.events import JobAttempt, WorkflowTrace
from repro.observe.bus import events_to_trace
from repro.observe.log import iter_events
from repro.util.iolib import atomic_write

__all__ = ["write_trace", "read_trace", "progress_line"]


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
