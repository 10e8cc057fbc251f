"""Makespan attribution: where did this run's wall time actually go?

The paper's whole argument (Figs. 4/5) is an *attribution* claim —
Sandhills beats OSG not on kickstart time but because waiting,
download/install and failure/retry overheads dominate OSG's makespan.
This module turns a :class:`~repro.dagman.events.WorkflowTrace` into
that claim's numbers: it walks the **realized critical path** (the chain
of attempts whose completions actually gated each other, via
:func:`repro.wms.statistics.critical_path` over final attempts) and
decomposes the end-to-end makespan into five mutually exclusive,
collectively exhaustive buckets:

==============  ======================================================
bucket          meaning (time on the critical path spent …)
==============  ======================================================
``waiting``     queued for a slot (paper's "Waiting Time")
``setup``       downloading/installing software (paper's
                "Download/Install Time"; OSG-only)
``exec``        running the payload (paper's "Kickstart Time")
``retry_lost``  redoing work: from a path job's first submit to its
                final attempt's — failed/evicted attempts, retry
                holds, rescue rounds and resume re-runs
``idle``        none of the above — scheduler latency between a
                parent finishing and the child's first submit
==============  ======================================================

A job's *final* attempt is its latest submitted
(:meth:`~repro.dagman.events.WorkflowTrace.by_job`), not its highest
numbered: numbering restarts in every rescue round.

The decomposition is exact by construction: the path's segments tile
``[first submit, last completion]`` with no gaps or overlaps, so the
buckets **sum to the makespan** (the invariant the property tests pin).

Each bucket also yields a *what-if shrink estimate* — "what would the
makespan be if X were free?" — by deleting that bucket's path segments.
It is a first-order estimate: shrinking one chain can promote a
different chain to critical, so the true answer is ≥ the estimate; for the
ranking story (which overhead to attack first) first order is exactly
what pegasus-statistics style tooling reports.

The walk's parents are a plain ``job -> parents`` map: the plan's
edges when the run has one, else the ``released_by`` each readiness
event of the log names. With neither (a bare ``trace.jsonl``) the path
is the last-finishing job alone, and everything before its first
submit is ``idle``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Mapping

from repro.dagman.events import JobAttempt, WorkflowTrace
from repro.wms.statistics import critical_path

__all__ = [
    "BUCKETS",
    "PathSegment",
    "MakespanAttribution",
    "attribute_makespan",
    "tile_path",
    "aggregate_components",
]

#: Bucket names, in report order.
BUCKETS = ("waiting", "setup", "exec", "retry_lost", "idle")

_EPS = 1e-9


@dataclass(frozen=True)
class PathSegment:
    """One tile of the critical-path timeline."""

    start: float
    end: float
    bucket: str
    job_name: str | None = None  # None for idle gaps between jobs
    transformation: str | None = None
    site: str | None = None
    attempt: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class MakespanAttribution:
    """The answer to "where did the makespan go?"."""

    makespan_s: float
    start_s: float
    end_s: float
    #: Bucket name -> seconds on the critical path (sums to makespan).
    buckets: dict[str, float]
    #: The tiling itself, in time order.
    segments: list[PathSegment] = field(default_factory=list)
    #: The jobs on the realized critical path, in execution order.
    path_jobs: list[str] = field(default_factory=list)

    def what_if_free(self, bucket: str) -> float:
        """Estimated makespan if ``bucket`` cost nothing (first order:
        its path segments deleted, everything else unchanged)."""
        if bucket not in self.buckets:
            raise KeyError(f"unknown bucket: {bucket!r}")
        return self.makespan_s - self.buckets[bucket]

    def what_if(self) -> dict[str, float]:
        """All buckets' shrink estimates at once."""
        return {b: self.what_if_free(b) for b in BUCKETS}

    def ranked(self) -> list[tuple[str, float]]:
        """Buckets sorted by cost, biggest first (the bottleneck list)."""
        return sorted(
            self.buckets.items(), key=lambda kv: (-kv[1], kv[0])
        )

    def share(self, bucket: str) -> float:
        """Bucket's fraction of the makespan (0 when makespan is 0)."""
        if self.makespan_s <= 0:
            return 0.0
        return self.buckets[bucket] / self.makespan_s


def tile_path(
    trace: WorkflowTrace, chain: list[JobAttempt]
) -> tuple[float, float, dict[str, float], list[PathSegment]]:
    """Tile the non-empty ``trace``'s ``[first submit, last completion]``
    along ``chain`` (final attempts of the path's jobs, in time order)
    into the five buckets. Returns start, end, the bucket totals and
    the tiles."""
    by_job = trace.by_job()
    start_s = min(a.submit_time for a in trace)
    end_s = max(a.exec_end for a in trace)
    marks: list[tuple[float, str, JobAttempt | None]] = []
    for a in chain:
        marks += [
            # Gap between the previous path job finishing and this
            # job's first submit: scheduler latency, no job's fault.
            (by_job[a.job_name][0].submit_time, "idle", None),
            # From the job's first submit to its final attempt's: failed
            # attempts, retry holds, rescue rounds and resume re-runs.
            (a.submit_time, "retry_lost", a),
            (a.setup_start, "waiting", a),
            (a.exec_start, "setup", a),
            (a.exec_end, "exec", a),
        ]
    # A chain that stops short of the last completion (a non-final
    # attempt outlasting every final one) closes with an idle tile so
    # the sum invariant still holds.
    marks.append((end_s, "idle", None))

    buckets = {b: 0.0 for b in BUCKETS}
    segments: list[PathSegment] = []
    cursor = start_s
    for until, bucket, a in marks:
        until = min(until, end_s)
        if until <= cursor + _EPS:
            continue
        seg = PathSegment(
            start=cursor,
            end=until,
            bucket=bucket,
            job_name=a.job_name if a is not None else None,
            transformation=a.transformation if a is not None else None,
            site=a.site if a is not None else None,
            attempt=a.attempt if a is not None else None,
        )
        segments.append(seg)
        buckets[bucket] += seg.duration
        cursor = until
    return start_s, end_s, buckets, segments


def attribute_makespan(
    trace: WorkflowTrace,
    parents: Mapping[str, Collection[str]] | None = None,
) -> MakespanAttribution:
    """Decompose the trace's makespan along its realized critical path,
    the :func:`~repro.wms.statistics.critical_path` walk over
    ``parents`` (``job -> the jobs that gate it``; none: the
    last-finishing job alone). The returned buckets tile the makespan
    exactly.
    """
    if len(trace) == 0:
        return MakespanAttribution(
            makespan_s=0.0, start_s=0.0, end_s=0.0,
            buckets={b: 0.0 for b in BUCKETS},
        )
    chain = critical_path(trace, parents or {}, attempts="final")
    start_s, end_s, buckets, segments = tile_path(trace, chain)
    return MakespanAttribution(
        makespan_s=end_s - start_s,
        start_s=start_s,
        end_s=end_s,
        buckets=buckets,
        segments=segments,
        path_jobs=[a.job_name for a in chain],
    )


def aggregate_components(trace: WorkflowTrace) -> dict[str, float]:
    """Whole-trace (not path-restricted) component totals — the Fig. 5
    cumulative view: every attempt's waiting/setup/exec summed, plus the
    total time sunk into non-final failed attempts (``retry_lost``).

    These do *not* sum to the makespan (parallel attempts overlap);
    they answer "how much aggregate machine time went to each
    component", the companion question to the critical-path "how much
    wall time".
    """
    out = {
        "waiting": 0.0,
        "setup": 0.0,
        "exec": 0.0,
        "retry_lost": 0.0,
    }
    for a in trace:
        out["waiting"] += a.waiting_time
        out["setup"] += a.download_install_time
        out["exec"] += a.kickstart_time
        if not a.status.is_success:
            out["retry_lost"] += a.total_time
    return out
