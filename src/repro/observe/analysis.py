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

Without a DAG (bare event logs), the chain is inferred greedily from
timestamps alone — each step hops to the latest-finishing attempt that
started earlier — which preserves the sum invariant and is a good
proxy whenever dependencies follow time order (any DAGMan run).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate
from typing import TYPE_CHECKING

from repro.dagman.events import JobAttempt, WorkflowTrace
from repro.wms.statistics import critical_path

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dagman.dag import Dag

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
    #: "critical-path" (DAG-guided) or "timeline" (greedy fallback).
    method: str = "critical-path"

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

    def by_transformation(self) -> dict[str, dict[str, float]]:
        """Path seconds per transformation per bucket (idle has no
        transformation and is omitted)."""
        out: dict[str, dict[str, float]] = {}
        for seg in self.segments:
            if seg.transformation is None:
                continue
            row = out.setdefault(
                seg.transformation, {b: 0.0 for b in BUCKETS}
            )
            row[seg.bucket] += seg.duration
        return out

    def by_site(self) -> dict[str, dict[str, float]]:
        """Path seconds per execution site per bucket."""
        out: dict[str, dict[str, float]] = {}
        for seg in self.segments:
            if seg.site is None:
                continue
            row = out.setdefault(seg.site, {b: 0.0 for b in BUCKETS})
            row[seg.bucket] += seg.duration
        return out


def _chain_from_timeline(trace: WorkflowTrace) -> list[JobAttempt]:
    """DAG-free fallback: hop backward to the latest-finishing job that
    was first submitted strictly before the current one."""
    # (first submit, rank in the trace, final attempt), by first submit.
    # The cutoff only moves left, so each hop reads a prefix arg-max of
    # final ``exec_end``; the earlier job in the trace wins a tie.
    jobs = sorted(
        (attempts[0].submit_time, rank, attempts[-1])
        for rank, attempts in enumerate(trace.by_job().values())
    )
    submits = [submit for submit, _, _ in jobs]
    latest = list(
        accumulate(
            jobs, partial(max, key=lambda j: (j[2].exec_end, -j[1]))
        )
    )
    hop = len(jobs)
    chain = []
    while hop:
        cutoff, _, current = latest[hop - 1]
        chain.append(current)
        hop = bisect_left(submits, cutoff - _EPS)
    chain.reverse()
    return chain


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
    # A pathological chain that stops short of the last completion (only
    # possible for the timeline fallback on overlapping-start traces)
    # closes with an idle tile so the sum invariant still holds.
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
    trace: WorkflowTrace, dag: "Dag | None" = None
) -> MakespanAttribution:
    """Decompose the trace's makespan along its realized critical path.

    Pass the executed ``dag`` (a :class:`repro.dagman.dag.Dag`) for the
    true dependency-guided path; without it a timestamp-greedy chain is
    used (``method="timeline"``). Either way the returned buckets tile
    the makespan exactly.
    """
    method = "critical-path" if dag is not None else "timeline"
    if len(trace) == 0:
        return MakespanAttribution(
            makespan_s=0.0, start_s=0.0, end_s=0.0,
            buckets={b: 0.0 for b in BUCKETS}, method=method,
        )
    chain = (
        critical_path(trace, dag, attempts="final")
        if dag is not None
        else _chain_from_timeline(trace)
    )
    start_s, end_s, buckets, segments = tile_path(trace, chain)
    return MakespanAttribution(
        makespan_s=end_s - start_s,
        start_s=start_s,
        end_s=end_s,
        buckets=buckets,
        segments=segments,
        path_jobs=[a.job_name for a in chain],
        method=method,
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
