"""``pegasus-plots`` equivalents: text gantt charts and utilization.

The paper's §III lists "useful statistics and plots about the workflow
performance" among Pegasus' tools. This module renders the two most
useful ones as monospace text (no plotting dependency):

* :func:`gantt` — one row per attempt, time flowing right; ``.`` is
  waiting, ``i`` is download/install, ``#`` is payload execution,
  ``x`` marks a failed/evicted end;
* :func:`utilization` — concurrently-running payload count over time,
  rendered as a bar column per time bin.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.dagman.events import WorkflowTrace

if TYPE_CHECKING:
    from repro.observe.sampler import UtilizationSample

__all__ = ["gantt", "utilization", "utilization_series"]

_BLOCKS = " ▁▂▃▄▅▆▇█"
_LABEL_WIDTH = 24  # gantt's job[attempt] column


def _scale(trace: WorkflowTrace) -> tuple[float, float]:
    start = min(a.submit_time for a in trace)
    end = max(a.exec_end for a in trace)
    return start, max(end - start, 1e-9)


def gantt(
    trace: WorkflowTrace,
    *,
    width: int = 72,
    max_rows: int = 40,
) -> str:
    """Render the run as a per-attempt timeline.

    Rows are ordered by submit time; with more attempts than
    ``max_rows``, the longest-running attempts are kept (those shape the
    makespan) and a summary line reports the omission.
    """
    if not len(trace):
        return "(empty trace)"
    start, span = _scale(trace)

    def col(t: float) -> int:
        return min(width - 1, int((t - start) / span * width))

    attempts = sorted(trace, key=lambda a: (a.submit_time, a.job_name))
    omitted = 0
    if len(attempts) > max_rows:
        keep = sorted(attempts, key=lambda a: -(a.exec_end - a.submit_time))
        keep_set = {id(a) for a in keep[:max_rows]}
        omitted = len(attempts) - max_rows
        attempts = [a for a in attempts if id(a) in keep_set]

    lines = []
    for a in attempts:
        row = [" "] * width
        for c in range(col(a.submit_time), col(a.setup_start)):
            row[c] = "."
        for c in range(col(a.setup_start), col(a.exec_start)):
            row[c] = "i"
        lo, hi = col(a.exec_start), col(a.exec_end)
        for c in range(lo, max(hi, lo + 1)):
            row[c] = "#"
        if not a.status.is_success:
            row[max(hi, lo)] = "x" if max(hi, lo) < width else "x"
        label = f"{a.job_name}[{a.attempt}]"[:_LABEL_WIDTH]
        lines.append(f"{label:<{_LABEL_WIDTH}} |{''.join(row)}|")
    header = (
        f"{'job[attempt]':<{_LABEL_WIDTH}} |{'t=0':<{max(width - 9, 0)}}"
        f"t={span:,.0f}s|"
    )
    out = [header, *lines]
    if omitted:
        out.append(f"(… {omitted} shorter attempts omitted)")
    out.append("legend: . waiting   i download/install   # running   x failed")
    return "\n".join(out)


def utilization(trace: WorkflowTrace, *, bins: int = 60) -> str:
    """Concurrent running-payload count over time, as a bar strip.

    >>> from repro.dagman.events import WorkflowTrace
    >>> utilization(WorkflowTrace())
    '(empty trace)'
    """
    if not len(trace):
        return "(empty trace)"
    start, span = _scale(trace)
    counts = [0] * bins
    for a in trace:
        lo = int((a.exec_start - start) / span * bins)
        hi = int((a.exec_end - start) / span * bins)
        for b in range(max(0, lo), min(bins, max(hi, lo + 1))):
            counts[b] += 1
    peak = max(counts) or 1
    strip = "".join(
        _BLOCKS[min(len(_BLOCKS) - 1, round(c / peak * (len(_BLOCKS) - 1)))]
        for c in counts
    )
    return (
        f"running jobs over time (peak {peak}, span {span:,.0f}s):\n"
        f"|{strip}|"
    )


def utilization_series(
    samples: "Iterable[UtilizationSample]", *, width: int = 72
) -> str:
    """Render a *sampled* utilization time series as a bar strip.

    Unlike :func:`utilization`, which reconstructs occupancy from
    attempt records after the fact, this renders what the
    :class:`~repro.observe.sampler.UtilizationSampler` actually measured
    during the run (busy platform slots per tick) — the live-monitoring
    counterpart. Samples are rebinned to ``width`` columns by averaging.
    """
    samples = list(samples)
    if not samples:
        return "(no samples)"
    busy = [s.busy for s in samples]
    span = samples[-1].time - samples[0].time
    if len(busy) > width:
        bins: list[float] = []
        for i in range(width):
            lo = i * len(busy) // width
            hi = max(lo + 1, (i + 1) * len(busy) // width)
            bins.append(sum(busy[lo:hi]) / (hi - lo))
        busy = bins  # type: ignore[assignment]
    peak = max(busy) or 1
    strip = "".join(
        _BLOCKS[min(len(_BLOCKS) - 1, round(b / peak * (len(_BLOCKS) - 1)))]
        for b in busy
    )
    return (
        f"sampled busy slots over time (peak {max(s.busy for s in samples)}, "
        f"{len(samples)} samples, span {span:,.0f}s):\n|{strip}|"
    )
