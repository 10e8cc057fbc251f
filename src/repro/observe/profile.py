"""Per-invocation resource profiling — kickstart's ``<usage>`` block.

``pegasus-kickstart`` records not just the payload's duration but its
CPU split, memory high-water mark and I/O counters; this module is our
equivalent, feeding :class:`~repro.dagman.events.ResourceProfile` (the
schema lives with :class:`~repro.dagman.events.JobAttempt` so every
layer below observe can carry it).

Two producers:

* **measured** — :class:`RusageProbe` wraps a real payload invocation
  in :func:`resource.getrusage` deltas (the local backend's workers);
  on platforms without :mod:`resource` (Windows) it degrades to
  ``time.process_time`` for CPU and zeros elsewhere.
* **modelled** — :func:`modelled_profile` derives deterministic
  equivalents for the discrete-event simulators from a
  per-transformation coefficient table, so simulated runs produce the
  same report shapes as real ones (clearly labelled
  ``source="modelled"``).
"""

from __future__ import annotations

import functools
import time

from repro.dagman.events import ResourceProfile

try:  # POSIX only; the fallback keeps Windows runs working.
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platform
    _resource = None  # type: ignore[assignment]

__all__ = ["RusageProbe", "modelled_profile", "MODEL_COEFFICIENTS"]


class RusageProbe:
    """Start/stop rusage sampler around one payload invocation.

    CPU times are per-thread where the OS supports it
    (``RUSAGE_THREAD``, Linux) so concurrent thread-pool payloads do
    not bill each other; the RSS high-water mark is necessarily
    process-wide either way (that is what ``ru_maxrss`` means).

    >>> probe = RusageProbe()
    >>> _ = sum(range(1000))
    >>> profile = probe.stop()
    >>> profile.cpu_user_s >= 0 and profile.source == "measured"
    True
    """

    def __init__(self) -> None:
        if _resource is not None:
            self._who = getattr(
                _resource, "RUSAGE_THREAD", _resource.RUSAGE_SELF
            )
            self._start = _resource.getrusage(self._who)
        else:  # pragma: no cover - non-POSIX platform
            self._start_cpu = time.process_time()

    def stop(self) -> ResourceProfile:
        """Snapshot the deltas since construction."""
        if _resource is None:  # pragma: no cover - non-POSIX platform
            return ResourceProfile(
                cpu_user_s=max(0.0, time.process_time() - self._start_cpu),
            )
        end = _resource.getrusage(self._who)
        # ru_maxrss is a high-water mark, not a rate: report the final
        # value (a delta would be 0 for any payload smaller than what
        # the process already touched, which is a lie in the report).
        return ResourceProfile(
            cpu_user_s=max(0.0, end.ru_utime - self._start.ru_utime),
            cpu_sys_s=max(0.0, end.ru_stime - self._start.ru_stime),
            max_rss_kb=int(end.ru_maxrss),
            read_ops=max(0, end.ru_inblock - self._start.ru_inblock),
            write_ops=max(0, end.ru_oublock - self._start.ru_oublock),
        )


#: Per-transformation coefficients for model-derived profiles:
#: (user CPU fraction of the exec window, system CPU fraction,
#: RSS high-water in KB, read ops/s, write ops/s). Memory figures
#: follow the workload: BLAST-style alignment holds the protein
#: database resident; CAP3 assembly peaks with the largest cluster;
#: list/merge/concat tasks stream.
MODEL_COEFFICIENTS: dict[str, tuple[float, float, int, float, float]] = {
    "create_transcript_list": (0.55, 0.20, 96_000, 160.0, 40.0),
    "create_alignment_list": (0.55, 0.20, 128_000, 200.0, 40.0),
    "split_alignments": (0.60, 0.25, 180_000, 240.0, 160.0),
    "run_cap3": (0.93, 0.04, 420_000, 60.0, 30.0),
    "merge_joined": (0.50, 0.30, 140_000, 220.0, 220.0),
    "merge_unjoined": (0.50, 0.30, 140_000, 220.0, 220.0),
    "concat_final": (0.40, 0.35, 72_000, 260.0, 260.0),
    "stage_in": (0.05, 0.25, 24_000, 400.0, 400.0),
    "stage_out": (0.05, 0.25, 24_000, 400.0, 400.0),
    "cleanup": (0.02, 0.10, 8_000, 20.0, 60.0),
}

_DEFAULT_COEFFICIENTS = (0.85, 0.08, 64_000, 120.0, 60.0)


@functools.lru_cache(maxsize=4096)
def _coefficients(transformation: str) -> tuple[float, float, int, float, float]:
    """A name's own row, else the first stem it starts with, else the
    default — resolved once per name, not once per attempt."""
    if transformation in MODEL_COEFFICIENTS:
        return MODEL_COEFFICIENTS[transformation]
    for stem, row in MODEL_COEFFICIENTS.items():
        if transformation.startswith(stem):
            return row
    return _DEFAULT_COEFFICIENTS


def modelled_profile(
    transformation: str,
    exec_s: float,
    *,
    speed: float = 1.0,
) -> ResourceProfile | None:
    """Deterministic model-derived profile for a simulated attempt.

    ``exec_s`` is the attempt's realized kickstart window; ``speed`` is
    the machine's relative speed (a faster machine does the same CPU
    work in less wall time, so utilization stays roughly constant while
    absolute CPU seconds shrink with the window). Returns ``None`` for
    attempts that never executed (``exec_s <= 0``) — matching the real
    backend, where a dead-on-arrival attempt has no usage block.

    Transformation names are matched on their stem before any planner
    decoration (``run_cap3_003`` → ``run_cap3``).
    """
    if exec_s <= 0:
        return None
    f_user, f_sys, rss_kb, read_rate, write_rate = _coefficients(transformation)
    return ResourceProfile(
        cpu_user_s=round(exec_s * f_user, 6),
        cpu_sys_s=round(exec_s * f_sys, 6),
        # Bigger inputs per wall-second on fast machines: nudge the
        # high-water mark with speed so heterogeneity shows up.
        max_rss_kb=int(rss_kb * (0.9 + 0.1 * max(speed, 0.0))),
        read_ops=int(exec_s * read_rate),
        write_ops=int(exec_s * write_rate),
        source="modelled",
    )
