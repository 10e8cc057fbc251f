"""Per-attempt job records — the trace schema of the whole system.

Both execution backends (the real local executor and the discrete-event
platform simulators) emit one :class:`JobAttempt` per try of each job.
``pegasus-statistics`` style reports (:mod:`repro.wms.statistics`) are
pure functions over a :class:`WorkflowTrace`, so the same reporting code
analyses real and simulated runs.

Timestamp semantics (all in the backend's clock):

* ``submit_time`` — DAGMan handed the job to the platform;
* ``setup_start`` — a slot was acquired and the job began staging /
  download-install work (``setup_start - submit_time`` is the paper's
  **Waiting Time**);
* ``exec_start`` — the payload started (``exec_start - setup_start`` is
  the paper's **Download/Install Time**);
* ``exec_end`` — the payload finished, failed, or was evicted
  (``exec_end - exec_start`` is the paper's **Kickstart Time**).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterator, Mapping

__all__ = ["JobStatus", "ResourceProfile", "JobAttempt", "WorkflowTrace"]


class JobStatus(Enum):
    """Terminal state of one attempt."""

    SUCCEEDED = "succeeded"
    FAILED = "failed"
    EVICTED = "evicted"  # preempted by the resource owner (OSG)
    TIMEOUT = "timeout"  # killed after exceeding DagJob.timeout_s

    __hash__ = object.__hash__  # singletons; see EventKind

    @property
    def is_success(self) -> bool:
        return self is JobStatus.SUCCEEDED


@dataclass(frozen=True, slots=True)
class ResourceProfile:
    """Per-invocation resource accounting — the kickstart record's
    ``<usage>`` block.

    Real runs measure these with :func:`resource.getrusage` deltas
    around the payload (see :mod:`repro.observe.profile`); simulated
    runs attach deterministic model-derived equivalents so the same
    reports work over both. ``source`` says which it was.

    Units follow ``getrusage``: CPU seconds, kilobytes for the RSS
    high-water mark, block-I/O operation counts.
    """

    cpu_user_s: float = 0.0
    cpu_sys_s: float = 0.0
    max_rss_kb: int = 0
    read_ops: int = 0
    write_ops: int = 0
    source: str = "measured"  # "measured" | "modelled"

    def __post_init__(self) -> None:
        if self.cpu_user_s < 0 or self.cpu_sys_s < 0:
            raise ValueError("CPU times must be >= 0")
        if self.max_rss_kb < 0 or self.read_ops < 0 or self.write_ops < 0:
            raise ValueError("rss/io counters must be >= 0")

    @property
    def cpu_s(self) -> float:
        """Total CPU time (user + system)."""
        return self.cpu_user_s + self.cpu_sys_s

    def cpu_utilization(self, wall_s: float) -> float:
        """CPU seconds per wall second (0 when ``wall_s`` is 0)."""
        return self.cpu_s / wall_s if wall_s > 0 else 0.0

    def to_json(self) -> dict[str, object]:
        """Flatten to JSON-able primitives (one log-line sub-object)."""
        return {
            "cpu_user_s": self.cpu_user_s,
            "cpu_sys_s": self.cpu_sys_s,
            "max_rss_kb": self.max_rss_kb,
            "read_ops": self.read_ops,
            "write_ops": self.write_ops,
            "source": self.source,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "ResourceProfile":
        return cls(
            cpu_user_s=float(data.get("cpu_user_s", 0.0)),  # type: ignore[arg-type]
            cpu_sys_s=float(data.get("cpu_sys_s", 0.0)),  # type: ignore[arg-type]
            max_rss_kb=int(data.get("max_rss_kb", 0)),  # type: ignore[arg-type]
            read_ops=int(data.get("read_ops", 0)),  # type: ignore[arg-type]
            write_ops=int(data.get("write_ops", 0)),  # type: ignore[arg-type]
            source=str(data.get("source", "measured")),
        )


@dataclass(frozen=True, slots=True)
class JobAttempt:
    """One try of one job on one machine."""

    job_name: str
    transformation: str
    site: str
    machine: str
    attempt: int
    submit_time: float
    setup_start: float
    exec_start: float
    exec_end: float
    status: JobStatus
    error: str | None = None
    #: Resource accounting for the payload window (None when the
    #: attempt never reached execution, e.g. dead-on-arrival).
    profile: ResourceProfile | None = None

    def __post_init__(self) -> None:
        if self.attempt < 1:
            raise ValueError("attempt numbers start at 1")
        if not (
            self.submit_time
            <= self.setup_start
            <= self.exec_start
            <= self.exec_end
        ):
            raise ValueError(
                "timestamps must be ordered submit <= setup <= start <= end "
                f"for {self.job_name!r}: {self.submit_time}, "
                f"{self.setup_start}, {self.exec_start}, {self.exec_end}"
            )

    def to_json(self) -> dict[str, object]:
        """Flatten to JSON-able primitives — the attempt record every
        log shares: a ``trace.jsonl`` line verbatim, and the tail of an
        ``events.jsonl`` / journal terminal line. Key order is part of
        the format (artefacts are pinned byte for byte)."""
        out: dict[str, object] = {
            "job_name": self.job_name,
            "transformation": self.transformation,
            "site": self.site,
            "machine": self.machine,
            "attempt": self.attempt,
            "submit_time": self.submit_time,
            "setup_start": self.setup_start,
            "exec_start": self.exec_start,
            "exec_end": self.exec_end,
            "status": self.status.value,
        }
        if self.error:
            out["error"] = self.error
        if self.profile is not None:
            out["profile"] = self.profile.to_json()
        return out

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "JobAttempt":
        """Inverse of :meth:`to_json`; extra keys are ignored. Raises
        ``KeyError`` / ``ValueError`` / ``TypeError`` on a mapping that
        is not an attempt record."""
        profile = data.get("profile")
        return cls(
            job_name=data["job_name"],
            transformation=data["transformation"],
            site=data["site"],
            machine=data["machine"],
            attempt=data["attempt"],
            submit_time=data["submit_time"],
            setup_start=data["setup_start"],
            exec_start=data["exec_start"],
            exec_end=data["exec_end"],
            status=JobStatus(data["status"]),
            error=data.get("error"),
            profile=(
                ResourceProfile.from_json(profile)
                if isinstance(profile, dict)
                else None
            ),
        )

    @property
    def waiting_time(self) -> float:
        """Paper's "Waiting Time": submit-host + remote-queue waiting."""
        return self.setup_start - self.submit_time

    @property
    def download_install_time(self) -> float:
        """Paper's "Download/Install Time" (zero on the campus cluster)."""
        return self.exec_start - self.setup_start

    @property
    def kickstart_time(self) -> float:
        """Paper's "Kickstart Time": actual payload duration."""
        return self.exec_end - self.exec_start

    @property
    def total_time(self) -> float:
        return self.exec_end - self.submit_time


@dataclass
class WorkflowTrace:
    """All attempts of one workflow run."""

    attempts: list[JobAttempt] = field(default_factory=list)

    def add(self, attempt: JobAttempt) -> None:
        self.attempts.append(attempt)

    def __len__(self) -> int:
        return len(self.attempts)

    def __iter__(self) -> Iterator[JobAttempt]:
        return iter(self.attempts)

    def by_job(self) -> dict[str, list[JobAttempt]]:
        """Every job's attempts in time order, ``(submit_time,
        attempt)``: attempt numbers restart at 1 in each rescue round
        and a resumed in-flight attempt re-runs under its old number,
        so the number alone does not order a job's history. Jobs come
        in first-seen order; built per call (the trace is mutable)."""
        jobs: dict[str, list[JobAttempt]] = {}
        for attempt in self.attempts:
            jobs.setdefault(attempt.job_name, []).append(attempt)
        for attempts in jobs.values():
            attempts.sort(key=lambda a: (a.submit_time, a.attempt))
        return jobs

    def for_job(self, job_name: str) -> list[JobAttempt]:
        """All attempts of one job, in time order (see :meth:`by_job`)."""
        return self.by_job().get(job_name, [])

    def final_attempts(
        self, *, successful_only: bool = False
    ) -> dict[str, JobAttempt]:
        """Each job's final attempt — its latest *submitted*, not its
        highest numbered; with ``successful_only`` the latest successful
        one, of the jobs that have one."""
        trace = WorkflowTrace(self.successful()) if successful_only else self
        return {job: attempts[-1] for job, attempts in trace.by_job().items()}

    def successful(self) -> list[JobAttempt]:
        """Every successful attempt, in trace order."""
        return [a for a in self.attempts if a.status.is_success]

    def failures(self) -> list[JobAttempt]:
        """Every non-successful attempt (failures and evictions)."""
        return [a for a in self.attempts if not a.status.is_success]

    @property
    def retry_count(self) -> int:
        """Every re-submission of a job: attempts minus distinct jobs.

        Numbering restarts in each rescue round and a resumed attempt
        re-runs under its old number (see :meth:`by_job`), so this
        counts rescue-round and resume re-submits as well as DAGMan's
        in-round requeues; ``metrics.json``'s ``retries_total`` counts
        only the requeues.
        """
        return len(self.attempts) - len({a.job_name for a in self.attempts})

    def wall_time(self) -> float:
        """Workflow makespan: first submit to last completion."""
        if not self.attempts:
            return 0.0
        start = min(a.submit_time for a in self.attempts)
        end = max(a.exec_end for a in self.attempts)
        return end - start

    def cumulative_kickstart(self) -> float:
        """Sum of successful payload durations (pegasus-statistics'
        "cumulative job wall time")."""
        return sum(a.kickstart_time for a in self.successful())

    def profiled(self) -> list[JobAttempt]:
        """Attempts that carry a :class:`ResourceProfile`."""
        return [a for a in self.attempts if a.profile is not None]

    def cumulative_cpu(self) -> float:
        """Total CPU seconds across profiled attempts (user + system)."""
        return sum(a.profile.cpu_s for a in self.profiled())  # type: ignore[union-attr]

    def peak_rss_kb(self) -> int:
        """Largest per-attempt RSS high-water mark (0 if unprofiled)."""
        profiles = self.profiled()
        if not profiles:
            return 0
        return max(a.profile.max_rss_kb for a in profiles)  # type: ignore[union-attr]
