"""``pegasus-analyzer`` equivalent: explain what went wrong.

Given a finished run's trace and the names of the planned jobs (all
``repro-analyzer`` has), produce the familiar post-mortem: per-job attempt
history for everything that failed, which jobs never became runnable
because an ancestor failed, and a one-line verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.dagman.events import JobAttempt, WorkflowTrace

__all__ = ["JobDiagnosis", "AnalyzerReport", "analyze", "render_analysis"]


@dataclass(frozen=True)
class JobDiagnosis:
    """One failed job's story."""

    job_name: str
    attempts: tuple[JobAttempt, ...]

    @property
    def last_error(self) -> str:
        for attempt in reversed(self.attempts):
            if attempt.error:
                return attempt.error
        return "(no error recorded)"


@dataclass
class AnalyzerReport:
    """The analyzer's full output."""

    success: bool
    total_jobs: int
    done: int
    failed: list[JobDiagnosis] = field(default_factory=list)
    unrunnable: list[str] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        if self.success:
            return "all jobs completed successfully"
        return (
            f"{len(self.failed)} job(s) failed, "
            f"{len(self.unrunnable)} never became runnable"
        )


def analyze(trace: WorkflowTrace, jobs: Iterable[str]) -> AnalyzerReport:
    """Build the post-mortem of a finished run: ``jobs`` names what was
    planned (a ``DagmanResult``'s ``states``, a plan's ``dag.jobs``)."""
    by_job = trace.by_job()
    names = by_job.keys() | set(jobs)
    done = {attempt.job_name for attempt in trace.successful()}
    pending = sorted(names - done)
    return AnalyzerReport(
        success=not pending,
        total_jobs=len(names),
        done=len(done),
        failed=[
            JobDiagnosis(name, tuple(by_job[name]))
            for name in pending
            if name in by_job
        ],
        unrunnable=[name for name in pending if name not in by_job],
    )


def render_analysis(report: AnalyzerReport) -> str:
    """Human-readable analyzer output."""
    lines = [
        "************************************",
        f"* analyzer: {report.verdict}",
        "************************************",
        f"total jobs: {report.total_jobs}   done: {report.done}   "
        f"failed: {len(report.failed)}   unrunnable: {len(report.unrunnable)}",
    ]
    for diag in report.failed:
        lines.append("")
        lines.append(f"==== {diag.job_name} ====")
        for attempt in diag.attempts:
            lines.append(
                f"  attempt {attempt.attempt}: {attempt.status.value} on "
                f"{attempt.machine} (site {attempt.site}) after "
                f"{attempt.total_time:.0f}s"
            )
        lines.append(f"  last error: {diag.last_error.strip().splitlines()[-1]}")
    if report.unrunnable:
        lines.append("")
        lines.append("jobs blocked by failed ancestors: " + ", ".join(report.unrunnable))
    return "\n".join(lines)
