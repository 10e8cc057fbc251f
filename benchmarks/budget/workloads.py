"""The six workloads of the host-time budget.

Each workload builds its inputs once from the seed (``__init__``), runs
one *op* per call (``op`` — the timed region, nothing else is timed)
and then inspects what the op produced (``check`` — untimed; raises
:class:`CheckFailed`, which counts the op as failed). Every op of a run
does identical work, so the simulated statistics and the fingerprint
``check`` returns must repeat exactly from op to op.

``layered_dag`` and ``FastEnvironment`` are copies of the helpers in
``benchmarks/bench_engine_throughput.py``: a later edit to the legacy
benches must not change a workload.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path
from typing import Any

from repro.dagman.dag import Dag, DagJob
from repro.dagman.events import JobAttempt, JobStatus, WorkflowTrace
from repro.dagman.scheduler import DagmanScheduler
from repro.observe import AnomalyMonitor, EventBus, SpanTracer, instrument
from repro.resilience import (
    CrashFault,
    CrashInjected,
    Journal,
    recover,
    run_with_recovery,
)
from repro.service.loadgen import LoadSpec, run_load
from repro.sim.cluster import CampusCluster
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.wms.cli import main_plan, main_run
from repro.wms.monitor import read_trace


class CheckFailed(Exception):
    """An op finished but its outputs are wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def layered_dag(n: int, seed: int = 0, width: int = 100) -> Dag:
    """``width`` jobs per layer, each depending on two jobs of the
    previous layer, with mixed priorities so the ready heap has ordering
    work to do. The seed shifts the runtime and priority patterns."""
    dag = Dag(name=f"layered-{n}")
    names = [f"j{i:07d}" for i in range(n)]
    for i, name in enumerate(names):
        dag.add_job(
            DagJob(
                name=name,
                transformation="synthetic",
                runtime=1.0 + ((i + seed) % 7),
                priority=((i + seed) * 31) % 5 - 2,
            )
        )
    for i in range(width, n):
        base = (i // width - 1) * width
        dag.add_edge(names[base + i % width], names[i])
        dag.add_edge(names[base + (i + 1) % width], names[i])
    return dag


class FastEnvironment:
    """Minimal simulator-backed environment: every attempt succeeds
    after its runtime. What is left is scheduler + engine cost."""

    def __init__(self) -> None:
        self.sim = Simulator()

    @property
    def now(self) -> float:
        return self.sim.now

    def submit(self, job: DagJob, on_complete: Any, *, attempt: int = 1) -> None:
        submit_time = self.sim.now

        def finish() -> None:
            on_complete(
                JobAttempt(
                    job_name=job.name,
                    transformation=job.transformation,
                    site="bench",
                    machine="m",
                    attempt=attempt,
                    submit_time=submit_time,
                    setup_start=submit_time,
                    exec_start=submit_time,
                    exec_end=self.sim.now,
                    status=JobStatus.SUCCEEDED,
                )
            )

        self.sim.schedule(job.runtime, finish)

    def run_until_complete(self) -> None:
        self.sim.run()


def trace_stats(
    trace: WorkflowTrace, jobs: int, *, spans: int = 0, alerts: int = 0
) -> dict[str, Any]:
    """What ``check`` returns: ``jobs`` (the numerator of jobs_per_s)
    and the ``sim.*`` values, from the op's merged attempt trace."""
    digest = hashlib.sha256()
    for a in trace:
        digest.update(
            f"{a.job_name} {a.attempt} {a.machine} {a.status.value} "
            f"{a.submit_time!r} {a.exec_end!r}\n".encode()
        )
    return {
        "jobs": jobs,
        "sim.makespan_s": trace.wall_time(),
        "sim.attempts": len(trace),
        "sim.retries": trace.retry_count,
        "sim.succeeded": len({a.job_name for a in trace.successful()}),
        "sim.spans": spans,
        "sim.alerts": alerts,
        "sim.fingerprint": digest.hexdigest(),
    }


class Workload:
    """One row of the workload table (see README.md)."""

    name = ""
    why = ""
    #: the layer that keeps whatever no wrapper claims
    root = "harness.driver"

    def __init__(self, seed: int, smoke: bool) -> None:
        """``smoke`` shrinks the inputs to selftest size."""
        self.seed = seed

    def op(self, work: Path) -> Any:
        raise NotImplementedError

    def check(self, result: Any, work: Path) -> dict[str, Any]:
        raise NotImplementedError

    def artefact_bytes(self, work: Path) -> int:
        """Bytes the op left in its submit directory (CLI workloads)."""
        return 0

    def journal_dir(self, work: Path) -> Path | None:
        return None


class CliRun(Workload):
    """``repro-plan`` then ``repro-run`` in a fresh submit directory."""

    root = "wms.cli"
    site = ""
    journal = False

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.clusters = 12 if smoke else 300
        self.jobs = self.clusters + 9

    def journal_dir(self, work: Path) -> Path | None:
        return work / "journal" if self.journal else None

    def op(self, work: Path) -> tuple[int, str]:
        submit = str(work / "submit")
        run_args = ["--submit-dir", submit, "--seed", str(self.seed)]
        if self.journal:
            run_args += ["--journal", str(work / "journal")]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = main_plan(
                ["--submit-dir", submit, "-n", str(self.clusters),
                 "--site", self.site, "--retries", "20"]
            ) or main_run(run_args)
        return code, out.getvalue()

    def artefact_bytes(self, work: Path) -> int:
        return sum(p.stat().st_size for p in (work / "submit").iterdir())

    def check(self, result: tuple[int, str], work: Path) -> dict[str, Any]:
        code, printed = result
        require(code == 0, f"exit code {code}: {printed[-300:]}")
        submit = work / "submit"
        spans = re.search(r"(\d+) spans", printed)
        alerts = re.search(r"anomalies: (\d+) alert", printed)
        stats = trace_stats(
            read_trace(submit / "trace.jsonl"),
            self.jobs,
            spans=int(spans.group(1)) if spans else 0,
            alerts=int(alerts.group(1)) if alerts else 0,
        )
        require(stats["sim.succeeded"] == self.jobs,
                f"{stats['sim.succeeded']} of {self.jobs} jobs succeeded")
        # The fingerprint covers all seven artefacts plus the plan, so an
        # exporter change that alters a byte shows as a changed sim.* value.
        digest = hashlib.sha256()
        for path in sorted(submit.iterdir()):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        stats["sim.fingerprint"] = digest.hexdigest()
        return stats


class CliSandhills(CliRun):
    name = "cli_sandhills_n300"
    why = ("paper-scale run through the real CLI with the full observer "
           "stack and all seven artefacts; exporters do most of the work, "
           "grid, matchmaker, journal and service do none")
    site = "sandhills"


class CliOsgJournal(CliRun):
    name = "cli_osg_n300_journal"
    why = ("same path on the opportunistic grid with --journal: retries, "
           "setup, matchmaker and WAL ride along, so a grid or journal "
           "change shows here and must not show on the Sandhills row")
    site = "osg"
    journal = True


class EngineLayered(Workload):
    name = "engine_layered_100k"
    why = ("engine and scheduler do all the work, no platform and no bus; "
           "heap depth, per-job objects and GC show here, and observer or "
           "export changes must predict no change")

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.jobs = 2_000 if smoke else 100_000
        self.dag = layered_dag(self.jobs, seed)

    def op(self, work: Path) -> Any:
        return DagmanScheduler(self.dag, FastEnvironment(), max_jobs=200).run()

    def check(self, result: Any, work: Path) -> dict[str, Any]:
        require(result.success, "scheduler run failed")
        stats = trace_stats(result.trace, self.jobs)
        require(stats["sim.succeeded"] == self.jobs,
                f"{stats['sim.succeeded']} of {self.jobs} jobs succeeded")
        return stats


class ServiceLoad(Workload):
    """8 tenants x 2 workflows through ``run_load`` (rate 2/min,
    weights (2, 1), retries 10).

    The platform draw — the machine pool and which workflows require
    software — is part of the workload's definition: on the grid another
    draw changes the op's cost twentyfold (0.3-6.5 s over seeds 0-9). So
    ``run_load`` always gets simulation seed 0, and the benchmark seed
    raises the per-tenant arrival rate by ``seed % 64`` tenths of a
    percent, which moves the find count by about 1 %.
    """

    backend = ""
    jobs_per_workflow = 0
    require_software_prob = 0.0
    observed = False

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.spec = LoadSpec(
            tenants=8,
            workflows_per_tenant=2,
            jobs_per_workflow=12 if smoke else self.jobs_per_workflow,
            workflows_per_minute=2.0 * (1 + (seed % 64) / 1000),
            tenant_weights=(2.0, 1.0),
            require_software_prob=self.require_software_prob,
            retries=10,
        )
        self.workflows = self.spec.tenants * self.spec.workflows_per_tenant

    def op(self, work: Path) -> tuple[dict[str, Any], int, int]:
        if not self.observed:
            # bus=None is the `repro-service bench` default: a deaf bus.
            return run_load(self.spec, backend=self.backend, seed=0), 0, 0
        bus = EventBus()
        instrument(bus)
        tracer = SpanTracer(bus=bus)
        monitor = AnomalyMonitor(bus)
        result = run_load(self.spec, backend=self.backend, seed=0, bus=bus)
        return result, len(tracer.finish()), len(monitor.alerts)

    def check(self, result: tuple[dict[str, Any], int, int], work: Path) -> dict[str, Any]:
        load, spans, alerts = result
        require(load["workflows_succeeded"] == self.workflows,
                f"{load['workflows_succeeded']} of {self.workflows} "
                "workflows succeeded")
        total_jobs = self.workflows * self.spec.jobs_per_workflow
        account = [row["account"] for row in load["slo"].values()]
        return {
            # Attempts released to the platform: what the pump dispatched.
            "jobs": load["jobs_released"],
            "sim.makespan_s": load["makespan_s"],
            "sim.attempts": load["jobs_released"],
            "sim.retries": load["jobs_released"] - total_jobs,
            "sim.succeeded": load["workflows_succeeded"],
            "sim.spans": spans,
            "sim.alerts": alerts,
            "sim.fingerprint": hashlib.sha256(
                json.dumps([load["makespan_s"], load["slo"], account],
                           sort_keys=True).encode()
            ).hexdigest(),
        }


class ServiceGridReqsw(ServiceLoad):
    name = "svc_grid_reqsw"
    why = ("grid dispatch and the matchmaker do nearly all the work "
           "(O(queue) rescans of unmatched software-requiring jobs); the "
           "workload a wait index must move")
    backend = "grid"
    jobs_per_workflow = 60
    require_software_prob = 0.5


class ServiceClusterObserved(ServiceLoad):
    name = "svc_cluster_observed"
    why = ("service pump and platform without the matchmaker, observer "
           "ingest without exporters: a matchmaker gain must not move it, "
           "an observer ingest gain must")
    backend = "cluster"
    jobs_per_workflow = 1000
    observed = True


class JournalResume(Workload):
    name = "journal_resume_20k"
    why = ("journal write path beside its read path (crash, recover, "
           "resume) in one op, so a WAL-coalescing gain that slows "
           "recovery shows")

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.jobs = 400 if smoke else 20_000
        self.crash_at = 600 if smoke else 30_000
        self.dag = layered_dag(self.jobs, seed)

    def journal_dir(self, work: Path) -> Path | None:
        return work / "journal"

    def _round(self, work: Path, *, crash: CrashFault | None, resume: Any) -> Any:
        """One manager process's worth of ``repro-run --journal``: a
        Sandhills platform whose bus carries only the journal."""
        bus = EventBus()
        simulator = Simulator(start_time=resume.clock if resume else 0.0)
        platform = CampusCluster(
            simulator, streams=RngStreams(seed=self.seed), bus=bus
        )
        journal = Journal(
            work / "journal", bus=bus, fsync="batch", crash=crash, resume=resume
        )
        try:
            return run_with_recovery(
                self.dag, platform, max_rounds=1, bus=bus,
                journal=journal, resume=resume,
            )
        finally:
            journal.close()

    def op(self, work: Path) -> tuple[bool, int, Any]:
        crashed = False
        try:
            self._round(work, crash=CrashFault(self.crash_at, mode="raise"),
                        resume=None)
        except CrashInjected:
            crashed = True
        recovered = recover(work / "journal")
        outcome = self._round(work, crash=None, resume=recovered)
        return crashed, recovered.replayed, outcome

    def check(self, result: tuple[bool, int, Any], work: Path) -> dict[str, Any]:
        crashed, replayed, outcome = result
        require(crashed, "the injected crash never fired")
        require(replayed > 0, "recovery replayed no record")
        require(outcome.success, "the resumed run failed")
        stats = trace_stats(outcome.trace, self.jobs)
        stats["resilience.journal.replayed"] = replayed
        # Exactly one attempt per job: nothing journaled complete re-ran.
        require(stats["sim.attempts"] == self.jobs,
                f"merged trace holds {stats['sim.attempts']} attempts, "
                f"want {self.jobs}")
        require(stats["sim.succeeded"] == self.jobs,
                f"{stats['sim.succeeded']} of {self.jobs} jobs succeeded")
        return stats


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        CliSandhills,
        CliOsgJournal,
        EngineLayered,
        ServiceGridReqsw,
        ServiceClusterObserved,
        JournalResume,
    )
}
