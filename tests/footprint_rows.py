"""The byte counts ``tests/test_footprint.py`` bounds, one group of rows
per child interpreter.

``python tests/footprint_rows.py GROUP`` prints one group's figures as
a JSON object, label -> bytes per job:

* ``graph`` — ``dag``, ``scheduler`` and ``run``: what a built DAG
  retains, what a started scheduler holds beyond it, and what one
  finished run over it hands back (each row is measured from the one
  before, so the three share a process);
* ``spans`` — what a finished ``SpanTracer`` holds;
* ``journal`` — ``journal`` and ``recovered``: what a live journal
  keeps per terminal record, and what recovering that journal retains
  per attempt.

This module imports nothing but the standard library at the top, and
each group imports only what it measures: a figure must not depend on
what else the interpreter has loaded. Measured in one process with
every group's modules loaded, the ``spans`` row read 1 091.6 B/job on
the same tracer code that read 1 112.6 while the test module imported
fewer of them; alone in its child it reads 1 112.3.
"""

from __future__ import annotations

import gc
import json
import sys
import tempfile
import tracemalloc
from pathlib import Path

JOBS = 10_000
WIDTH = 100

#: The tenant run the tracer folds: 2 tenants x 2 workflows x 1 000 jobs.
TENANTS, WORKFLOWS_PER_TENANT, JOBS_PER_WORKFLOW = 2, 2, 1_000
TENANT_JOBS = TENANTS * WORKFLOWS_PER_TENANT * JOBS_PER_WORKFLOW

#: The journaled run: a layered DAG on the campus cluster, which runs
#: each job once, so a terminal record and an attempt are a job each.
JOURNAL_JOBS = 4_000


def layered_dag(n: int = JOBS, width: int = WIDTH):
    """``width`` jobs per layer, each depending on two jobs of the layer
    above — the shape of the budget's ``engine_layered_100k``."""
    from repro.dagman.dag import Dag, DagJob

    dag = Dag(name=f"layered-{n}")
    names = [f"j{i:07d}" for i in range(n)]
    for i, name in enumerate(names):
        dag.add_job(
            DagJob(
                name=name,
                transformation="synthetic",
                runtime=1.0 + i % 7,
                priority=(i * 31) % 5 - 2,
            )
        )
    for i in range(width, n):
        base = (i // width - 1) * width
        dag.add_edge(names[base + i % width], names[i])
        dag.add_edge(names[base + (i + 1) % width], names[i])
    return dag


def retained() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def graph_bytes() -> dict[str, float]:
    """Bytes per job retained by the built DAG, by a started scheduler
    beyond it (its per-job state, and the first ready layer submitted),
    and by the result of one finished run over it (scheduler and engine
    let go)."""
    from repro.dagman.events import JobAttempt, JobStatus
    from repro.dagman.scheduler import DagmanScheduler
    from repro.sim.engine import Simulator

    class InstantEnvironment:
        """Every attempt succeeds after its runtime; nothing is kept."""

        def __init__(self) -> None:
            self.sim = Simulator()

        @property
        def now(self) -> float:
            return self.sim.now

        def submit(self, job, on_complete, *, attempt=1) -> None:
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

    tracemalloc.start()
    try:
        start = retained()
        dag = layered_dag()
        built = retained()
        scheduler = DagmanScheduler(dag, InstantEnvironment(), max_jobs=200)
        scheduler.start()
        started = retained()
        scheduler.environment.run_until_complete()
        result = scheduler.finish()
        del scheduler
        assert result.success
        finished = retained()
        assert len(result.trace) == len(dag) == JOBS
    finally:
        tracemalloc.stop()
    return {
        "dag": (built - start) / JOBS,
        "scheduler": (started - built) / JOBS,
        "run": (finished - built) / JOBS,
    }


def span_bytes() -> dict[str, float]:
    """Bytes per job that ``repro/observe/trace.py`` allocated and a
    finished ``SpanTracer`` still holds after a tenant run. Two frames
    of traceback reach a span's fields through the dataclass
    ``__init__``, whose code is not in that file."""
    from repro.observe import trace
    from repro.observe.bus import EventBus
    from repro.service.loadgen import LoadSpec, run_load

    load = LoadSpec(
        tenants=TENANTS,
        workflows_per_tenant=WORKFLOWS_PER_TENANT,
        jobs_per_workflow=JOBS_PER_WORKFLOW,
    )
    bus = EventBus()
    tracemalloc.start(2)
    try:
        tracer = trace.SpanTracer(bus=bus)
        run_load(load, backend="cluster", seed=0, bus=bus)
        tracer.finish()
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = snapshot.filter_traces(
        [tracemalloc.Filter(True, trace.__file__, all_frames=True)]
    )
    return {"spans": sum(t.size for t in held.traces) / TENANT_JOBS}


def journal_bytes() -> dict[str, float]:
    """Bytes per terminal record that ``repro/resilience/journal.py``
    allocated and a live ``Journal`` still holds once ``snapshot()``
    has returned, after journaling a ``JOURNAL_JOBS``-job run; and
    bytes per attempt retained by the ``RecoveredState`` of that
    journal once it is closed."""
    from repro.observe.bus import EventBus
    from repro.resilience import journal
    from repro.resilience.recovery import run_with_recovery
    from repro.sim.cluster import CampusCluster
    from repro.sim.engine import Simulator
    from repro.sim.rng import RngStreams

    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "journal"
        bus = EventBus()
        platform = CampusCluster(Simulator(), streams=RngStreams(seed=0), bus=bus)
        dag = layered_dag(JOURNAL_JOBS)
        tracemalloc.start()
        try:
            live = journal.Journal(directory, bus=bus)
            outcome = run_with_recovery(
                dag, platform, max_rounds=1, bus=bus, journal=live
            )
            assert outcome.success
            live.snapshot()
            gc.collect()
            snapshot = tracemalloc.take_snapshot()
            live.close()
            del outcome, platform
            start = retained()
            recovered = journal.recover(directory)
            held = retained() - start
        finally:
            tracemalloc.stop()
        assert len(recovered.attempts) == JOURNAL_JOBS
    kept = snapshot.filter_traces([tracemalloc.Filter(True, journal.__file__)])
    return {
        "journal": sum(t.size for t in kept.traces) / JOURNAL_JOBS,
        "recovered": held / JOURNAL_JOBS,
    }


#: group -> the function that measures its rows
GROUPS = {"graph": graph_bytes, "spans": span_bytes, "journal": journal_bytes}


if __name__ == "__main__":
    print(json.dumps(GROUPS[sys.argv[1]]()))
