"""What a job costs on the submit host, as byte counts.

The host keeps the whole planned DAG and every attempt record resident
while DAGMan drives a run, so bytes per job is a cost in its own right
(it is most of ``peak_rss_mb`` on the budget's ``engine_layered_100k``).
``tracemalloc`` reads it to the byte and the figure repeats, so it is
gated here and no RSS reading is: what a 10 000-job two-parent layered
DAG retains once built, what a ``DagmanScheduler`` over it holds beyond
the DAG once ``start()`` has returned (its per-job state, and the first
ready layer on the platform), and what one finished run hands back
(the attempt trace, one record per job, and the final state per job),
each divided by the job count; and what a ``SpanTracer`` keeps once it
has folded a 4 000-job tenant run on the cluster backend and
``finish()`` has returned (the allocations made inside
``repro/observe/trace.py``, per job), the tracer being the largest
observer of the budget's ``svc_cluster_observed``; and, for a 4 000-job
layered DAG journaled on the campus cluster (one attempt per job), what
the live ``Journal`` keeps once ``snapshot()`` has returned (the
allocations made inside ``repro/resilience/journal.py``, per terminal
record) and what ``recover()`` of the closed journal retains (per
attempt), the two halves of the budget's ``journal_resume_20k``.
The structural facts the figures rest on are asserted beside them:
``Dag`` stores each edge once, in one child container per job, and the
three per-job records carry no ``__dict__`` — nor does ``RunEvent``, of
which a live-bus job builds five (six under a tagged scheduler) and an
event recorder keeps every one, nor a ``Span`` or ``SpanLink``.

``python tests/test_footprint.py`` prints the table (CI's 'Footprint'
step, so every Python of the matrix logs its own figures) and exits 1
past any bound. The bounds were set on CPython 3.11 — 298, 90 and 181
B/job, against 459 and 156 while every job's children were a ``set``
and the scheduler kept them as a tuple of ids per job, and 743 and 229
(for the DAG and the run) while ``Dag`` mirrored its edges in
``_parents`` and the records were dict-backed; 1 112 B/job for the
tracer, against 1 710 while spans were dict-backed with a list of links
each, the occurrence counter was keyed by ``"kind:name"`` strings and
every job kept a dict of its attempts; 68 B per record for the live
journal, against 535 while its state kept every terminal record's
bytes (69 while it held those since its last snapshot), and 597 B per
recovered attempt, against 1 355 while recovery kept the sidecar's
lines beside the attempts and each attempt its own copy of its
transformation, site, machine and profile source, and 654 while each
attempt kept its own copy of its job name, which the done set also
holds — with about 12 %
slack for the object layouts of 3.10 and 3.12, which were not available
to measure.
"""

from __future__ import annotations

import gc
import tempfile
import tracemalloc
from pathlib import Path

import pytest

from repro.dagman.dag import Dag, DagJob
from repro.dagman.events import JobAttempt, JobStatus, ResourceProfile
from repro.dagman.scheduler import DagmanScheduler
from repro.observe import trace
from repro.observe.bus import EventBus
from repro.observe.events import EventKind, RunEvent
from repro.observe.trace import Span, SpanLink, SpanTracer
from repro.resilience import journal
from repro.resilience.journal import Journal, recover
from repro.resilience.recovery import run_with_recovery
from repro.service.loadgen import LoadSpec, run_load
from repro.sim.cluster import CampusCluster
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams

JOBS = 10_000
WIDTH = 100

#: The tenant run the tracer folds: 2 tenants x 2 workflows x 1 000 jobs.
TENANT_LOAD = LoadSpec(tenants=2, workflows_per_tenant=2, jobs_per_workflow=1_000)
TENANT_JOBS = (
    TENANT_LOAD.tenants * TENANT_LOAD.workflows_per_tenant
    * TENANT_LOAD.jobs_per_workflow
)

#: The journaled run: a layered DAG on the campus cluster, which runs
#: each job once, so a terminal record and an attempt are a job each.
JOURNAL_JOBS = 4_000

#: label -> most bytes per job it may retain.
BOUNDS = {
    "dag": 334, "scheduler": 102, "run": 200, "spans": 1_250,
    "journal": 76, "recovered": 668,
}


def layered_dag(n: int = JOBS, width: int = WIDTH) -> Dag:
    """``width`` jobs per layer, each depending on two jobs of the layer
    above — the shape of the budget's ``engine_layered_100k``."""
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


def retained() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def traced_bytes() -> float:
    """Bytes per job that ``repro/observe/trace.py`` allocated and a
    finished ``SpanTracer`` still holds after a tenant run. Two frames
    of traceback reach a span's fields through the dataclass
    ``__init__``, whose code is not in that file."""
    bus = EventBus()
    tracemalloc.start(2)
    try:
        tracer = SpanTracer(bus=bus)
        run_load(TENANT_LOAD, backend="cluster", seed=0, bus=bus)
        tracer.finish()
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = snapshot.filter_traces(
        [tracemalloc.Filter(True, trace.__file__, all_frames=True)]
    )
    return sum(t.size for t in held.traces) / TENANT_JOBS


def journal_bytes() -> tuple[float, float]:
    """Bytes per terminal record that ``repro/resilience/journal.py``
    allocated and a live ``Journal`` still holds once ``snapshot()``
    has returned, after journaling a ``JOURNAL_JOBS``-job run; and
    bytes per attempt retained by the ``RecoveredState`` of that
    journal once it is closed."""
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "journal"
        bus = EventBus()
        platform = CampusCluster(Simulator(), streams=RngStreams(seed=0), bus=bus)
        dag = layered_dag(JOURNAL_JOBS)
        tracemalloc.start()
        try:
            live = Journal(directory, bus=bus)
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
            recovered = recover(directory)
            held = retained() - start
        finally:
            tracemalloc.stop()
        assert len(recovered.attempts) == JOURNAL_JOBS
    kept = snapshot.filter_traces([tracemalloc.Filter(True, journal.__file__)])
    return (
        sum(t.size for t in kept.traces) / JOURNAL_JOBS,
        held / JOURNAL_JOBS,
    )


def measure() -> dict[str, float]:
    """Bytes per job retained by the built DAG, by a started scheduler
    beyond it (its per-job state, and the first ready layer submitted),
    by the result of one finished run over it (scheduler and engine let
    go), by a finished span tracer, by a live journal and by what
    recovery reads back from it."""
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
    live_journal, recovered = journal_bytes()
    return {
        "dag": (built - start) / JOBS,
        "scheduler": (started - built) / JOBS,
        "run": (finished - built) / JOBS,
        "spans": traced_bytes(),
        "journal": live_journal,
        "recovered": recovered,
    }


@pytest.fixture(scope="module")
def figures() -> dict[str, float]:
    return measure()


@pytest.mark.parametrize("label", BOUNDS)
def test_bytes_per_job(figures, label) -> None:
    assert figures[label] <= BOUNDS[label]


def test_dag_stores_each_edge_once() -> None:
    dag = layered_dag(3 * WIDTH)
    assert not hasattr(dag, "_parents")
    assert not hasattr(dag.rescue(done=()), "_parents")
    # One child container per job across everything the DAG holds, not
    # two; at two children each, a tuple (an empty one for the leaves).
    maps = [v for v in vars(dag).values() if isinstance(v, dict)]
    containers = [
        c for m in maps for c in m.values() if isinstance(c, (tuple, set))
    ]
    assert len(containers) == len(dag)
    assert all(type(c) is tuple for c in containers)


@pytest.mark.parametrize(
    "record",
    [
        DagJob(name="j", transformation="t"),
        JobAttempt("j", "t", "s", "m", 1, 0.0, 0.0, 0.0, 1.0, JobStatus.SUCCEEDED),
        ResourceProfile(),
        RunEvent(EventKind.SUBMIT, 0.0, "j", "t", None, None, 1, None, {}),
        Span("job:j", "job", "ab" * 16, "01" * 8, None, 0.0),
        SpanLink("ab" * 16, "01" * 8),
    ],
    ids=lambda record: type(record).__name__,
)
def test_records_have_no_dict(record) -> None:
    assert not hasattr(record, "__dict__")


def main() -> int:
    figures = measure()
    print(f"{'retained by':<12} {'B/job':>7} {'bound':>6}")
    failed = 0
    for label, bound in BOUNDS.items():
        over = figures[label] > bound
        failed += over
        print(f"{label:<12} {figures[label]:>7.1f} {bound:>6}"
              f"{'  FAIL' if over else ''}")
    print(f"({JOBS:,}-job two-parent layered DAG, a started scheduler, "
          f"one finished run; "
          f"span tracer of a {TENANT_JOBS:,}-job tenant run; "
          f"journal of a {JOURNAL_JOBS:,}-job cluster run, live and recovered)")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
