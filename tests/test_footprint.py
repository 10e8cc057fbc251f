"""What a job costs on the submit host, as byte counts.

The host keeps the whole planned DAG and every attempt record resident
while DAGMan drives a run, so bytes per job is a cost in its own right
(it is most of ``peak_rss_mb`` on the budget's ``engine_layered_100k``).
``tracemalloc`` reads it to the byte and the figure repeats, so it is
gated here and no RSS reading is: what a 10 000-job two-parent layered
DAG retains once built, and what one finished ``DagmanScheduler`` run
over it hands back (the attempt trace, one record per job, and the
final state per job), each divided by the job count.
The two structural facts the figures rest on are asserted beside them:
``Dag`` stores each edge once, and the three per-job records carry no
``__dict__``.

``python tests/test_footprint.py`` prints the table (CI's 'Footprint'
step, so every Python of the matrix logs its own figures) and exits 1
past either bound. The bounds were set on CPython 3.11 — 459 and 181
B/job, against 743 and 229 while ``Dag`` mirrored its edges in
``_parents`` and the records were dict-backed — with slack for the
object layouts of 3.10 and 3.12, which were not available to measure.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.dagman.dag import Dag, DagJob
from repro.dagman.events import JobAttempt, JobStatus, ResourceProfile
from repro.dagman.scheduler import DagmanScheduler
from repro.sim.engine import Simulator

JOBS = 10_000
WIDTH = 100

#: label -> most bytes per job it may retain.
BOUNDS = {"dag": 520, "run": 200}


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


def measure() -> dict[str, float]:
    """Bytes per job retained by the built DAG and by the result of one
    finished run over it (scheduler and engine let go)."""
    tracemalloc.start()
    try:
        start = retained()
        dag = layered_dag()
        built = retained()
        result = DagmanScheduler(dag, InstantEnvironment(), max_jobs=200).run()
        assert result.success
        finished = retained()
        assert len(result.trace) == len(dag) == JOBS
    finally:
        tracemalloc.stop()
    return {"dag": (built - start) / JOBS, "run": (finished - built) / JOBS}


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
    # One ``set`` per job across everything the DAG holds, not two.
    maps = [v for v in vars(dag).values() if isinstance(v, dict)]
    assert sum(isinstance(s, set) for m in maps for s in m.values()) == len(dag)


@pytest.mark.parametrize(
    "record",
    [
        DagJob(name="j", transformation="t"),
        JobAttempt("j", "t", "s", "m", 1, 0.0, 0.0, 0.0, 1.0, JobStatus.SUCCEEDED),
        ResourceProfile(),
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
    print(f"({JOBS:,}-job two-parent layered DAG, one finished run)")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
