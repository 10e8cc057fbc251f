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

Each group of rows is measured in its own child interpreter that
imports only what the group needs (``tests/footprint_rows.py``), so no
figure depends on what this module or pytest has loaded.
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

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.dagman.dag import DagJob
from repro.dagman.events import JobAttempt, JobStatus, ResourceProfile
from repro.observe.events import EventKind, RunEvent
from repro.observe.trace import Span, SpanLink

#: label -> most bytes per job it may retain.
BOUNDS = {
    "dag": 334, "scheduler": 102, "run": 200, "spans": 1_250,
    "journal": 76, "recovered": 668,
}

#: Measures one group of rows in a child interpreter (see its docstring).
ROWS = Path(__file__).with_name("footprint_rows.py")
GROUPS = ("graph", "spans", "journal")


def measure() -> dict[str, float]:
    """Bytes per job of every row, each group of rows measured in its
    own child interpreter that imports only what that group needs."""
    path = [str(Path(repro.__file__).resolve().parents[1])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        path + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
    figures: dict[str, float] = {}
    for group in GROUPS:
        done = subprocess.run(
            [sys.executable, str(ROWS), group], env=env,
            capture_output=True, text=True, timeout=600,
        )
        assert done.returncode == 0, done.stderr
        figures.update(json.loads(done.stdout))
    return figures


@pytest.fixture(scope="module")
def figures() -> dict[str, float]:
    return measure()


@pytest.mark.parametrize("label", BOUNDS)
def test_bytes_per_job(figures, label) -> None:
    assert figures[label] <= BOUNDS[label]


def test_dag_stores_each_edge_once() -> None:
    from tests.footprint_rows import WIDTH, layered_dag

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
    print("(10,000-job two-parent layered DAG, a started scheduler, "
          "one finished run; span tracer of a 4,000-job tenant run; "
          "journal of a 4,000-job cluster run, live and recovered; "
          "each group in its own interpreter)")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
