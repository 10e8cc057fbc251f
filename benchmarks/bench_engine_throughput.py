"""Engine/scheduler throughput: events/sec and jobs/sec at scale.

The incremental ready-set rewrite (see ``repro.dagman.scheduler``)
claims O(children + log n) per completion where the legacy loop paid a
full O(n log n) rescan. This bench turns that claim into numbers and a
CI gate:

* **speedup** — a synthetic layered DAG at n=10k runs through both the
  incremental scheduler and :class:`LegacyRescanScheduler`; the rewrite
  must be at least 10x faster in jobs/sec (it is closer to 100x — the
  legacy loop is quadratic, so the ratio grows with n);
* **scale tiers** — n=10k and n=100k run end-to-end by default
  (seconds, not minutes); set ``REPRO_BENCH_ENGINE_1M=1`` to add the
  million-job tier (the legacy scheduler would need hours for that DAG;
  the rewrite takes minutes);
* **regression gate** — the measured cost in microseconds per event and
  per job at n=10k lands in ``engine_throughput_report.json``; CI
  compares it against the committed
  ``baseline_engine_throughput.json`` via ``repro-report compare
  --fail-on`` (costs, not rates, so "higher is worse" matches the
  tooling's threshold semantics).

CI runs the smoke tier only (``REPRO_BENCH_ENGINE_NS=10000``) to keep
the job fast; the defaults here are the developer-facing tiers. Run it
as ``python -m pytest benchmarks/bench_engine_throughput.py`` from the
repository root (CI does): the oracle lives in ``tests/oracles/`` and
imports as ``tests.oracles.rescan_scheduler``.
"""

import json
import os
import time

from conftest import RESULTS_DIR, update_bench_report, write_result

from repro.dagman.dag import Dag, DagJob
from repro.dagman.events import JobAttempt, JobStatus
from repro.dagman.scheduler import DagmanScheduler
from repro.sim.engine import Simulator
from tests.oracles.rescan_scheduler import LegacyRescanScheduler

SPEEDUP_N = 10_000
MIN_SPEEDUP = 10.0

WIDTH = 100  # jobs per layer of the synthetic DAG


def _tiers() -> tuple[int, ...]:
    env = os.environ.get("REPRO_BENCH_ENGINE_NS")
    if env:
        return tuple(int(tok) for tok in env.replace(",", " ").split())
    tiers = [10_000, 100_000]
    if os.environ.get("REPRO_BENCH_ENGINE_1M"):
        tiers.append(1_000_000)
    return tuple(tiers)


def layered_dag(n: int, width: int = WIDTH) -> Dag:
    """A dense-enough layered DAG: ``width`` jobs per layer, each
    depending on two jobs of the previous layer, with mixed priorities
    so the ready heap actually has ordering work to do."""
    dag = Dag(name=f"layered-{n}")
    names = [f"j{i:07d}" for i in range(n)]
    for i, name in enumerate(names):
        dag.add_job(
            DagJob(
                name=name,
                transformation="synthetic",
                runtime=1.0 + (i % 7),
                priority=(i * 31) % 5 - 2,
            )
        )
    for i in range(width, n):
        base = (i // width - 1) * width
        dag.add_edge(names[base + i % width], names[i])
        dag.add_edge(names[base + (i + 1) % width], names[i])
    return dag


class FastEnvironment:
    """Minimal simulator-backed environment: every attempt succeeds
    after its runtime. The cheapest honest completion path — what's
    left is scheduler + engine overhead, which is what we measure."""

    def __init__(self) -> None:
        self.sim = Simulator()

    @property
    def now(self) -> float:
        return self.sim.now

    def submit(self, job, on_complete, *, attempt=1):
        submit_time = self.sim.now

        def finish() -> None:
            now = self.sim.now
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
                    exec_end=now,
                    status=JobStatus.SUCCEEDED,
                )
            )

        self.sim.schedule(job.runtime, finish)

    def run_until_complete(self) -> None:
        self.sim.run()


def _timed_run(scheduler_cls, dag: Dag) -> dict:
    env = FastEnvironment()
    scheduler = scheduler_cls(dag, env, max_jobs=WIDTH * 2)
    started = time.perf_counter()
    result = scheduler.run()
    elapsed = time.perf_counter() - started
    assert result.success, f"{scheduler_cls.__name__} bench run failed"
    assert len(result.trace) == len(dag.jobs)
    events = env.sim.processed
    return {
        "jobs": len(dag.jobs),
        "events": events,
        "elapsed_s": elapsed,
        "jobs_per_s": len(dag.jobs) / elapsed,
        "events_per_s": events / elapsed,
        "us_per_job": elapsed / len(dag.jobs) * 1e6,
        "us_per_event": elapsed / events * 1e6,
    }


def test_engine_throughput():
    lines = ["Engine/scheduler throughput — layered synthetic DAG", ""]

    # -- speedup over the legacy full-rescan scheduler ------------------
    dag = layered_dag(SPEEDUP_N)
    legacy = _timed_run(LegacyRescanScheduler, dag)
    smoke = _timed_run(DagmanScheduler, dag)
    speedup = smoke["jobs_per_s"] / legacy["jobs_per_s"]
    lines += [
        f"n={SPEEDUP_N:,}  legacy rescan: {legacy['jobs_per_s']:,.0f} jobs/s "
        f"({legacy['elapsed_s']:.2f}s)",
        f"n={SPEEDUP_N:,}  incremental:   {smoke['jobs_per_s']:,.0f} jobs/s "
        f"({smoke['elapsed_s']:.2f}s)",
        f"speedup: {speedup:,.1f}x (gate: >= {MIN_SPEEDUP:g}x)",
        "",
    ]
    assert speedup >= MIN_SPEEDUP, (
        f"incremental scheduler only {speedup:.1f}x faster than the "
        f"legacy rescan at n={SPEEDUP_N} (want >= {MIN_SPEEDUP:g}x)"
    )

    # -- scale tiers ----------------------------------------------------
    tiers = {}
    for n in _tiers():
        run = smoke if n == SPEEDUP_N else _timed_run(
            DagmanScheduler, layered_dag(n)
        )
        tiers[str(n)] = run
        lines.append(
            f"n={n:>9,}  {run['jobs_per_s']:>10,.0f} jobs/s  "
            f"{run['events_per_s']:>10,.0f} events/s  "
            f"({run['elapsed_s']:.2f}s, {run['events']:,} events)"
        )

    write_result("engine_throughput", "\n".join(lines))
    update_bench_report(
        "engine_throughput",
        {
            "speedup_vs_legacy": speedup,
            "legacy_n10k": legacy,
            "tiers": tiers,
        },
    )

    # -- the regression-gate report (repro-report compare --fail-on) ----
    report = {
        "schema": "repro-report/1",
        "label": f"engine-throughput-n{SPEEDUP_N}",
        "workflow": f"layered-{SPEEDUP_N}",
        "engine": {
            "us_per_event": smoke["us_per_event"],
            "us_per_job": smoke["us_per_job"],
        },
    }
    path = RESULTS_DIR / "engine_throughput_report.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
