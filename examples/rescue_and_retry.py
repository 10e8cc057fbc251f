#!/usr/bin/env python
"""Failure handling: DAGMan retries, the analyzer, and rescue DAGs.

Demonstrates the error-recovery machinery the paper leans on for OSG:

1. run the blast2cap3 workflow on an OSG model with *hostile* settings
   (frequent preemption, dead-on-arrival nodes) and a low retry budget,
   so some jobs fail permanently;
2. inspect the wreck with the pegasus-analyzer equivalent;
3. write a rescue DAG, "fix the problem" (sane retry budget), and
   resubmit — only the unfinished work re-runs.

Run:  python examples/rescue_and_retry.py
"""

import tempfile
from pathlib import Path

from repro.core.workflow_factory import build_blast2cap3_adag, default_catalogs
from repro.dagman.dag import Dag
from repro.dagman.scheduler import DagmanScheduler
from repro.perfmodel.task_models import PaperTaskModel
from repro.sim.engine import Simulator
from repro.sim.failures import FailureModel
from repro.sim.grid import GridConfig, OpportunisticGrid
from repro.sim.rng import RngStreams
from repro.wms.analyzer import analyze, render_analysis
from repro.wms.planner import PlannerOptions, plan


def build_planned(retries: int):
    model = PaperTaskModel()
    adag = build_blast2cap3_adag(20, model=model)
    sites, transformations, replicas = default_catalogs()
    return plan(
        adag,
        site_name="osg",
        sites=sites,
        transformations=transformations,
        replicas=replicas,
        options=PlannerOptions(retries=retries),
    )


def hostile_grid(simulator: Simulator, seed: int) -> OpportunisticGrid:
    config = GridConfig(
        failures=FailureModel(
            start_failure_prob=0.25,          # many misconfigured nodes
            eviction_rate_per_s=1 / 4000.0,   # aggressive VO preemption
        ),
    )
    return OpportunisticGrid(simulator, config, streams=RngStreams(seed=seed))


def main() -> None:
    # 1. first submission: low retry budget on a hostile grid.
    planned = build_planned(retries=1)
    scheduler = DagmanScheduler(planned.dag, hostile_grid(Simulator(), seed=3))
    result = scheduler.run()
    print(f"first submission: success={result.success}, "
          f"{result.trace.retry_count} retries, "
          f"{len(result.trace.failures())} failed/evicted attempts")

    # 2. post-mortem.
    print()
    print(render_analysis(analyze(result.trace, result.states)))

    if result.success:
        print("\n(unlucky seed: everything survived; try another seed)")
        return

    # 3. rescue DAG: completed jobs are marked DONE and skipped on
    #    resubmission, exactly like *.rescue001 files.
    rescue_path = Path(tempfile.mkdtemp(prefix="rescue-")) / "wf.rescue001"
    scheduler.write_rescue(rescue_path)
    done_marks = sum(
        1 for line in rescue_path.read_text().splitlines()
        if line.startswith("DONE ")
    )
    print(f"\nrescue DAG written to {rescue_path} ({done_marks} jobs DONE)")

    # The "fix": a sane retry budget, resubmitted once the grid has
    # calmed down (default OSG failure rates instead of the hostile ones).
    fixed = build_planned(retries=25)
    rescue_dag = Dag(name=fixed.dag.name + ".rescue")
    for job in fixed.dag.jobs.values():
        rescue_dag.add_job(job)
    for parent, child in fixed.dag.edges():
        rescue_dag.add_edge(parent, child)
    rescue_dag.done = Dag.parse_dagfile(rescue_path).done

    calm = OpportunisticGrid(Simulator(), streams=RngStreams(seed=4))
    resubmit = DagmanScheduler(rescue_dag, calm)
    result2 = resubmit.run()
    rerun = {a.job_name for a in result2.trace}
    print(f"resubmission: success={result2.success}, "
          f"re-ran {len(rerun)} of {len(rescue_dag)} jobs "
          f"({len(rescue_dag.done)} skipped as DONE)")


if __name__ == "__main__":
    main()
