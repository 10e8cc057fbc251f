"""The plain paper-run driver as ``repro.core.workflow_factory`` had it
beside the recovery-loop one.

Plan the paper-scale workflow, build the platform by hand on a fresh
simulator, drive one :class:`DagmanScheduler` round, start the sampler
after the initial submissions, and return the DAGMan result.
:func:`repro.core.workflow_factory.simulate_paper_run` now runs every
simulated run through :func:`repro.resilience.recovery.run_simulated`;
at ``max_rounds=1`` it must emit this event stream and this trace.

One thing is not as it was: a run that fails its only round ends with
one more event on the recovery loop, a ``rescue.round`` saying
``resubmitting: false``; this driver just stops.
"""

from __future__ import annotations

from repro.core.workflow_factory import build_blast2cap3_adag, default_catalogs
from repro.dagman.scheduler import DagmanResult, DagmanScheduler
from repro.observe.bus import EventBus
from repro.observe.sampler import UtilizationSampler
from repro.perfmodel.task_models import PaperTaskModel
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.sim import PLATFORMS, RngStreams, Simulator
from repro.wms.planner import PlannedWorkflow, PlannerOptions, plan

__all__ = ["plain_paper_run"]


def plain_paper_run(
    n: int,
    platform: str,
    *,
    seed: int = 0,
    config: object | None = None,
    planner_options: PlannerOptions | None = None,
    bus: EventBus | None = None,
    sample_interval_s: float | None = None,
    fault_plan: FaultPlan | None = None,
) -> tuple[DagmanResult, PlannedWorkflow]:
    """One paper-scale run, one DAGMan round, no recovery loop."""
    sites, transformations, replicas = default_catalogs()
    planned = plan(
        build_blast2cap3_adag(n, model=PaperTaskModel()),
        site_name=platform,
        sites=sites,
        transformations=transformations,
        replicas=replicas,
        options=planner_options or PlannerOptions(retries=20),
    )
    simulator = Simulator()
    streams = RngStreams(seed=seed)
    injector = None
    if fault_plan is not None:
        injector = FaultInjector(fault_plan, rng=streams.stream("faults"), bus=bus)
    env = PLATFORMS[platform](
        *((simulator,) if config is None else (simulator, config)),
        streams=streams, bus=bus, injector=injector, blacklist=None,
    )
    scheduler = DagmanScheduler(planned.dag, env, bus=bus)
    scheduler.start()
    if sample_interval_s is not None:
        UtilizationSampler(
            simulator, env, interval_s=sample_interval_s, bus=bus
        ).start()
    env.run_until_complete()
    return scheduler.finish(), planned
