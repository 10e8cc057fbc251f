"""Multi-tenant load generation against the WaaS layer.

Builds a shared simulated platform, a :class:`WorkflowService` over
it, N tenants, and a Poisson-free (deterministic-interval) arrival
process: each tenant submits M workflows per minute of virtual time,
each workflow a blast2cap3-shaped DAG (split → parallel partitions →
merge) with lognormal job runtimes. Everything is driven by named RNG
streams, so a (spec, seed, backend) triple reproduces bit-identically
— the property the count gates in ``benchmarks/gates.py`` rely on.

``run_load`` is the engine behind the ``repro-service bench`` CLI and
the ``svc_*`` workloads of ``benchmarks/budget/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.dagman.dag import Dag, DagJob
from repro.observe.bus import EventBus
from repro.service.service import ServiceConfig, WorkflowService
from repro.service.tenants import TenantConfig, TenantQuota
from repro.sim import PLATFORMS
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams, bounded_lognormal

__all__ = ["LoadSpec", "generate_workflow", "build_service", "run_load"]

#: The Sandhills-style requirements string a software-requiring
#: workflow attaches to its partition jobs.
SOFTWARE_REQUIREMENTS = "has_python and has_biopython and has_cap3"


@dataclass(frozen=True)
class LoadSpec:
    """One load scenario: N tenants × M workflows each.

    ``workflows_per_minute`` is the per-tenant arrival rate on the
    virtual clock; tenants are phase-shifted within the interval so
    arrivals interleave rather than stampede. ``tenant_weights``
    (cycled if shorter than ``tenants``) sets fair-share weights;
    ``require_software_prob`` is the chance a workflow's partition
    jobs carry Sandhills-style requirements (exercising grid
    matchmaking against the heterogeneous pool).
    """

    tenants: int = 8
    workflows_per_tenant: int = 4
    jobs_per_workflow: int = 50
    workflows_per_minute: float = 2.0
    tenant_weights: tuple[float, ...] = (1.0,)
    max_running_jobs: int | None = None
    max_active_workflows: int | None = None
    runtime_mean_s: float = 120.0
    runtime_sigma: float = 0.5
    runtime_max_s: float = 900.0
    retries: int = 2
    require_software_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.tenants < 1 or self.workflows_per_tenant < 1:
            raise ValueError("need at least one tenant and one workflow")
        if self.jobs_per_workflow < 1:
            raise ValueError("jobs_per_workflow must be >= 1")
        if self.workflows_per_minute <= 0:
            raise ValueError("workflows_per_minute must be positive")
        if not self.tenant_weights:
            raise ValueError("tenant_weights must be non-empty")

    def weight_of(self, index: int) -> float:
        return self.tenant_weights[index % len(self.tenant_weights)]

    def tenant_name(self, index: int) -> str:
        return f"tenant-{index:02d}"


def generate_workflow(
    name: str,
    jobs: int,
    rng_streams: RngStreams,
    *,
    runtime_mean_s: float = 120.0,
    runtime_sigma: float = 0.5,
    runtime_max_s: float = 900.0,
    retries: int = 2,
    requirements: str | None = None,
) -> Dag:
    """A blast2cap3-shaped DAG: split → parallel partitions → merge.

    ``jobs`` counts total nodes. Below 3 the shape degenerates to a
    chain. Runtimes are lognormal per job from the stream named after
    the workflow, so two workflows with the same name and seed are
    identical.
    """
    rng = rng_streams.stream(f"loadgen.{name}")

    def runtime() -> float:
        return bounded_lognormal(
            rng, runtime_mean_s, runtime_sigma, high=runtime_max_s
        )

    dag = Dag(name=name)
    if jobs <= 2:
        prev: str | None = None
        for i in range(jobs):
            job = f"{name}-j{i}"
            dag.add_job(
                DagJob(
                    name=job,
                    transformation="blast2cap3",
                    runtime=runtime(),
                    retries=retries,
                    requirements=requirements,
                )
            )
            if prev is not None:
                dag.add_edge(prev, job)
            prev = job
        return dag
    split = f"{name}-split"
    merge = f"{name}-merge"
    dag.add_job(
        DagJob(
            name=split,
            transformation="partition",
            runtime=runtime(),
            retries=retries,
        )
    )
    for i in range(jobs - 2):
        job = f"{name}-p{i:04d}"
        dag.add_job(
            DagJob(
                name=job,
                transformation="blast2cap3",
                runtime=runtime(),
                retries=retries,
                requirements=requirements,
            )
        )
        dag.add_edge(split, job)
    dag.add_job(
        DagJob(
            name=merge,
            transformation="merge",
            runtime=runtime(),
            retries=retries,
        )
    )
    for i in range(jobs - 2):
        dag.add_edge(f"{name}-p{i:04d}", merge)
    return dag


@dataclass
class _Backend:
    simulator: Simulator
    environment: object
    service: WorkflowService
    bus: EventBus = field(repr=False, default_factory=EventBus)


def build_service(
    spec: LoadSpec,
    *,
    backend: str = "cluster",
    seed: int = 0,
    bus: EventBus | None = None,
) -> _Backend:
    """Platform + service + tenants for one load run.

    ``backend`` names a platform in :data:`repro.sim.PLATFORMS`:
    ``cluster`` (Sandhills model) or ``grid`` (OSG model)."""
    if backend not in PLATFORMS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {sorted(PLATFORMS)}"
        )
    simulator = Simulator()
    streams = RngStreams(seed=seed)
    bus = bus if bus is not None else EventBus()
    environment = PLATFORMS[backend](simulator, streams=streams, bus=bus)
    service = WorkflowService(
        environment,
        config=ServiceConfig(),
        bus=bus,
    )
    for i in range(spec.tenants):
        service.add_tenant(
            TenantConfig(
                name=spec.tenant_name(i),
                weight=spec.weight_of(i),
                quota=TenantQuota(
                    max_running_jobs=spec.max_running_jobs,
                    max_active_workflows=spec.max_active_workflows,
                ),
            )
        )
    return _Backend(
        simulator=simulator,
        environment=environment,
        service=service,
        bus=bus,
    )


def run_load(
    spec: LoadSpec,
    *,
    backend: str = "cluster",
    seed: int = 0,
    bus: EventBus | None = None,
) -> dict[str, object]:
    """Run one scenario to completion; returns the results document.

    Arrivals: tenant ``i`` submits workflow ``j`` at virtual time
    ``j * interval + i * interval / tenants`` where ``interval`` is
    ``60 / workflows_per_minute`` — a deterministic interleaved
    schedule at the requested per-tenant rate.
    """
    built = build_service(spec, backend=backend, seed=seed, bus=bus)
    service = built.service
    streams = RngStreams(seed=seed)
    shape_rng = streams.stream("loadgen.shapes")
    interval = 60.0 / spec.workflows_per_minute
    for i in range(spec.tenants):
        tenant = spec.tenant_name(i)
        phase = interval * i / spec.tenants
        for j in range(spec.workflows_per_tenant):
            wf_name = f"{tenant}-wf{j:03d}"
            requirements = (
                SOFTWARE_REQUIREMENTS
                if shape_rng.random() < spec.require_software_prob
                else None
            )
            at = j * interval + phase

            def arrive(
                tenant: str = tenant,
                wf_name: str = wf_name,
                requirements: str | None = requirements,
            ) -> None:
                dag = generate_workflow(
                    wf_name,
                    spec.jobs_per_workflow,
                    streams,
                    runtime_mean_s=spec.runtime_mean_s,
                    runtime_sigma=spec.runtime_sigma,
                    runtime_max_s=spec.runtime_max_s,
                    retries=spec.retries,
                    requirements=requirements,
                )
                service.submit(tenant, dag, name=wf_name)

            built.simulator.schedule(at, arrive)
    handles = service.run()
    makespan = built.simulator.now
    completed = sum(1 for h in handles if h.result is not None)
    succeeded = sum(
        1 for h in handles if h.result is not None and h.result.success
    )
    slo = service.slo_report()
    p95_turnaround = {
        t: row["turnaround_s"]["p95"]  # type: ignore[index]
        for t, row in slo.items()
    }
    result: dict[str, object] = {
        "backend": backend,
        "seed": seed,
        "spec": {
            "tenants": spec.tenants,
            "workflows_per_tenant": spec.workflows_per_tenant,
            "jobs_per_workflow": spec.jobs_per_workflow,
            "workflows_per_minute": spec.workflows_per_minute,
        },
        "makespan_s": makespan,
        "workflows_completed": completed,
        "workflows_succeeded": succeeded,
        "workflows_per_minute_sustained": (
            completed / (makespan / 60.0) if makespan > 0 else 0.0
        ),
        "jobs_released": service.jobs_released,
        "per_tenant_p95_turnaround_s": p95_turnaround,
        "slo": slo,
    }
    stats = getattr(built.environment, "matchmaker", None)
    if stats is not None:
        result["matchmaker"] = {
            "strategy": type(stats).__name__,
            "finds": stats.stats.finds,
            # What the dispatch path asks per slot it hands out: 1 is
            # the floor, queue-length multiples mean it is re-asking.
            "finds_per_claim": stats.stats.finds / max(1, stats.stats.claims),
            "ads_scanned": stats.stats.ads_scanned,
            "bucket_probes": stats.stats.bucket_probes,
            "linear_fallbacks": stats.stats.linear_fallbacks,
            "matchable_calls": stats.stats.matchable_calls,
            "matchable_scans": stats.stats.matchable_scans,
        }
    return result


def tenant_mapping(spec: LoadSpec) -> Mapping[str, float]:
    """tenant name → weight (what the convergence tests compare to)."""
    return {
        spec.tenant_name(i): spec.weight_of(i) for i in range(spec.tenants)
    }
