"""The planner: abstract DAX → executable DAG for one site.

``pegasus-plan``'s essential moves, reproduced:

1. **site selection & validation** — every transformation must be
   resolvable; every external input must have a replica;
2. **transfer jobs** — a ``stage_in`` job per external input (runtime
   from the site's network model and the file size) and one
   ``stage_out`` job collecting final outputs;
3. **software setup decoration** — on sites without the pre-installed
   stack, compute jobs are marked ``needs_setup`` (the extra
   download/install step of the paper's Fig. 3); alternatively
   (``setup_mode="never"``) jobs instead *require* pre-installed
   software via ClassAds — the failure-prone configuration the paper
   describes avoiding;
4. **cleanup jobs** — optionally remove intermediate files once all
   consumers finish;
5. **horizontal clustering** — merge same-transformation jobs at the
   same DAG level into sequential super-jobs ("Pegasus also allows
   clustering of small tasks into larger clusters", §III);
6. **payload binding** — transformations with a ``payload_factory`` get
   real callables attached, so the planned DAG runs on the local
   backend unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Literal, Mapping

from repro.dagman.condor import SOFTWARE_REQUIREMENTS
from repro.dagman.dag import Dag, DagJob
from repro.wms.catalogs import (
    ReplicaCatalog,
    SiteCatalog,
    SiteEntry,
    TransformationCatalog,
)
from repro.wms.dax import ADag

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint import Report
    from repro.lint.feasibility import SitePool

__all__ = [
    "PlanningError",
    "LintFailure",
    "PlannerOptions",
    "PlannedWorkflow",
    "plan",
]

#: Fixed cost of a cleanup (rm) job.
CLEANUP_RUNTIME_S = 1.0


class PlanningError(Exception):
    """The abstract workflow cannot be mapped onto the requested site."""


class LintFailure(PlanningError):
    """The pre-flight linter found ERROR findings (``lint="error"``).

    Carries the full :class:`repro.lint.Report` so callers can render
    or inspect the findings.
    """

    def __init__(self, report: "Report") -> None:
        from repro.lint import render_report

        super().__init__(
            f"pre-flight lint failed: {report.verdict}\n"
            + render_report(report)
        )
        self.report = report


@dataclass(frozen=True)
class PlannerOptions:
    """Planner behaviour switches.

    ``lint`` controls the pre-flight static analysis
    (:mod:`repro.lint`) that runs on every plan: ``"error"`` (the
    default) raises :class:`LintFailure` on ERROR findings before any
    execution, ``"warn"`` only attaches the report to the returned
    :class:`PlannedWorkflow`, ``"off"`` skips the preflight entirely.
    """

    retries: int = 3
    #: Kill a compute attempt after this many (platform) seconds — the
    #: resilience layer's hung-job guard. Clustered super-jobs get the
    #: sum over their members (they run sequentially). ``None`` = no cap.
    timeout_s: float | None = None
    cluster_size: int = 1  # 1 = no horizontal clustering
    add_cleanup: bool = False
    setup_mode: Literal["auto", "never"] = "auto"
    lint: Literal["error", "warn", "off"] = "error"

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")
        if self.cluster_size < 1:
            raise ValueError("cluster_size must be >= 1")
        if self.lint not in ("error", "warn", "off"):
            raise ValueError(f"unknown lint mode: {self.lint!r}")


@dataclass
class PlannedWorkflow:
    """The planner's output: an executable DAG plus bookkeeping."""

    dag: Dag
    site: SiteEntry
    #: abstract job id -> executable job name (changes under clustering)
    job_map: dict[str, str] = field(default_factory=dict)
    #: pre-flight lint report (None when planned with lint="off")
    lint_report: "Report | None" = None

    @property
    def auxiliary_jobs(self) -> list[str]:
        mapped = set(self.job_map.values())
        return sorted(n for n in self.dag.jobs if n not in mapped)


def plan(
    adag: ADag,
    *,
    site_name: str,
    sites: SiteCatalog,
    transformations: TransformationCatalog,
    replicas: ReplicaCatalog,
    options: PlannerOptions = PlannerOptions(),
    pools: "Mapping[str, SitePool] | None" = None,
) -> PlannedWorkflow:
    """Map ``adag`` onto ``site_name``; raises :class:`PlanningError`
    when transformations or replicas are missing.

    ``pools`` overrides the resource descriptors the pre-flight
    feasibility pass matches against (defaults to descriptors derived
    from the simulator configs); a pool that provably cannot match a
    job's requirements fails the plan with :class:`LintFailure`.
    """
    try:
        site = sites.lookup(site_name)
    except KeyError as exc:
        raise PlanningError(str(exc)) from None

    missing_tx = sorted(
        {
            j.transformation
            for j in adag.jobs.values()
            if j.transformation not in transformations
        }
    )
    if missing_tx:
        raise PlanningError(
            f"transformations not in catalog: {', '.join(missing_tx)}"
        )
    flow = adag.flow()
    missing_inputs = [
        f.name for f in flow.external_inputs if not replicas.has(f.name)
    ]
    if missing_inputs:
        raise PlanningError(
            f"external inputs without replicas: {', '.join(sorted(missing_inputs))}"
        )

    dag = Dag(name=f"{adag.name}-{site.name}")
    job_map: dict[str, str] = {}

    # -- compute jobs ---------------------------------------------------
    for job in adag.jobs.values():
        entry = transformations.lookup(job.transformation)
        preinstalled = site.software_preinstalled or entry.installed_at(
            site.name
        )
        needs_setup = False
        requirements: str | None = None
        if not preinstalled:
            if options.setup_mode == "auto":
                needs_setup = True  # Fig. 3's red download/install step
            else:
                requirements = SOFTWARE_REQUIREMENTS
        payload: Callable[[], Any] | None = None
        if entry.payload_factory is not None:
            payload = entry.payload_factory(job.args)
        dag.add_job(
            DagJob(
                name=job.id,
                transformation=job.transformation,
                runtime=job.runtime,
                input_bytes=sum(f.size for f in job.inputs()),
                output_bytes=sum(f.size for f in job.outputs()),
                needs_setup=needs_setup,
                retries=options.retries,
                timeout_s=options.timeout_s,
                requirements=requirements,
                payload=payload,
            )
        )
        job_map[job.id] = job.id

    # -- data dependencies ------------------------------------------------
    for parent, child in flow.edges:
        dag.add_edge(parent, child)

    # -- stage-in jobs ------------------------------------------------------
    for f in flow.external_inputs:
        name = f"stage_in_{_safe(f.name)}"
        dag.add_job(
            DagJob(
                name=name,
                transformation="stage_in",
                runtime=site.network.transfer_time(f.size),
                input_bytes=f.size,
                retries=options.retries,
            )
        )
        for consumer in flow.consumers[f.name]:
            dag.add_edge(name, consumer)

    # -- stage-out job -------------------------------------------------------
    finals = adag.final_outputs()
    if finals:
        out_bytes = sum(f.size for f in finals)
        name = "stage_out_final"
        dag.add_job(
            DagJob(
                name=name,
                transformation="stage_out",
                runtime=site.network.transfer_time(out_bytes),
                output_bytes=out_bytes,
                retries=options.retries,
            )
        )
        for f in finals:
            dag.add_edge(flow.producers[f.name], name)

    # -- cleanup jobs -----------------------------------------------------
    if options.add_cleanup:
        final_names = {f.name for f in finals}
        for fname, consumers in flow.consumers.items():
            if fname not in flow.producers:
                continue  # external input: not ours to delete
            if fname in final_names:
                continue
            name = f"cleanup_{_safe(fname)}"
            dag.add_job(
                DagJob(
                    name=name,
                    transformation="cleanup",
                    runtime=CLEANUP_RUNTIME_S,
                )
            )
            for consumer in consumers:
                dag.add_edge(consumer, name)

    planned = PlannedWorkflow(dag=dag, site=site, job_map=job_map)
    if options.cluster_size > 1:
        planned = _horizontal_clustering(planned, adag, options.cluster_size)

    # -- pre-flight static analysis ---------------------------------------
    if options.lint != "off":
        from repro.lint import lint as run_lint

        report = run_lint(
            adag,
            sites=sites,
            transformations=transformations,
            replicas=replicas,
            site=site,
            options=options,
            planned=planned,
            pools=pools,
        )
        planned.lint_report = report
        if options.lint == "error" and not report.ok:
            raise LintFailure(report)
    return planned


def _safe(name: str) -> str:
    return name.replace("/", "_").replace(".", "_")


def _horizontal_clustering(
    planned: PlannedWorkflow, adag: ADag, cluster_size: int
) -> PlannedWorkflow:
    """Merge same-transformation compute jobs at the same level into
    sequential super-jobs of up to ``cluster_size`` members."""
    dag = planned.dag
    levels = dag.levels()
    compute = set(planned.job_map.values())

    groups: dict[tuple[str, int], list[str]] = {}
    for name in dag.topological_order():
        if name not in compute:
            continue
        job = dag.jobs[name]
        groups.setdefault((job.transformation, levels[name]), []).append(name)

    member_to_cluster: dict[str, str] = {}
    clusters: dict[str, list[str]] = {}
    for (transformation, lvl), members in groups.items():
        if len(members) < 2:
            continue
        for i in range(0, len(members), cluster_size):
            chunk = members[i : i + cluster_size]
            if len(chunk) < 2:
                continue
            cname = f"merge_{transformation}_l{lvl}_{i // cluster_size}"
            clusters[cname] = chunk
            for m in chunk:
                member_to_cluster[m] = cname

    if not clusters:
        return planned

    new_dag = Dag(name=dag.name)
    # Unclustered jobs survive as-is.
    for name, job in dag.jobs.items():
        if name not in member_to_cluster:
            new_dag.add_job(job)
    # Cluster super-jobs: sequential execution -> runtimes add up.
    for cname, members in clusters.items():
        jobs = [dag.jobs[m] for m in members]
        payloads = [j.payload for j in jobs]

        def run_all(ps=payloads):
            results = [p() for p in ps if p is not None]
            return results

        has_payloads = any(p is not None for p in payloads)
        member_timeouts = [j.timeout_s for j in jobs]
        # Members run sequentially inside the super-job, so their
        # timeout budget adds up; one member without a cap means the
        # cluster has none.
        cluster_timeout: float | None = None
        if all(t is not None for t in member_timeouts):
            cluster_timeout = sum(t for t in member_timeouts if t is not None)
        new_dag.add_job(
            DagJob(
                name=cname,
                transformation=jobs[0].transformation,
                runtime=sum(j.runtime for j in jobs),
                input_bytes=sum(j.input_bytes for j in jobs),
                output_bytes=sum(j.output_bytes for j in jobs),
                needs_setup=any(j.needs_setup for j in jobs),
                retries=max(j.retries for j in jobs),
                timeout_s=cluster_timeout,
                requirements=jobs[0].requirements,
                payload=run_all if has_payloads else None,
            )
        )

    def mapped(name: str) -> str:
        return member_to_cluster.get(name, name)

    for parent, child in dag.edges():
        mp, mc = mapped(parent), mapped(child)
        if mp != mc:
            new_dag.add_edge(mp, mc)

    job_map = {
        abstract: mapped(executable)
        for abstract, executable in planned.job_map.items()
    }
    return PlannedWorkflow(dag=new_dag, site=planned.site, job_map=job_map)
