"""Build the blast2cap3 Pegasus workflow (the paper's Figs. 2 and 3).

One *abstract* workflow serves both platforms — exactly as in the paper,
where "the workflow and the logic behind both execution platforms differ
only in the way how certain tasks are defined": planning it onto the
``sandhills`` site yields Fig. 2, planning onto ``osg`` decorates the
compute tasks with the download/install step (Fig. 3's red rectangles).

Three entry points:

* :func:`build_blast2cap3_adag` — the abstract DAX for a given *n*;
* :func:`run_local` — plan with real payloads and execute the actual
  protein-guided assembly on the local machine;
* :func:`simulate_paper_run` — plan at paper scale (runtimes from
  :class:`repro.perfmodel.task_models.PaperTaskModel`) and execute on a
  simulated platform through
  :func:`repro.resilience.recovery.run_simulated`, the driver
  ``repro-run`` uses too, returning the recovery outcome whose trace
  feeds ``pegasus-statistics``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Literal, Mapping

if TYPE_CHECKING:  # annotation-only; the bus is an optional wire-in
    from repro.observe.bus import EventBus
    from repro.resilience.blacklist import BlacklistPolicy
    from repro.resilience.faults import FaultPlan
    from repro.resilience.recovery import RecoveryResult
    from repro.resilience.retry import RetryPolicy
    from repro.sim import CampusClusterConfig, CloudConfig, GridConfig

from repro.cap3.assembler import Cap3Params
from repro.dagman.scheduler import DagmanResult, DagmanScheduler
from repro.execution.payloads import TaskCall
from repro.perfmodel.task_models import PaperTaskModel
from repro.util.dot import DotGraph
from repro.wms.catalogs import (
    ReplicaCatalog,
    SiteCatalog,
    TransformationCatalog,
    TransformationEntry,
    cloud_site,
    local_site,
    osg_site,
    sandhills_site,
)
from repro.wms.dax import ADag, AbstractJob, File
from repro.wms.planner import PlannedWorkflow, PlannerOptions, plan

__all__ = [
    "TRANSCRIPTS_LFN",
    "ALIGNMENTS_LFN",
    "FINAL_OUTPUT_LFN",
    "build_blast2cap3_adag",
    "default_catalogs",
    "run_local",
    "simulate_paper_run",
    "workflow_figure",
]

TRANSCRIPTS_LFN = "transcripts.fasta"
ALIGNMENTS_LFN = "alignments.out"
FINAL_OUTPUT_LFN = "merged_transcriptome.fasta"

#: The compute transformations of Figs. 2–3, in pipeline order.
TRANSFORMATIONS = (
    "create_transcript_list",
    "create_alignment_list",
    "split_alignments",
    "run_cap3",
    "merge_joined",
    "merge_unjoined",
    "concat_final",
)


def build_blast2cap3_adag(
    n: int,
    *,
    model: PaperTaskModel | None = None,
    partition_strategy: str = "round_robin",
) -> ADag:
    """The abstract blast2cap3 workflow with *n* ``run_cap3`` tasks.

    With ``model`` given, jobs are annotated with paper-scale runtimes
    and file sizes (for the simulators); without it runtimes are nominal,
    sizes zero, and the DAG is meant for payload-bound local execution.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    transcripts_size = model.scale.transcripts_bytes if model else 0
    alignments_size = model.scale.alignments_bytes if model else 0

    adag = ADag(name=f"blast2cap3-n{n}")

    transcripts = File(TRANSCRIPTS_LFN, size=transcripts_size)
    alignments = File(ALIGNMENTS_LFN, size=alignments_size)
    tdict = File("transcripts_dict.txt", size=transcripts_size)
    alist = File("alignments.list", size=max(0, alignments_size // 50))
    joined = File("joined.fasta", size=transcripts_size // 10)
    unjoined = File("unjoined.fasta", size=int(transcripts_size * 0.8))
    final = File(FINAL_OUTPUT_LFN, size=int(transcripts_size * 0.9))

    fixed = model.fixed_runtimes() if model else {}
    part_runtimes = (
        model.partition_runtimes(n, strategy=partition_strategy)
        if model
        else [1.0] * n
    )
    part_bytes = model.partition_bytes(n) if model else 0

    adag.add_job(
        AbstractJob(
            id="create_transcript_list",
            transformation="create_transcript_list",
            runtime=fixed.get("create_transcript_list", 1.0),
        )
        .add_input(transcripts)
        .add_output(tdict)
    )
    adag.add_job(
        AbstractJob(
            id="create_alignment_list",
            transformation="create_alignment_list",
            runtime=fixed.get("create_alignment_list", 1.0),
        )
        .add_input(alignments)
        .add_output(alist)
    )

    split = AbstractJob(
        id="split",
        transformation="split_alignments",
        args={"n": str(n)},
        runtime=model.split_runtime(n) if model else 1.0,
    )
    split.add_input(alignments).add_input(alist)
    parts, joined_parts, merged_parts = [], [], []
    for i in range(1, n + 1):
        part = File(f"protein_{i}.txt", size=part_bytes)
        parts.append(part)
        split.add_output(part)
    adag.add_job(split)

    for i, part in enumerate(parts, start=1):
        joined_i = File(f"joined_{i}.fasta", size=part_bytes)
        merged_i = File(f"merged_{i}.txt", size=max(1, part_bytes // 20))
        joined_parts.append(joined_i)
        merged_parts.append(merged_i)
        adag.add_job(
            AbstractJob(
                id=f"run_cap3_{i}",
                transformation="run_cap3",
                args={"part_index": str(i)},
                runtime=part_runtimes[i - 1],
            )
            .add_input(tdict)
            .add_input(part)
            .add_output(joined_i)
            .add_output(merged_i)
        )

    merge_joined = AbstractJob(
        id="merge_joined",
        transformation="merge_joined",
        args={"n": str(n)},
        runtime=fixed.get("merge_joined", 1.0),
    )
    for f in joined_parts:
        merge_joined.add_input(f)
    merge_joined.add_output(joined)
    adag.add_job(merge_joined)

    merge_unjoined = AbstractJob(
        id="merge_unjoined",
        transformation="merge_unjoined",
        args={"n": str(n)},
        runtime=fixed.get("merge_unjoined", 1.0),
    )
    merge_unjoined.add_input(tdict)
    for f in merged_parts:
        merge_unjoined.add_input(f)
    merge_unjoined.add_output(unjoined)
    adag.add_job(merge_unjoined)

    adag.add_job(
        AbstractJob(
            id="concat_final",
            transformation="concat_final",
            args={"n": str(n)},
            runtime=fixed.get("concat_final", 1.0),
        )
        .add_input(joined)
        .add_input(unjoined)
        .add_output(final)
    )
    return adag


def _local_payload_factories(
    workdir: Path,
    transcripts_path: Path,
    alignments_path: Path,
    n: int,
    cap3_params: Cap3Params,
    cache_dir: str | Path | None = None,
) -> dict[str, Callable[[Mapping[str, Any]], Callable[[], Any]]]:
    """Bind the task implementations to concrete paths.

    Payloads are :class:`repro.execution.payloads.TaskCall` objects —
    picklable, so the process-pool backend can ship them to workers.
    """
    w = str(workdir)
    tasks = "repro.core.tasks"
    tdict = f"{w}/transcripts_dict.txt"
    parts = [f"{w}/protein_{i}.txt" for i in range(1, n + 1)]
    joined_parts = [f"{w}/joined_{i}.fasta" for i in range(1, n + 1)]
    merged_parts = [f"{w}/merged_{i}.txt" for i in range(1, n + 1)]

    cap3_kwargs: dict[str, Any] = {"cap3_params": cap3_params}
    if cache_dir is not None:
        cap3_kwargs["cache_dir"] = str(cache_dir)

    def cap3_call(args: Mapping[str, Any]) -> TaskCall:
        i = int(args["part_index"])
        return TaskCall(
            f"{tasks}:run_cap3",
            args=(tdict, parts[i - 1], joined_parts[i - 1],
                  merged_parts[i - 1]),
            kwargs=cap3_kwargs,
        )

    return {
        "create_transcript_list": lambda args: TaskCall(
            f"{tasks}:create_transcript_list",
            args=(str(transcripts_path), tdict),
        ),
        "create_alignment_list": lambda args: TaskCall(
            f"{tasks}:create_alignment_list",
            args=(str(alignments_path), f"{w}/alignments.list"),
        ),
        "split_alignments": lambda args: TaskCall(
            f"{tasks}:split_alignments",
            args=(str(alignments_path), parts),
        ),
        "run_cap3": cap3_call,
        "merge_joined": lambda args: TaskCall(
            f"{tasks}:merge_joined", args=(joined_parts, f"{w}/joined.fasta")
        ),
        "merge_unjoined": lambda args: TaskCall(
            f"{tasks}:merge_unjoined",
            args=(tdict, merged_parts, f"{w}/unjoined.fasta"),
        ),
        "concat_final": lambda args: TaskCall(
            f"{tasks}:concat_final",
            args=(f"{w}/joined.fasta", f"{w}/unjoined.fasta",
                  f"{w}/{FINAL_OUTPUT_LFN}"),
        ),
    }


def default_catalogs(
    *,
    payload_factories: Mapping[
        str, Callable[[Mapping[str, Any]], Callable[[], Any]]
    ]
    | None = None,
) -> tuple[SiteCatalog, TransformationCatalog, ReplicaCatalog]:
    """Catalogs covering the three sites and all transformations."""
    sites = SiteCatalog()
    sites.add(sandhills_site())
    sites.add(osg_site())
    sites.add(cloud_site())
    sites.add(local_site())

    transformations = TransformationCatalog()
    for name in TRANSFORMATIONS:
        factory = (payload_factories or {}).get(name)
        transformations.add(
            TransformationEntry(
                name=name,
                pfn=f"/usr/local/bin/{name}",
                installed_sites=frozenset({"sandhills", "local"}),
                payload_factory=factory,
            )
        )

    replicas = ReplicaCatalog()
    replicas.add(TRANSCRIPTS_LFN, f"file:///data/{TRANSCRIPTS_LFN}")
    replicas.add(ALIGNMENTS_LFN, f"file:///data/{ALIGNMENTS_LFN}")
    return sites, transformations, replicas


@dataclass
class LocalRunResult:
    """Outcome of a real local workflow execution."""

    dagman: DagmanResult
    planned: PlannedWorkflow
    final_output: Path


def run_local(
    transcripts_path: str | Path,
    alignments_path: str | Path,
    workdir: str | Path,
    *,
    n: int = 4,
    max_workers: int = 4,
    cap3_params: Cap3Params = Cap3Params(),
    retries: int = 0,
    executor: str = "process",
    bus: "EventBus | None" = None,
    cache_dir: str | Path | None = None,
) -> LocalRunResult:
    """Plan and actually execute blast2cap3 as a workflow, locally.

    This is the laptop-scale real run: BLAST tabular parsing, cluster
    partitioning, and CAP3 assembly all execute for real, under DAGMan.
    The default process pool gives true parallelism for the CPU-bound
    ``run_cap3`` payloads. With ``cache_dir`` set, those payloads serve
    per-cluster CAP3 merges from the content-addressed result store
    (:mod:`repro.core.cache`), so retried jobs and re-planned n-sweeps
    over the same inputs skip the recomputation.
    """
    from dataclasses import replace as dc_replace

    from repro.execution.local import LocalEnvironment

    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    factories = _local_payload_factories(
        workdir, Path(transcripts_path), Path(alignments_path), n,
        cap3_params, cache_dir,
    )
    sites, transformations, replicas = default_catalogs(
        payload_factories=factories
    )
    replicas.add(TRANSCRIPTS_LFN, str(transcripts_path), site="local")
    replicas.add(ALIGNMENTS_LFN, str(alignments_path), site="local")
    planned = plan(
        build_blast2cap3_adag(n),
        site_name="local",
        sites=sites,
        transformations=transformations,
        replicas=replicas,
        options=PlannerOptions(retries=retries),
    )
    # stage_in/stage_out jobs carry no payloads; on the local site the
    # data is already in place, so bind picklable no-ops.
    noop = TaskCall("repro.execution.payloads:noop")
    for name, job in list(planned.dag.jobs.items()):
        if job.payload is None:
            planned.dag.jobs[name] = dc_replace(job, payload=noop)

    with LocalEnvironment(
        max_workers=max_workers, executor=executor, bus=bus
    ) as env:
        result = DagmanScheduler(planned.dag, env, bus=bus).run()
    return LocalRunResult(
        dagman=result, planned=planned, final_output=workdir / FINAL_OUTPUT_LFN
    )


Platform = Literal["sandhills", "osg", "cloud"]


def simulate_paper_run(
    n: int,
    platform: Platform,
    *,
    seed: int = 0,
    model: PaperTaskModel | None = None,
    config: "CampusClusterConfig | GridConfig | CloudConfig | None" = None,
    planner_options: PlannerOptions | None = None,
    partition_strategy: str = "round_robin",
    bus: "EventBus | None" = None,
    sample_interval_s: float | None = None,
    fault_plan: "FaultPlan | None" = None,
    blacklist_policy: "BlacklistPolicy | None" = None,
    retry_policy: "RetryPolicy | None" = None,
    max_rounds: int = 1,
) -> tuple[RecoveryResult, PlannedWorkflow]:
    """Simulate one paper-scale workflow run on one platform.

    The workflow is planned for ``platform`` and run by
    :func:`repro.resilience.recovery.run_simulated`: ``config`` replaces
    the platform's calibrated defaults (it must be that platform's
    config class), ``fault_plan`` injects chaos on top of its failure
    regime, ``blacklist_policy`` arms the start-failure circuit breaker,
    ``retry_policy`` shapes DAGMan's requeues, and a failed round is
    rescued and resubmitted up to ``max_rounds`` rounds in all.

    ``bus`` receives the full live event stream (scheduler and platform
    events interleaved on the virtual timeline); with
    ``sample_interval_s`` set, ``platform.sample`` utilization events
    are emitted on the same bus at that virtual-clock cadence. The
    platform, and on ``"cloud"`` its cost accounting, is
    ``outcome.final.environment``.
    """
    # Here, not at the top: repro-plan loads this module and runs nothing.
    from repro.resilience.recovery import run_simulated

    if platform not in ("sandhills", "osg", "cloud"):
        raise ValueError(f"unknown platform: {platform!r}")
    sites, transformations, replicas = default_catalogs()
    planned = plan(
        build_blast2cap3_adag(
            n, model=model or PaperTaskModel(), partition_strategy=partition_strategy
        ),
        site_name=platform,
        sites=sites,
        transformations=transformations,
        replicas=replicas,
        # Generous retries: on OSG, long-running tasks are routinely
        # evicted and resubmitted ("failures and retries of the workflow
        # were observed on OSG", §VI-A); DAGMan just keeps retrying.
        options=planner_options or PlannerOptions(retries=20),
    )
    outcome, _ = run_simulated(
        planned.dag, platform, seed=seed, config=config, bus=bus,
        fault_plan=fault_plan, blacklist_policy=blacklist_policy,
        sample_interval_s=sample_interval_s, retry_policy=retry_policy,
        max_rounds=max_rounds,
    )
    return outcome, planned


def workflow_figure(adag: ADag, *, osg: bool = False) -> DotGraph:
    """Regenerate Fig. 2 (or Fig. 3 with ``osg=True``) as a DOT graph.

    Squares are files, ovals are tasks, and on OSG the compute tasks
    become red rectangles (download/install decoration).
    """
    graph = DotGraph(name=adag.name + ("-osg" if osg else "-sandhills"))
    for job in adag.jobs.values():
        kind = "setup_task" if osg else "task"
        graph.add_node(job.id, label=f"{job.transformation}()", kind=kind)
        for f in job.inputs():
            graph.add_node(f.name, kind="file")
            graph.add_edge(f.name, job.id)
        for f in job.outputs():
            graph.add_node(f.name, kind="file")
            graph.add_edge(job.id, f.name)
    return graph
