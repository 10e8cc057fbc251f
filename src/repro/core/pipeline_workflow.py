"""The Fig. 1 pipeline as a Pegasus workflow.

The paper's Fig. 1 shows the *general* transcriptome assembly pipeline;
its blast2cap3 experiment only workflow-ifies the last stage. This
module closes the loop: the whole pipeline (per-lane preprocessing in
parallel → assembly → redundancy reduction → BLASTX → blast2cap3) as
one abstract workflow, runnable for real under the local DAGMan backend
or modelled on the simulators.

DAG shape::

    reads_1.fastq  reads_2.fastq ... (one trim task per lane, parallel)
         │              │
      trim_1         trim_2
         └──────┬───────┘
             assemble
                │ raw_transcripts.fasta
             reduce_redundancy
                │ transcripts.fasta            proteins.fasta
                ├────────────────────────────────────┐
                │                                blastx_align
                │                                    │ alignments.out
                └──────────────┬─────────────────────┘
                        blast2cap3_merge
                               │
                  final_transcriptome.fasta
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.core.workflow_factory import LocalRunResult, plan_and_run_locally
from repro.execution.payloads import TaskCall
from repro.wms.catalogs import (
    ReplicaCatalog,
    SiteCatalog,
    TransformationCatalog,
    TransformationEntry,
    local_site,
)
from repro.wms.dax import ADag, AbstractJob, File

__all__ = [
    "PIPELINE_FINAL_LFN",
    "build_pipeline_adag",
    "run_pipeline_local",
]

PIPELINE_FINAL_LFN = "final_transcriptome.fasta"

PIPELINE_TRANSFORMATIONS = (
    "trim_reads",
    "assemble_reads",
    "reduce_redundancy",
    "blastx_align",
    "blast2cap3_merge",
)


def build_pipeline_adag(n_lanes: int, *, runtimes: Mapping[str, float] | None = None) -> ADag:
    """The Fig. 1 pipeline with ``n_lanes`` parallel trim tasks."""
    if n_lanes < 1:
        raise ValueError("n_lanes must be >= 1")
    rt = runtimes or {}
    adag = ADag(name=f"transcriptome-pipeline-{n_lanes}lanes")

    proteins = File("proteins.fasta", size=1_000_000)
    raw_assembled = File("raw_transcripts.fasta")
    transcripts = File("transcripts.fasta")
    alignments = File("alignments.out")
    final = File(PIPELINE_FINAL_LFN)

    assemble_job = AbstractJob(
        id="assemble",
        transformation="assemble_reads",
        runtime=rt.get("assemble_reads", 1.0),
    )
    for lane in range(1, n_lanes + 1):
        raw = File(f"reads_{lane}.fastq")
        cleaned = File(f"cleaned_{lane}.fastq")
        adag.add_job(
            AbstractJob(
                id=f"trim_{lane}",
                transformation="trim_reads",
                args={"lane": str(lane)},
                runtime=rt.get("trim_reads", 1.0),
            )
            .add_input(raw)
            .add_output(cleaned)
        )
        assemble_job.add_input(cleaned)
    assemble_job.add_output(raw_assembled)
    adag.add_job(assemble_job)

    adag.add_job(
        AbstractJob(
            id="reduce_redundancy",
            transformation="reduce_redundancy",
            runtime=rt.get("reduce_redundancy", 1.0),
        )
        .add_input(raw_assembled)
        .add_output(transcripts)
    )
    adag.add_job(
        AbstractJob(
            id="blastx_align",
            transformation="blastx_align",
            runtime=rt.get("blastx_align", 1.0),
        )
        .add_input(transcripts)
        .add_input(proteins)
        .add_output(alignments)
    )
    adag.add_job(
        AbstractJob(
            id="blast2cap3_merge",
            transformation="blast2cap3_merge",
            runtime=rt.get("blast2cap3_merge", 1.0),
        )
        .add_input(transcripts)
        .add_input(alignments)
        .add_output(final)
    )
    return adag


def _pipeline_payload_factories(
    workdir: Path,
    lane_paths: Sequence[Path],
    proteins_path: Path,
    *,
    merge_jobs: int = 1,
    cache_dir: str | Path | None = None,
    merge_executor: str = "process",
) -> dict[str, Callable[[Mapping[str, Any]], Callable[[], Any]]]:
    w = str(workdir)
    tasks = "repro.core.pipeline_tasks"
    cleaned = [f"{w}/cleaned_{i}.fastq" for i in range(1, len(lane_paths) + 1)]

    def trim_call(args: Mapping[str, Any]) -> TaskCall:
        lane = int(args["lane"])
        return TaskCall(
            f"{tasks}:trim_reads",
            args=(str(lane_paths[lane - 1]), cleaned[lane - 1]),
        )

    merge_kwargs: dict[str, Any] = {}
    if merge_jobs != 1:
        merge_kwargs["jobs"] = merge_jobs
        merge_kwargs["executor"] = merge_executor
    if cache_dir is not None:
        merge_kwargs["cache_dir"] = str(cache_dir)

    return {
        "trim_reads": trim_call,
        "assemble_reads": lambda args: TaskCall(
            f"{tasks}:assemble_reads",
            args=(cleaned, f"{w}/raw_transcripts.fasta"),
        ),
        "reduce_redundancy": lambda args: TaskCall(
            f"{tasks}:reduce_redundancy",
            args=(f"{w}/raw_transcripts.fasta", f"{w}/transcripts.fasta"),
        ),
        "blastx_align": lambda args: TaskCall(
            f"{tasks}:blastx_align",
            args=(f"{w}/transcripts.fasta", str(proteins_path),
                  f"{w}/alignments.out"),
        ),
        "blast2cap3_merge": lambda args: TaskCall(
            f"{tasks}:blast2cap3_merge",
            args=(f"{w}/transcripts.fasta", f"{w}/alignments.out",
                  f"{w}/{PIPELINE_FINAL_LFN}"),
            kwargs=merge_kwargs,
        ),
    }


def run_pipeline_local(
    lane_paths: Sequence[str | Path],
    proteins_path: str | Path,
    workdir: str | Path,
    *,
    max_workers: int = 2,
    executor: str = "process",
    merge_jobs: int = 1,
    cache_dir: str | Path | None = None,
) -> LocalRunResult:
    """Execute the Fig. 1 pipeline for real under DAGMan.

    ``merge_jobs`` parallelises the final ``blast2cap3_merge`` task's
    per-cluster CAP3 loop inside its payload (the paper's own
    optimisation, applied to the in-task hot path); ``cache_dir``
    persists per-cluster merge results so re-runs skip unchanged work.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    lanes = [Path(p) for p in lane_paths]

    adag = build_pipeline_adag(len(lanes))
    factories = _pipeline_payload_factories(
        workdir, lanes, Path(proteins_path),
        merge_jobs=merge_jobs, cache_dir=cache_dir,
        # Nested process pools (a pool-worker payload spawning its own
        # pool) deadlock-prone on some platforms; the inner fan-out uses
        # threads unless the outer environment itself runs threaded.
        merge_executor="thread" if executor == "process" else "process",
    )

    sites = SiteCatalog()
    sites.add(local_site())
    transformations = TransformationCatalog()
    for name in PIPELINE_TRANSFORMATIONS:
        transformations.add(
            TransformationEntry(
                name=name,
                installed_sites=frozenset({"local"}),
                payload_factory=factories[name],
            )
        )
    replicas = ReplicaCatalog()
    for i, lane in enumerate(lanes, start=1):
        replicas.add(f"reads_{i}.fastq", str(lane), site="local")
    replicas.add("proteins.fasta", str(proteins_path), site="local")
    return plan_and_run_locally(
        adag, (sites, transformations, replicas), workdir / PIPELINE_FINAL_LFN,
        max_workers=max_workers, executor=executor,
    )
