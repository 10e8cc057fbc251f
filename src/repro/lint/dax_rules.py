"""DAX pass: structural rules over the abstract workflow alone.

These rules need nothing beyond the :class:`~repro.wms.dax.ADag`
(DAX002 additionally wants a replica catalog to know what *could* be
staged in).
"""

from __future__ import annotations

from typing import Iterator

from repro.dagman.dag import CycleError, topological_sort
from repro.lint.findings import Finding, Severity
from repro.lint.registry import LintContext, finding, rule

__all__ = ["workflow_order"]


def workflow_order(ctx: LintContext) -> list[str]:
    """Topological order of the abstract jobs (tolerant edges).

    Raises :class:`CycleError` on cyclic workflows — rule DAX001 turns
    that into a finding.
    """
    return topological_sort(ctx.adag.jobs, ctx.children)


@rule(
    "DAX001",
    Severity.ERROR,
    "dependency cycle",
)
def _cycle(ctx: LintContext) -> Iterator[Finding]:
    try:
        workflow_order(ctx)
    except CycleError as exc:
        yield finding(
            "workflow",
            f"dependency cycle among jobs: {', '.join(exc.members)}",
            "break the producer/consumer loop or drop the explicit "
            "edge closing it",
        )


@rule(
    "DAX002",
    Severity.ERROR,
    "input neither produced nor replicated",
    requires=("replicas",),
)
def _missing_input(ctx: LintContext) -> Iterator[Finding]:
    assert ctx.replicas is not None
    for lfn, consumers in ctx.consumers.items():
        if lfn in ctx.producers or ctx.replicas.has(lfn):
            continue
        shown = ", ".join(repr(c) for c in consumers[:3])
        if len(consumers) > 3:
            shown += f" (+{len(consumers) - 3} more)"
        yield finding(
            f"file:{lfn}",
            f"file {lfn!r} is consumed by {shown} but no job produces "
            "it and the replica catalog has no entry for it",
            "add a replica catalog entry (or a producing job) for "
            f"{lfn!r}",
        )


@rule(
    "DAX003",
    Severity.ERROR,
    "write-write conflict",
)
def _write_write(ctx: LintContext) -> Iterator[Finding]:
    for lfn, producers in ctx.all_producers.items():
        if len(producers) < 2:
            continue
        extra = f" (+{len(producers) - 2} more)" if len(producers) > 2 else ""
        yield finding(
            f"file:{lfn}",
            f"file {lfn!r} produced by both {producers[0]!r} and "
            f"{producers[1]!r}{extra}",
            "rename one output or merge the producing jobs",
        )


@rule(
    "DAX004",
    Severity.WARNING,
    "dead job",
)
def _dead_job(ctx: LintContext) -> Iterator[Finding]:
    for job in ctx.adag.jobs.values():
        if not job.uses:
            continue  # DAX006's case, don't double-report
        if job.outputs():
            continue
        if ctx.children.get(job.id):
            continue
        yield finding(
            f"job:{job.id}",
            f"job {job.id!r} produces no files and nothing depends on "
            "it; its work can never be staged out",
            "declare an output file or remove the job",
        )


@rule(
    "DAX005",
    Severity.WARNING,
    "file size disagreement",
)
def _size_disagreement(ctx: LintContext) -> Iterator[Finding]:
    sizes: dict[str, int] = {}
    for job in ctx.adag.jobs.values():
        for f, _link in job.uses:
            if f.name in sizes and sizes[f.name] != f.size:
                yield finding(
                    f"file:{f.name}",
                    f"file {f.name!r} declared with sizes "
                    f"{sizes[f.name]} and {f.size}",
                    "use one File object (or one size) per logical file",
                )
            sizes.setdefault(f.name, f.size)


@rule(
    "DAX006",
    Severity.WARNING,
    "job uses no files",
)
def _no_files(ctx: LintContext) -> Iterator[Finding]:
    for job in ctx.adag.jobs.values():
        if not job.uses:
            yield finding(
                f"job:{job.id}",
                f"job {job.id!r} uses no files",
                "declare inputs/outputs so the planner can order and "
                "stage it",
            )


@rule(
    "DAX007",
    Severity.INFO,
    "redundant explicit edge",
)
def _redundant_edge(ctx: LintContext) -> Iterator[Finding]:
    for parent, child in sorted(
        ctx.adag._explicit_edges & ctx.data_edges
    ):
        yield finding(
            f"edge:{parent}->{child}",
            f"explicit edge {parent!r} -> {child!r} duplicates a data "
            "dependency",
            "drop the add_dependency() call; file flow already orders "
            "these jobs",
        )


@rule(
    "DAX008",
    Severity.WARNING,
    "file is both input and output of one job",
)
def _in_place_file(ctx: LintContext) -> Iterator[Finding]:
    for job in ctx.adag.jobs.values():
        overlap = {f.name for f in job.inputs()} & {
            f.name for f in job.outputs()
        }
        for lfn in sorted(overlap):
            yield finding(
                f"job:{job.id}",
                f"job {job.id!r} lists file {lfn!r} as both input and "
                "output (in-place update)",
                "write to a new logical file; in-place updates break "
                "retries and data reuse",
            )
