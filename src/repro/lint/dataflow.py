"""Dataflow/provenance pass: a fixpoint over the file-flow graph.

The DAX pass checks each job and file locally; this pass propagates
*availability* through the whole workflow. A file is available when the
replica catalog has it or a satisfiable job produces it; a job is
satisfiable when every input is available. Iterating to fixpoint
(standard forward dataflow, monotone over the powerset lattice) finds
the defects local rules cannot:

* **FLOW001** (error) — a job starved *transitively*: each of its
  direct inputs is nominally resolvable, but an upstream producer can
  never run. DAX002 flags the root missing file; FLOW001 names the
  downstream jobs doomed by it, which on a real run would sit idle in
  the queue forever.
* **FLOW002** (warning) — a dead output: a file a runnable job computes
  whose every consumer is starved, so the work is produced and then
  dropped on the floor.
* **FLOW003** (info) — a reuse candidate: every output of a job already
  has a replica; with ``enable_reuse`` the planner would prune it.
* **FLOW004** (warning) — an orphan island: the workflow splits into
  disconnected components, usually a generator bug (jobs that were
  meant to feed the main graph but reference the wrong LFNs).

The helpers (:func:`availability_fixpoint`, :func:`reachable_jobs`) are
exported for the property tests, which cross-check the fixpoint against
a naive BFS reachability oracle on randomly generated workflows.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.findings import Finding, Severity
from repro.lint.registry import LintContext, finding, rule

__all__ = ["availability_fixpoint", "reachable_jobs", "components"]


def availability_fixpoint(
    ctx: LintContext,
) -> tuple[set[str], set[str]]:
    """``(available_files, satisfiable_jobs)`` at fixpoint
    (:attr:`LintContext.availability <repro.lint.registry.LintContext.availability>`)."""
    return ctx.availability


def reachable_jobs(ctx: LintContext) -> set[str]:
    """Jobs whose every transitive input requirement is met (the
    fixpoint's satisfiable set) — the linter's provenance ground truth."""
    return availability_fixpoint(ctx)[1]


def components(ctx: LintContext) -> list[set[str]]:
    """Weakly-connected components of the job graph, largest first."""
    neighbours: dict[str, set[str]] = {j: set() for j in ctx.adag.jobs}
    for parent, kids in ctx.children.items():
        for child in kids:
            neighbours[parent].add(child)
            neighbours[child].add(parent)
    seen: set[str] = set()
    comps: list[set[str]] = []
    for start in ctx.adag.jobs:
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for other in neighbours[node]:
                if other not in comp:
                    comp.add(other)
                    frontier.append(other)
        seen |= comp
        comps.append(comp)
    comps.sort(key=lambda c: (-len(c), min(c)))
    return comps


@rule(
    "FLOW001",
    Severity.ERROR,
    "job transitively starved by an upstream defect",
    requires=("replicas",),
)
def _transitively_starved(ctx: LintContext) -> Iterator[Finding]:
    assert ctx.replicas is not None
    if ctx.order is None:
        return  # cyclic: DAX001's case, and every member would be starved
    available, satisfiable = ctx.availability
    for jid, names in ctx.inputs.items():
        if jid in satisfiable:
            continue
        directly_missing = sorted(
            name
            for name in names
            if name not in ctx.producers and not ctx.replicas.has(name)
        )
        if directly_missing:
            continue  # DAX002's case: the file itself is unresolvable
        starved_inputs = sorted(
            name for name in names if name not in available
        )
        roots = sorted(
            {
                ctx.producers[lfn]
                for lfn in starved_inputs
                if lfn in ctx.producers
            }
        )
        yield finding(
            f"job:{jid}",
            f"job {jid!r} can never become ready: input(s) "
            f"{', '.join(repr(f) for f in starved_inputs[:3])} are "
            f"produced only by starved job(s) "
            f"{', '.join(repr(r) for r in roots[:3])}; the root cause "
            "is upstream (see the DAX002 finding for the missing file)",
            "fix the upstream job's missing input; this job unblocks "
            "transitively",
        )


@rule(
    "FLOW002",
    Severity.WARNING,
    "output produced but never usable",
    requires=("replicas",),
)
def _dead_output(ctx: LintContext) -> Iterator[Finding]:
    assert ctx.replicas is not None
    if ctx.order is None:
        return  # cyclic: see FLOW001
    _available, satisfiable = ctx.availability
    if len(satisfiable) == len(ctx.adag.jobs):
        return  # no consumer is starved
    for lfn in sorted(ctx.consumers):
        producer = ctx.producers.get(lfn)
        if producer is None or producer not in satisfiable:
            continue  # unproduced (DAX002) or producer itself starved
        consumers = ctx.consumers[lfn]
        if all(c not in satisfiable for c in consumers):
            yield finding(
                f"file:{lfn}",
                f"file {lfn!r} is computed by runnable job "
                f"{producer!r} but every consumer "
                f"({', '.join(repr(c) for c in consumers[:3])}) is "
                "starved: the work is done and then discarded",
                "fix the starved consumers or drop the producer",
            )


@rule(
    "FLOW003",
    Severity.INFO,
    "job recomputes outputs that already have replicas",
    requires=("replicas",),
)
def _reuse_candidate(ctx: LintContext) -> Iterator[Finding]:
    assert ctx.replicas is not None
    if ctx.options is not None and ctx.options.enable_reuse:
        return  # the planner prunes these itself
    for jid, outputs in ctx.outputs.items():
        if outputs and all(ctx.replicas.has(name) for name in outputs):
            yield finding(
                f"job:{jid}",
                f"every output of job {jid!r} "
                f"({', '.join(repr(name) for name in outputs[:3])}) "
                "already has a replica; the job recomputes existing "
                "data",
                "plan with PlannerOptions(enable_reuse=True) to stage "
                "the existing replicas instead",
            )


@rule(
    "FLOW004",
    Severity.WARNING,
    "workflow splits into disconnected islands",
)
def _orphan_island(ctx: LintContext) -> Iterator[Finding]:
    comps = components(ctx)
    if len(comps) < 2 or len(comps[0]) < 2:
        return  # singleton scatter (e.g. a bag of independent tasks)
    for comp in comps[1:]:
        members = sorted(comp)
        shown = ", ".join(repr(m) for m in members[:3])
        if len(members) > 3:
            shown += f" (+{len(members) - 3} more)"
        yield finding(
            f"job:{members[0]}",
            f"job(s) {shown} form an island disconnected from the main "
            f"workflow ({len(comps[0])} jobs): no file or edge links "
            "them, which usually means a mis-spelled LFN",
            "connect the island via file flow or split it into its own "
            "workflow",
        )
