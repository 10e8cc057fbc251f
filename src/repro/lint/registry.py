"""The rule registry and the context rules run against.

A :class:`Rule` is a named, severity-tagged check function registered
via the :func:`rule` decorator. Each rule declares which pieces of
context it ``requires`` (``"replicas"``, ``"site"``, ``"planned"`` …);
the runner skips — rather than fails — rules whose context was not
provided, so ``lint(adag)`` alone runs the DAX pass while the full
catalog and planned-DAG passes light up as more context arrives.

The :class:`LintContext` also precomputes a *tolerant* view of the
workflow graph: unlike ``ADag.producers()``/``edges()``, which raise on
write-write conflicts, the tolerant view keeps the first producer and
lets every rule (including the write-write rule itself) run on broken
workflows — a linter that crashes on the defects it exists to report
would be useless.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro.lint.findings import Finding, Severity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.determinism import DeterminismOptions
    from repro.lint.feasibility import SitePool
    from repro.wms.catalogs import (
        ReplicaCatalog,
        SiteCatalog,
        SiteEntry,
        TransformationCatalog,
    )
    from repro.wms.dax import ADag
    from repro.wms.planner import PlannedWorkflow, PlannerOptions

__all__ = ["LintContext", "Rule", "rule", "registered_rules"]


@dataclass
class LintContext:
    """Everything a rule may look at. Only ``adag`` is mandatory."""

    adag: "ADag"
    sites: "SiteCatalog | None" = None
    transformations: "TransformationCatalog | None" = None
    replicas: "ReplicaCatalog | None" = None
    site: "SiteEntry | None" = None
    options: "PlannerOptions | None" = None
    planned: "PlannedWorkflow | None" = None
    #: site name the caller asked for when catalog lookup failed
    requested_site: str | None = None
    #: resource pools the feasibility pass matches against; defaults to
    #: the simulator-derived pools when a site is known
    pools: "dict[str, SitePool] | None" = None
    #: opt-in determinism-audit configuration (DET rules); left None
    #: in normal lint runs because the audit replays simulations
    determinism: "DeterminismOptions | None" = None
    #: whether the run will keep a write-ahead journal (PLAN006):
    #: ``False`` = running without one, ``True`` = journaled, ``None`` =
    #: unknown (the durability rule is skipped)
    journal: bool | None = None

    # -- tolerant graph views -----------------------------------------

    @cached_property
    def producers(self) -> dict[str, str]:
        """LFN -> first producing job id (write-write tolerant)."""
        out: dict[str, str] = {}
        for job in self.adag.jobs.values():
            for f in job.outputs():
                out.setdefault(f.name, job.id)
        return out

    @cached_property
    def all_producers(self) -> dict[str, list[str]]:
        """LFN -> every producing job id, in insertion order."""
        out: dict[str, list[str]] = {}
        for job in self.adag.jobs.values():
            for f in job.outputs():
                out.setdefault(f.name, []).append(job.id)
        return out

    @cached_property
    def consumers(self) -> dict[str, list[str]]:
        """LFN -> consuming job ids, in insertion order."""
        out: dict[str, list[str]] = {}
        for job in self.adag.jobs.values():
            for f in job.inputs():
                out.setdefault(f.name, []).append(job.id)
        return out

    @cached_property
    def data_edges(self) -> set[tuple[str, str]]:
        """Producer -> consumer edges from file flow (tolerant)."""
        edges = set()
        for job in self.adag.jobs.values():
            for f in job.inputs():
                producer = self.producers.get(f.name)
                if producer is not None and producer != job.id:
                    edges.add((producer, job.id))
        return edges

    @cached_property
    def children(self) -> dict[str, set[str]]:
        """Adjacency (explicit + data edges) for the cycle check."""
        adj: dict[str, set[str]] = {j: set() for j in self.adag.jobs}
        for parent, child in self.data_edges | self.adag._explicit_edges:
            if parent in adj and child in adj and parent != child:
                adj[parent].add(child)
        return adj


@dataclass(frozen=True)
class Rule:
    """One registered static check."""

    id: str
    severity: Severity
    title: str
    #: LintContext attributes that must be non-None for the rule to run
    requires: tuple[str, ...]
    check: Callable[[LintContext], Iterable[Finding]] = field(compare=False)

    def applicable(self, ctx: LintContext) -> bool:
        return all(getattr(ctx, attr) is not None for attr in self.requires)

    def run(self, ctx: LintContext) -> Iterator[Finding]:
        """Stamp the rule's id/severity onto whatever the check yields."""
        from dataclasses import replace

        for finding in self.check(ctx):
            yield replace(finding, rule=self.id, severity=self.severity)


_REGISTRY: dict[str, Rule] = {}


def rule(
    rule_id: str,
    severity: Severity,
    title: str,
    *,
    requires: tuple[str, ...] = (),
) -> Callable[[Callable[[LintContext], Iterable[Finding]]], Rule]:
    """Register a check function under ``rule_id``.

    The decorated function yields :class:`Finding` objects whose
    ``rule``/``severity`` fields are filled in by the runner, so a
    check only states *where* and *what*.
    """

    def decorate(fn: Callable[[LintContext], Iterable[Finding]]) -> Rule:
        if rule_id in _REGISTRY:
            raise ValueError(f"duplicate rule id: {rule_id!r}")
        r = Rule(
            id=rule_id,
            severity=severity,
            title=title,
            requires=requires,
            check=fn,
        )
        _REGISTRY[rule_id] = r
        return r

    return decorate


def registered_rules() -> list[Rule]:
    """Every known rule, sorted by id."""
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def finding(location: str, message: str, fix_hint: str = "") -> Finding:
    """Shorthand for rule bodies (id/severity stamped by the runner)."""
    return Finding(
        rule="",
        severity=Severity.INFO,
        location=location,
        message=message,
        fix_hint=fix_hint,
    )
