"""The DAG as it was while it stored every edge twice.

:class:`MirroredDag` keeps ``_parents`` beside ``_children`` — a second
``set`` per job, written by ``add_job`` / ``add_edge`` and read by
``parents``, ``roots`` and ``critical_path_length`` — and answers
:meth:`levels` with the per-node ``parents()`` loop the linter and the
planner each carried. :class:`repro.dagman.dag.Dag` stores the edge
once and inverts on request; what the mirror guaranteed without being
asked (the two maps agree, a rejected edge leaves no trace in either)
is what ``tests/test_dag_one_adjacency.py`` holds the single map to,
query for query, through this class.

:func:`topological_sort_reference` is Kahn's algorithm with the ready
frontier as a list popped at the front — quadratic in the frontier's
width, and the order every planned DAG, ``.dag`` file and artefact
digest was produced in; ``repro.dagman.dag.topological_sort`` must
return the same list.

The ``.dag`` file round trip and ``rescue()`` are not here: the first
reads no adjacency, the second copied the two maps and has nothing to
be compared with.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Mapping

from repro.dagman.dag import CycleError, DagJob

__all__ = ["MirroredDag", "topological_sort_reference"]


def topological_sort_reference(
    nodes: Iterable[str], children: Mapping[str, Iterable[str]]
) -> list[str]:
    indegree: dict[str, int] = {n: 0 for n in nodes}
    for parent, kids in children.items():
        if parent not in indegree:
            continue
        for child in kids:
            if child in indegree and child != parent:
                indegree[child] += 1
    ready = [n for n in indegree if indegree[n] == 0]
    order: list[str] = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        for child in sorted(children.get(node, ())):
            if child not in indegree or child == node:
                continue
            indegree[child] -= 1
            if indegree[child] == 0:
                ready.append(child)
    if len(order) != len(indegree):
        members = tuple(sorted(set(indegree) - set(order)))
        raise CycleError(
            "cycle detected among: " + ", ".join(members), members
        )
    return order


class MirroredDag:
    """The historical two-map DAG (oracle only)."""

    def __init__(self, name: str = "workflow") -> None:
        self.name = name
        self.jobs: dict[str, DagJob] = {}
        self._children: dict[str, set[str]] = {}
        self._parents: dict[str, set[str]] = {}
        self.done: set[str] = set()

    def add_job(self, job: DagJob) -> DagJob:
        if job.name in self.jobs:
            raise ValueError(f"duplicate job name: {job.name!r}")
        self.jobs[job.name] = job
        self._children[job.name] = set()
        self._parents[job.name] = set()
        return job

    def add_edge(self, parent: str, child: str) -> None:
        for name in (parent, child):
            if name not in self.jobs:
                raise KeyError(f"unknown job: {name!r}")
        if parent == child:
            raise ValueError("self-dependency")
        if child in self._children[parent]:
            return
        if self._reaches(child, parent):
            self._children[parent].add(child)
            self._parents[child].add(parent)
            try:
                topological_sort_reference(self.jobs, self._children)
                members: tuple[str, ...] = ()
            except CycleError as exc:
                members = exc.members
            self._children[parent].discard(child)
            self._parents[child].discard(parent)
            raise CycleError(
                f"edge {parent!r} -> {child!r} would create a cycle",
                members,
            )
        self._children[parent].add(child)
        self._parents[child].add(parent)

    def _reaches(self, source: str, target: str) -> bool:
        if source == target:
            return True
        stack = [source]
        seen = {source}
        children = self._children
        while stack:
            for node in children[stack.pop()]:
                if node == target:
                    return True
                if node not in seen:
                    seen.add(node)
                    stack.append(node)
        return False

    def parents(self, name: str) -> set[str]:
        return set(self._parents[name])

    def children(self, name: str) -> set[str]:
        return set(self._children[name])

    def child_sets(self) -> Iterable[tuple[str, AbstractSet[str]]]:
        return self._children.items()

    def roots(self) -> list[str]:
        return [n for n in self.jobs if not self._parents[n]]

    def leaves(self) -> list[str]:
        return [n for n in self.jobs if not self._children[n]]

    def edges(self) -> Iterable[tuple[str, str]]:
        for parent, children in self._children.items():
            for child in sorted(children):
                yield parent, child

    def topological_order(self) -> list[str]:
        return topological_sort_reference(self.jobs, self._children)

    def levels(self) -> dict[str, int]:
        """``lint/feasibility.py::_dag_levels`` and
        ``wms/planner.py::_levels`` as they were."""
        level: dict[str, int] = {}
        for node in self.topological_order():
            level[node] = 1 + max(
                (level[p] for p in self.parents(node)), default=-1
            )
        return level

    def critical_path_length(self) -> float:
        longest: dict[str, float] = {}
        for node in self.topological_order():
            incoming = [longest[p] for p in self._parents[node]]
            longest[node] = self.jobs[node].runtime + max(incoming, default=0.0)
        return max(longest.values(), default=0.0)
