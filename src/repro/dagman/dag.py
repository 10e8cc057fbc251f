"""The executable DAG model and Condor-style ``.dag`` file round-trip.

A :class:`DagJob` is a node DAGMan can submit: it carries either a bound
Python callable (real local execution) or a runtime/IO profile (the
platform simulators), plus DAGMan metadata (retries, priority). The
:class:`Dag` holds jobs and dependency edges, validates acyclicity, and
serialises to the subset of the HTCondor DAGMan file format we use
(``JOB`` / ``PARENT..CHILD`` / ``RETRY`` / ``PRIORITY`` / ``DONE``),
plus a ``TIMEOUT <job> <seconds>`` extension carrying the per-job
execution deadline (real DAGMan spells this ``ABORT-DAG-ON`` +
periodic holds; one keyword keeps the round-trip honest).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Collection, Iterable, Mapping

from repro.dagman.events import one_step_init
from repro.util.iolib import atomic_write

__all__ = ["CycleError", "topological_sort", "DagJob", "Dag"]


class CycleError(ValueError):
    """The dependency graph contains a cycle.

    Raised both at edge-insertion time (:meth:`Dag.add_edge`) and when
    ordering an already-built graph (:func:`topological_sort`); the
    ``members`` attribute names the nodes that could not be ordered.
    """

    def __init__(self, message: str, members: tuple[str, ...] = ()) -> None:
        super().__init__(message)
        self.members = members


def topological_sort(
    nodes: Iterable[str], children: Mapping[str, Iterable[str]]
) -> list[str]:
    """Kahn's algorithm over an adjacency mapping.

    Stable with respect to the order of ``nodes``; children are visited
    in sorted order. Edges pointing at nodes absent from ``nodes`` are
    ignored, so callers can pass partial views. Raises
    :class:`CycleError` naming the unorderable nodes when the graph is
    cyclic. This is the single cycle detector shared by :class:`Dag`
    and the ``repro.lint`` DAX pass.
    """
    indegree: dict[str, int] = {n: 0 for n in nodes}
    for parent, kids in children.items():
        if parent not in indegree:
            continue
        for child in kids:
            if child in indegree and child != parent:
                indegree[child] += 1
    # A deque: a split -> n children fan-out puts n nodes in the ready
    # frontier, and ``list.pop(0)`` made ordering it quadratic in n.
    ready = deque(n for n in indegree if indegree[n] == 0)
    order: list[str] = []
    while ready:
        node = ready.popleft()
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


@one_step_init
@dataclass(frozen=True, slots=True)
class DagJob:
    """One schedulable node.

    ``runtime`` is the payload's base duration in seconds on a
    reference-speed core (platform models divide by machine speed);
    ``payload`` is the real callable for local execution. ``needs_setup``
    marks the OSG-style jobs that must download/install their software
    before running (the red rectangles of Fig. 3). ``requirements`` is a
    ClassAd expression evaluated against machine ads at match time.
    ``timeout_s`` bounds the *execution* (kickstart) window of one
    attempt: platforms kill the payload after that many seconds and
    report :attr:`~repro.dagman.events.JobStatus.TIMEOUT` — the defence
    against hung payloads and the stragglers OSG is known for.
    """

    name: str
    transformation: str
    runtime: float = 1.0
    input_bytes: int = 0
    output_bytes: int = 0
    needs_setup: bool = False
    retries: int = 0
    priority: int = 0
    requirements: str | None = None
    timeout_s: float | None = None
    payload: Callable[[], object] | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        # Empty, or holding anything ``str.isspace`` accepts — without a
        # generator step per character (a 100k-job build makes 900k).
        if self.name.split() != [self.name]:
            raise ValueError(f"invalid job name: {self.name!r}")
        # ``not x >= 0`` rather than ``x < 0``: NaN fails every
        # comparison, so only the negated form rejects it.
        if not self.runtime >= 0:
            raise ValueError(f"runtime must be >= 0, got {self.runtime}")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        # NaN compares false both ways: the ready heap could not order it.
        if self.priority != self.priority:
            raise ValueError(f"priority must be a number, got {self.priority}")
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise ValueError(
                f"timeout_s must be positive (or None), got {self.timeout_s}"
            )


#: What ``plan.json`` keeps of a job, in the order it is written, and
#: what each value must be read back as: the JSON types ``to_json``
#: writes, a bool never passing for a number. ``payload`` cannot travel
#: and the byte counts never have.
PLAN_JOB_KEYS = {
    "transformation": ((str,), "a string"),
    "runtime": ((int, float), "a number"),
    "needs_setup": ((bool,), "true or false"),
    "retries": ((int,), "an integer"),
    "timeout_s": ((int, float, type(None)), "a number or null"),
    "requirements": ((str, type(None)), "a string or null"),
    "priority": ((int,), "an integer"),
}


def _plan_value(spec: Mapping[str, object], key: str) -> object:
    """``spec[key]``, or a ``ValueError`` saying what it must be."""
    value = spec[key]
    types, what = PLAN_JOB_KEYS[key]
    if not isinstance(value, types) or (
        isinstance(value, bool) and bool not in types
    ):
        raise ValueError(f"{key} must be {what}, got {value!r}")
    return value


#: Most children a job keeps in a tuple. A tuple of 1–8 names costs
#: 48–104 B where a ``set`` costs 216 B at any size, and the paper's
#: split → partitions → merge shape gives almost every job one or two;
#: past this, a fan-out's duplicate check must be a probe, not a scan.
TUPLE_CHILDREN = 8


def _grown(kids: Collection[str], child: str) -> Collection[str]:
    """``kids`` with ``child`` added (it is not there yet): a longer
    tuple up to :data:`TUPLE_CHILDREN`, then a ``set``, which is grown
    in place."""
    if type(kids) is tuple:
        if len(kids) < TUPLE_CHILDREN:
            return (*kids, child)
        kids = set(kids)
    kids.add(child)  # type: ignore[attr-defined]
    return kids


class Dag:
    """A directed acyclic graph of :class:`DagJob` nodes.

    One adjacency: every edge is stored once, with the parent, and
    nothing mirrors it. A job's children are a ``tuple`` while it has
    at most :data:`TUPLE_CHILDREN` of them and a ``set`` after that, so
    the one-or-two-child jobs that make up most DAGs pay for no hash
    table, and a wide fan-out still dedupes each edge with one probe.
    A run only ever walks forward
    (:class:`~repro.dagman.scheduler.DagmanScheduler` reads
    :meth:`child_sets`), so a second container per job would be paid
    by every resident DAG for the benefit of a few whole-graph readers.
    Those ask for :meth:`parent_sets` (or :meth:`levels`) once, O(V+E).
    """

    def __init__(self, name: str = "workflow") -> None:
        self.name = name
        self.jobs: dict[str, DagJob] = {}
        self._children: dict[str, Collection[str]] = {}
        self.done: set[str] = set()  # pre-completed (rescue semantics)

    # -- construction -------------------------------------------------

    def add_job(self, job: DagJob) -> DagJob:
        if job.name in self.jobs:
            raise ValueError(f"duplicate job name: {job.name!r}")
        self.jobs[job.name] = job
        self._children[job.name] = ()
        return job

    def add_edge(self, parent: str, child: str) -> None:
        self._check_edge(parent, child)
        kids = self._children[parent]
        if child in kids:
            return  # already present: nothing to validate
        # Incremental cycle check: the new edge closes a cycle iff
        # ``parent`` is already reachable from ``child``. A DFS over
        # the descendants of ``child`` is O(reachable set), not the
        # O(V+E) full re-sort per edge this used to cost — which made
        # building million-edge DAGs quadratic. Built in topological
        # order (every generator here does), ``child`` has no children
        # yet: nothing but itself is reachable from it, ``parent`` is
        # not it, and the walk is skipped.
        if self._children[child] and self._reaches(child, parent):
            try:
                # Error path only: recover the full unorderable set so
                # the exception's ``members`` matches the historical
                # whole-graph diagnosis — over a copy of the adjacency
                # holding the edge, so this DAG is never touched.
                topological_sort(
                    self.jobs, {**self._children, parent: (*kids, child)}
                )
                members: tuple[str, ...] = ()
            except CycleError as exc:
                members = exc.members
            raise CycleError(
                f"edge {parent!r} -> {child!r} would create a cycle",
                members,
            )
        self._children[parent] = _grown(kids, child)

    def _check_edge(self, parent: str, child: str) -> None:
        """An edge's own faults: an unknown job, or a self-dependency."""
        for name in (parent, child):
            if name not in self.jobs:
                raise KeyError(f"unknown job: {name!r}")
        if parent == child:
            raise ValueError("self-dependency")

    def _reaches(self, source: str, target: str) -> bool:
        """True when ``target`` is reachable from ``source`` via edges."""
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

    # -- queries ------------------------------------------------------

    def child_sets(self) -> Iterable[tuple[str, Collection[str]]]:
        """``(job, its children)`` per job, in insertion order — the
        DAG's own containers (a tuple or a set, in no particular
        order), for passes that only read. Do not mutate them."""
        return self._children.items()

    def parent_sets(self) -> dict[str, set[str]]:
        """``job -> its parents`` for every job, in insertion order:
        the edges inverted in one O(V+E) pass. The sets are the
        caller's own."""
        parents: dict[str, set[str]] = {n: set() for n in self._children}
        for parent, kids in self._children.items():
            for kid in kids:
                parents[kid].add(parent)
        return parents

    def edges(self) -> Iterable[tuple[str, str]]:
        for parent, children in self._children.items():
            for child in sorted(children):
                yield parent, child

    def __len__(self) -> int:
        return len(self.jobs)

    def rescue(self, done: Iterable[str], *, name: str | None = None) -> "Dag":
        """The in-memory rescue DAG: a copy with ``done`` as its DONE
        marks. Same :class:`DagJob` objects (payloads, runtimes and
        timeouts survive, which a written ``.dag`` file cannot carry),
        adjacency shared tuple for tuple and copied set for set (only a
        set is grown in place) — the edges are known acyclic, so none
        of :meth:`add_edge`'s reachability checks run."""
        rescue = Dag(name=self.name if name is None else name)
        rescue.jobs = dict(self.jobs)
        rescue._children = {
            n: kids if type(kids) is tuple else set(kids)
            for n, kids in self._children.items()
        }
        rescue.done = set(done)
        return rescue

    def topological_order(self) -> list[str]:
        """Kahn's algorithm; stable w.r.t. insertion order. Raises
        :class:`CycleError` (unreachable when built via :meth:`add_edge`,
        which rejects cycle-closing edges eagerly)."""
        return topological_sort(self.jobs, self._children)

    def levels(self) -> dict[str, int]:
        """``job -> length of the longest edge path reaching it`` (a
        root is level 0), in topological order."""
        level = dict.fromkeys(self.topological_order(), 0)
        for node, at in level.items():
            for kid in self._children[node]:
                if level[kid] <= at:
                    level[kid] = at + 1
        return level

    def critical_path_length(self) -> float:
        """Longest runtime-weighted path (a lower bound on makespan)."""
        jobs = self.jobs
        # The longest path *ending at* each job, pushed on to its children.
        longest = {n: job.runtime for n, job in jobs.items()}
        for node in self.topological_order():
            reach = longest[node]
            for kid in self._children[node]:
                through = reach + jobs[kid].runtime
                if longest[kid] < through:
                    longest[kid] = through
        return max(longest.values(), default=0.0)

    # -- plan.json round-trip -------------------------------------------

    @classmethod
    def from_json(cls, data: object, name: str = "workflow") -> "Dag":
        """Rebuild the DAG a ``plan.json`` document describes: each
        job's :data:`PLAN_JOB_KEYS`, the sorted edges, and ``done`` when
        there are marks (the name stays out, as it stays out of the
        ``.dag`` grammar). Anything else — a wrong
        shape, a job missing a key or holding a value no job can have,
        an edge naming an unknown job or closing a cycle — is a
        :class:`ValueError` saying which job or edge."""
        for key, kind in (("jobs", dict), ("edges", list)):
            if not (isinstance(data, dict) and isinstance(data.get(key), kind)):
                raise ValueError(f"not a plan (missing {key!r})")
        dag = cls(name=name)
        for job_name, spec in data["jobs"].items():
            try:
                dag.add_job(DagJob(name=job_name, **{
                    key: _plan_value(spec, key) for key in PLAN_JOB_KEYS
                }))
            except (KeyError, TypeError, ValueError) as exc:
                reason = f"missing {exc}" if isinstance(exc, KeyError) else exc
                raise ValueError(f"job {job_name!r}: {reason}") from None
        children = dag._children
        for edge in data["edges"]:
            try:
                parent, child = edge
                dag._check_edge(parent, child)
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"edge {edge!r}: {exc.args[0]}") from None
            kids = children[parent]
            if child not in kids:  # a plan may list an edge twice
                children[parent] = _grown(kids, child)
        # One acyclicity check for the whole plan; only a cyclic one is
        # rebuilt edge by edge, to name the first edge that closes it.
        try:
            topological_sort(dag.jobs, children)
        except CycleError:
            dag._children = dict.fromkeys(dag.jobs, ())
            for edge in data["edges"]:
                try:
                    dag.add_edge(*edge)
                except CycleError:
                    raise ValueError(f"edge {edge!r}: closes a cycle") from None
        done = data.get("done", [])
        if not (isinstance(done, list) and all(isinstance(n, str) and n in dag.jobs for n in done)):
            raise ValueError("done: not a list of this plan's job names")
        dag.done = set(done)
        return dag

    # -- .dag file round-trip ------------------------------------------

    def write_dagfile(self, path: str | Path) -> Path:
        """Serialise to Condor DAGMan file syntax."""
        lines = [f"# rescue-aware DAG file for {self.name}"]
        for name, job in self.jobs.items():
            lines.append(f"JOB {name} {job.transformation}.sub")
            if job.retries:
                lines.append(f"RETRY {name} {job.retries}")
            if job.priority:
                lines.append(f"PRIORITY {name} {job.priority}")
            if job.timeout_s is not None:
                lines.append(f"TIMEOUT {name} {job.timeout_s:g}")
            if name in self.done:
                lines.append(f"DONE {name}")
        for parent, child in self.edges():
            lines.append(f"PARENT {parent} CHILD {child}")
        return atomic_write(path, "\n".join(lines) + "\n")

    @classmethod
    def parse_dagfile(cls, path: str | Path, name: str = "workflow") -> "Dag":
        """Parse the subset written by :meth:`write_dagfile`.

        Jobs come back without payloads or runtime profiles (as with
        real DAGMan, the ``.sub`` files carry those); retries, priority,
        DONE flags and edges are restored.
        """
        dag = cls(name=name)
        pending_edges: list[tuple[str, str]] = []
        for raw in Path(path).read_text().splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            keyword = fields[0].upper()
            if keyword == "JOB":
                job_name, submit = fields[1], fields[2]
                transformation = submit.removesuffix(".sub")
                dag.add_job(DagJob(name=job_name, transformation=transformation))
            elif keyword == "RETRY":
                dag.jobs[fields[1]] = replace(
                    dag.jobs[fields[1]], retries=int(fields[2])
                )
            elif keyword == "PRIORITY":
                dag.jobs[fields[1]] = replace(
                    dag.jobs[fields[1]], priority=int(fields[2])
                )
            elif keyword == "TIMEOUT":
                dag.jobs[fields[1]] = replace(
                    dag.jobs[fields[1]], timeout_s=float(fields[2])
                )
            elif keyword == "DONE":
                dag.done.add(fields[1])
            elif keyword == "PARENT":
                split = fields.index("CHILD")
                parents = fields[1:split]
                children = fields[split + 1 :]
                for p in parents:
                    for c in children:
                        pending_edges.append((p, c))
            else:
                raise ValueError(f"unknown DAG file keyword: {keyword!r}")
        for parent, child in pending_edges:
            dag.add_edge(parent, child)
        return dag
