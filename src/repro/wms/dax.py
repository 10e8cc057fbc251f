"""The abstract workflow model (Pegasus' DAX).

An :class:`ADag` is platform-independent: jobs reference *logical* files
(by name) and declare how they use them (input/output). Dependencies can
be added explicitly or inferred from producer→consumer file relations,
exactly as ``pegasus-plan`` does. The XML serialisation follows the
shape of DAX 3 (``<adag>``, ``<job>``, ``<uses>``, ``<child>/<parent>``)
closely enough to be immediately recognisable, with one extension: an
optional ``runtime`` attribute per job carrying the modelled duration
used by the simulators.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from repro.util.iolib import atomic_write

__all__ = ["LinkType", "File", "AbstractJob", "ADag"]


class LinkType(Enum):
    """How a job uses a file."""

    INPUT = "input"
    OUTPUT = "output"


@dataclass(frozen=True)
class File:
    """A logical file: a name in the workflow's namespace plus a size
    estimate (bytes) used for transfer-time modelling."""

    name: str
    size: int = 0

    def __post_init__(self) -> None:
        if not self.name or any(c.isspace() for c in self.name):
            raise ValueError(f"invalid logical file name: {self.name!r}")
        if self.size < 0:
            raise ValueError("size must be >= 0")


@dataclass
class AbstractJob:
    """One abstract task.

    ``args`` are the task's logical arguments (stringifiable values);
    ``runtime`` is the modelled payload duration on a reference core
    (consumed by the simulators; ignored by the real executor, which
    binds actual callables via the transformation catalog).
    """

    id: str
    transformation: str
    args: dict[str, str] = field(default_factory=dict)
    uses: list[tuple[File, LinkType]] = field(default_factory=list)
    runtime: float = 1.0

    def __post_init__(self) -> None:
        if not self.id or any(c.isspace() for c in self.id):
            raise ValueError(f"invalid job id: {self.id!r}")
        if self.runtime < 0:
            raise ValueError("runtime must be >= 0")

    def add_input(self, f: File) -> "AbstractJob":
        self.uses.append((f, LinkType.INPUT))
        return self

    def add_output(self, f: File) -> "AbstractJob":
        self.uses.append((f, LinkType.OUTPUT))
        return self

    def inputs(self) -> list[File]:
        return [f for f, link in self.uses if link is LinkType.INPUT]

    def outputs(self) -> list[File]:
        return [f for f, link in self.uses if link is LinkType.OUTPUT]


class ADag:
    """An abstract workflow: jobs, logical files, and dependencies."""

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("workflow name must be non-empty")
        self.name = name
        self.jobs: dict[str, AbstractJob] = {}
        self._explicit_edges: set[tuple[str, str]] = set()

    def add_job(self, job: AbstractJob) -> AbstractJob:
        if job.id in self.jobs:
            raise ValueError(f"duplicate job id: {job.id!r}")
        self.jobs[job.id] = job
        return job

    def add_dependency(self, parent: str, child: str) -> None:
        for jid in (parent, child):
            if jid not in self.jobs:
                raise KeyError(f"unknown job id: {jid!r}")
        if parent == child:
            raise ValueError("self-dependency")
        self._explicit_edges.add((parent, child))

    # -- derived structure ------------------------------------------------

    def producers(self) -> dict[str, str]:
        """Logical file name -> id of the job that outputs it."""
        out: dict[str, str] = {}
        for job in self.jobs.values():
            for f in job.outputs():
                if f.name in out:
                    raise ValueError(
                        f"file {f.name!r} produced by both {out[f.name]!r} "
                        f"and {job.id!r}"
                    )
                out[f.name] = job.id
        return out

    def edges(self) -> set[tuple[str, str]]:
        """Explicit edges plus producer→consumer data dependencies."""
        edges = set(self._explicit_edges)
        producers = self.producers()
        for job in self.jobs.values():
            for f in job.inputs():
                producer = producers.get(f.name)
                if producer is not None and producer != job.id:
                    edges.add((producer, job.id))
        return edges

    def external_inputs(self) -> list[File]:
        """Input files no workflow job produces (must be staged in)."""
        producers = self.producers()
        seen: dict[str, File] = {}
        for job in self.jobs.values():
            for f in job.inputs():
                if f.name not in producers:
                    seen.setdefault(f.name, f)
        return list(seen.values())

    def final_outputs(self) -> list[File]:
        """Output files no workflow job consumes (stage-out targets)."""
        consumed = {
            f.name for job in self.jobs.values() for f in job.inputs()
        }
        outs = []
        for job in self.jobs.values():
            for f in job.outputs():
                if f.name not in consumed:
                    outs.append(f)
        return outs

    def __len__(self) -> int:
        return len(self.jobs)

    # -- DAX XML ----------------------------------------------------------

    def to_xml(self) -> str:
        root = ET.Element("adag", {"name": self.name, "jobCount": str(len(self))})
        for job in self.jobs.values():
            j = ET.SubElement(
                root,
                "job",
                {
                    "id": job.id,
                    "name": job.transformation,
                    "runtime": repr(job.runtime),
                },
            )
            for key in sorted(job.args):
                ET.SubElement(
                    j, "argument", {"key": key, "value": str(job.args[key])}
                )
            for f, link in job.uses:
                ET.SubElement(
                    j,
                    "uses",
                    {
                        "name": f.name,
                        "link": link.value,
                        "size": str(f.size),
                    },
                )
        # Pegasus writes child/parent pairs; keep that shape. Only the
        # *explicit* edges are serialized — data dependencies are
        # reconstructed from <uses> on read, so writing them too would
        # turn every data edge into a redundant explicit one (DAX007)
        # on round-trip.
        children: dict[str, list[str]] = {}
        for parent, child in sorted(self._explicit_edges):
            children.setdefault(child, []).append(parent)
        for child, parents in sorted(children.items()):
            c = ET.SubElement(root, "child", {"ref": child})
            for parent in parents:
                ET.SubElement(c, "parent", {"ref": parent})
        ET.indent(root)
        return ET.tostring(root, encoding="unicode") + "\n"

    def write(self, path: str | Path) -> Path:
        return atomic_write(path, self.to_xml())

    @classmethod
    def from_xml(cls, text: str) -> "ADag":
        root = ET.fromstring(text)
        if root.tag != "adag":
            raise ValueError(f"not a DAX document: root is <{root.tag}>")
        adag = cls(name=root.get("name", "workflow"))
        for j in root.findall("job"):
            job = AbstractJob(
                id=j.get("id"),
                transformation=j.get("name"),
                runtime=float(j.get("runtime", "1.0")),
            )
            for arg in j.findall("argument"):
                job.args[arg.get("key")] = arg.get("value")
            for use in j.findall("uses"):
                f = File(name=use.get("name"), size=int(use.get("size", "0")))
                link = LinkType(use.get("link"))
                job.uses.append((f, link))
            adag.add_job(job)
        for c in root.findall("child"):
            child = c.get("ref")
            for p in c.findall("parent"):
                # Data dependencies regenerate from uses; only add edges
                # not already implied, as explicit ones.
                adag._explicit_edges.add((p.get("ref"), child))
        return adag

    @classmethod
    def read(cls, path: str | Path) -> "ADag":
        return cls.from_xml(Path(path).read_text())
