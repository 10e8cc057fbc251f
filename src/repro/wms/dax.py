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

import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from repro.util.iolib import atomic_write

__all__ = ["LinkType", "File", "AbstractJob", "FileFlow", "ADag"]

#: A character XML 1.0 has no way to carry, even as a reference.
_NOT_XML = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def _attr(text: str) -> str:
    """An attribute value as ElementTree escapes it."""
    if "&" in text:
        text = text.replace("&", "&amp;")
    if "<" in text:
        text = text.replace("<", "&lt;")
    if ">" in text:
        text = text.replace(">", "&gt;")
    if '"' in text:
        text = text.replace('"', "&quot;")
    if "\r" in text:
        text = text.replace("\r", "&#13;")
    if "\n" in text:
        text = text.replace("\n", "&#10;")
    if "\t" in text:
        text = text.replace("\t", "&#09;")
    return text


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
        # Missing, empty, or holding anything ``str.isspace`` accepts.
        if not self.name or self.name.split() != [self.name]:
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
        if not self.id or self.id.split() != [self.id]:
            raise ValueError(f"invalid job id: {self.id!r}")
        # ``not x >= 0`` rather than ``x < 0``: NaN fails every
        # comparison, so only the negated form rejects it.
        if not self.runtime >= 0:
            raise ValueError(
                f"job {self.id!r}: runtime must be >= 0, got {self.runtime}"
            )

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


class FileFlow(NamedTuple):
    """An abstract workflow's file graph (:meth:`ADag.flow`)."""

    #: logical file name -> id of the job that outputs it
    producers: dict[str, str]
    #: logical file name -> ids of the jobs that read it, in job order
    consumers: dict[str, list[str]]
    #: each edge once: the explicit ones, then producer→consumer data
    #: dependencies in consumer order (a DAG built in that order never
    #: has to search for a cycle when its jobs are in topological order)
    edges: list[tuple[str, str]]
    #: input files no job produces (must be staged in), first use of each
    external_inputs: list[File]


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

    def flow(self) -> FileFlow:
        """How files tie the jobs together, derived in two walks over
        the jobs; a :class:`ValueError` names the first file two jobs
        output."""
        producers: dict[str, str] = {}
        for job in self.jobs.values():
            for f, link in job.uses:
                if link is LinkType.OUTPUT:
                    if f.name in producers:
                        raise ValueError(
                            f"file {f.name!r} produced by both "
                            f"{producers[f.name]!r} and {job.id!r}"
                        )
                    producers[f.name] = job.id
        consumers: dict[str, list[str]] = {}
        edges = dict.fromkeys(self._explicit_edges)
        external: dict[str, File] = {}
        for job in self.jobs.values():
            jid = job.id
            for f, link in job.uses:
                if link is LinkType.INPUT:
                    consumers.setdefault(f.name, []).append(jid)
                    producer = producers.get(f.name)
                    if producer is None:
                        external.setdefault(f.name, f)
                    elif producer != jid:
                        edges[producer, jid] = None
        return FileFlow(producers, consumers, list(edges), list(external.values()))

    def producers(self) -> dict[str, str]:
        """Logical file name -> id of the job that outputs it."""
        return self.flow().producers

    def edges(self) -> set[tuple[str, str]]:
        """Explicit edges plus producer→consumer data dependencies."""
        return set(self.flow().edges)

    def external_inputs(self) -> list[File]:
        """Input files no workflow job produces (must be staged in)."""
        return self.flow().external_inputs

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
        """The DAX document, printed line by line: two spaces per level,
        `` />`` closing an empty element, attribute values escaped as
        ElementTree escapes them (``tests/oracles/etree_dax.py`` is the
        ElementTree writer it is held to, byte for byte).

        Text that XML 1.0 cannot carry (NUL and most other control
        characters, lone surrogates, U+FFFE/U+FFFF) is refused with a
        :class:`ValueError`: the file would not read back.
        """
        lines = [f'<adag name="{_attr(self.name)}" jobCount="{len(self)}">']
        append = lines.append
        for job in self.jobs.values():
            head = (
                f'  <job id="{_attr(job.id)}" name="{_attr(job.transformation)}"'
                f' runtime="{job.runtime!r}"'
            )
            args, uses = job.args, job.uses
            if not (args or uses):
                append(head + " />")
                continue
            append(head + ">")
            for key in sorted(args):
                append(
                    f'    <argument key="{_attr(key)}"'
                    f' value="{_attr(str(args[key]))}" />'
                )
            for f, link in uses:
                append(
                    f'    <uses name="{_attr(f.name)}" link="{link.value}"'
                    f' size="{f.size!s}" />'
                )
            append("  </job>")
        # Pegasus writes child/parent pairs; keep that shape. Only the
        # *explicit* edges are serialized — data dependencies are
        # reconstructed from <uses> on read, so writing them too would
        # turn every data edge into a redundant explicit one (DAX007)
        # on round-trip.
        children: dict[str, list[str]] = {}
        for parent, child in sorted(self._explicit_edges):
            children.setdefault(child, []).append(parent)
        for child, parents in sorted(children.items()):
            append(f'  <child ref="{_attr(child)}">')
            for parent in parents:
                append(f'    <parent ref="{_attr(parent)}" />')
            append("  </child>")
        if len(lines) == 1:
            text = lines[0][:-1] + " />\n"
        else:
            append("</adag>\n")
            text = "\n".join(lines)
        if _NOT_XML.search(text) is not None:
            raise ValueError(self._not_xml())
        return text

    def _not_xml(self) -> str:
        """Which value of this workflow XML 1.0 cannot carry."""
        for job in self.jobs.values():
            for key in sorted(job.args):
                if _NOT_XML.search(f"{key}{job.args[key]}"):
                    return (
                        f"job {job.id!r}: argument {key!r} holds a character"
                        " XML 1.0 cannot carry"
                    )
        return f"workflow {self.name!r} holds a character XML 1.0 cannot carry"

    def write(self, path: str | Path) -> Path:
        return atomic_write(path, self.to_xml())

    @classmethod
    def from_xml(cls, text: str) -> "ADag":
        """Read a DAX document; text that is not one is a
        :class:`ValueError` of one line (``line L, column C: reason``
        when the XML itself does not parse)."""
        import xml.etree.ElementTree as ET

        try:
            root = ET.fromstring(text)
        except ET.ParseError as exc:
            line, column = exc.position
            reason = str(exc).rsplit(": line ", 1)[0]
            raise ValueError(f"line {line}, column {column}: {reason}") from None
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
