"""The DAX writer as ``repro.wms.dax`` had it: an ElementTree built
from the workflow, indented and serialised.

:meth:`repro.wms.dax.ADag.to_xml` now prints the document line by
line; for any workflow whose text XML 1.0 can carry it must give these
bytes.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from repro.wms.dax import ADag

__all__ = ["etree_dax"]


def etree_dax(adag: ADag) -> str:
    root = ET.Element("adag", {"name": adag.name, "jobCount": str(len(adag))})
    for job in adag.jobs.values():
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
    children: dict[str, list[str]] = {}
    for parent, child in sorted(adag._explicit_edges):
        children.setdefault(child, []).append(parent)
    for child, parents in sorted(children.items()):
        c = ET.SubElement(root, "child", {"ref": child})
        for parent in parents:
            ET.SubElement(c, "parent", {"ref": parent})
    ET.indent(root)
    return ET.tostring(root, encoding="unicode") + "\n"
