"""Pegasus' three catalogs.

* **Replica catalog** — where logical files physically live (LFN → PFN
  per site); the planner uses it to source stage-in transfers.
* **Transformation catalog** — where executables are installed, per
  site, and (our extension) an optional Python ``payload_factory`` that
  binds the real task callable for local execution.
* **Site catalog** — the execution sites and the properties the paper's
  comparison turns on: shared filesystem or not, pre-installed software
  or not, and which network model reaches the site.

A site's network is a first-order transfer model — a latency floor plus
bytes over bandwidth — that the planner prices stage-in/stage-out jobs
with: the paper's transfer effects (shipping inputs to remote OSG nodes
versus a campus shared filesystem) are entirely captured by the
bandwidth difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

__all__ = [
    "NetworkModel",
    "ReplicaCatalog",
    "TransformationEntry",
    "TransformationCatalog",
    "SiteEntry",
    "SiteCatalog",
    "sandhills_site",
    "osg_site",
    "cloud_site",
    "local_site",
]


@dataclass(frozen=True)
class NetworkModel:
    """Latency + bandwidth transfer model."""

    name: str
    bandwidth_bytes_per_s: float
    latency_s: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency_s < 0:
            raise ValueError("latency must be >= 0")

    def transfer_time(self, nbytes: int | float) -> float:
        """Seconds to move ``nbytes`` (0 bytes still pays latency)."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        return self.latency_s + nbytes / self.bandwidth_bytes_per_s


#: Campus shared filesystem: effectively local (GbE+, LAN latency).
CAMPUS_SHARED_FS = NetworkModel(
    name="campus-sharedfs", bandwidth_bytes_per_s=500e6, latency_s=0.01
)

#: Wide-area transfers to opportunistic OSG slots.
WAN = NetworkModel(name="wan", bandwidth_bytes_per_s=10e6, latency_s=0.2)

#: Intra-datacenter object-store bandwidth for the cloud site.
DATACENTER = NetworkModel(
    name="datacenter", bandwidth_bytes_per_s=100e6, latency_s=0.05
)


class ReplicaCatalog:
    """LFN → (PFN, site) mappings."""

    def __init__(self) -> None:
        self._entries: dict[str, list[tuple[str, str]]] = {}

    def add(self, lfn: str, pfn: str, *, site: str = "local") -> None:
        if not lfn:
            raise ValueError("lfn must be non-empty")
        self._entries.setdefault(lfn, []).append((pfn, site))

    def lookup(self, lfn: str, *, site: str | None = None) -> list[str]:
        """PFNs for a logical file, optionally restricted to a site."""
        pfns = self._entries.get(lfn, [])
        return [p for p, s in pfns if site is None or s == site]

    def has(self, lfn: str) -> bool:
        return lfn in self._entries

    def entries(self) -> Iterator[tuple[str, str, str]]:
        """Every (lfn, pfn, site) mapping, in insertion order."""
        for lfn, pfns in self._entries.items():
            for pfn, site in pfns:
                yield lfn, pfn, site


@dataclass(frozen=True)
class TransformationEntry:
    """One executable: where it is installed and how to invoke it.

    ``payload_factory(args)`` returns a zero-argument callable for the
    real local executor; modelled-only transformations leave it None.
    ``installed_sites`` lists sites with the software pre-deployed —
    on other sites the planner adds a download/install step.
    """

    name: str
    pfn: str = ""
    installed_sites: frozenset[str] = field(default_factory=frozenset)
    payload_factory: Callable[[Mapping[str, Any]], Callable[[], Any]] | None = (
        None
    )

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("transformation name must be non-empty")

    def installed_at(self, site: str) -> bool:
        return site in self.installed_sites


class TransformationCatalog:
    """Transformation name → entry."""

    def __init__(self) -> None:
        self._entries: dict[str, TransformationEntry] = {}

    def add(self, entry: TransformationEntry) -> None:
        if entry.name in self._entries:
            raise ValueError(f"duplicate transformation: {entry.name!r}")
        self._entries[entry.name] = entry

    def lookup(self, name: str) -> TransformationEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise KeyError(f"transformation not in catalog: {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._entries


@dataclass(frozen=True)
class SiteEntry:
    """One execution site's planner-relevant properties."""

    name: str
    shared_filesystem: bool
    software_preinstalled: bool
    network: NetworkModel
    scratch_dir: str = "/scratch"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("site name must be non-empty")


class SiteCatalog:
    """Site name → entry."""

    def __init__(self) -> None:
        self._entries: dict[str, SiteEntry] = {}

    def add(self, entry: SiteEntry) -> None:
        if entry.name in self._entries:
            raise ValueError(f"duplicate site: {entry.name!r}")
        self._entries[entry.name] = entry

    def lookup(self, name: str) -> SiteEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise KeyError(f"site not in catalog: {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[SiteEntry]:
        """Entries in site-name order."""
        for name in sorted(self._entries):
            yield self._entries[name]


def sandhills_site() -> SiteEntry:
    """The campus cluster: shared FS, maintained software stack."""
    return SiteEntry(
        name="sandhills",
        shared_filesystem=True,
        software_preinstalled=True,
        network=CAMPUS_SHARED_FS,
        scratch_dir="/work/group",
    )


def osg_site() -> SiteEntry:
    """The grid: no shared FS, heterogeneous software, WAN staging."""
    return SiteEntry(
        name="osg",
        shared_filesystem=False,
        software_preinstalled=False,
        network=WAN,
        scratch_dir="/tmp/osg-scratch",
    )


def cloud_site() -> SiteEntry:
    """The cloud (paper's future work): machine images carry the
    software (no per-job setup), data moves via the object store."""
    return SiteEntry(
        name="cloud",
        shared_filesystem=False,
        software_preinstalled=True,  # baked into the VM image
        network=DATACENTER,
        scratch_dir="/mnt/scratch",
    )


def local_site() -> SiteEntry:
    """The submit host itself (for real local runs)."""
    return SiteEntry(
        name="local",
        shared_filesystem=True,
        software_preinstalled=True,
        network=CAMPUS_SHARED_FS,
        scratch_dir="/tmp",
    )
