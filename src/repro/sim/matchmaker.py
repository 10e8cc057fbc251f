"""Free-slot matchmaking for the platform models.

The grid model pairs queued jobs with free machines through ClassAd
``match`` (see :mod:`repro.dagman.condor`). Until PR 9 that pairing was
a linear rescan: every dispatch pass re-evaluated every queued job's
requirements against every free machine — O(queue × pool) per pass,
which is exactly the hot path a multi-tenant service layer hammers
(thousands of concurrent workflows sharing one pool).

The grid always builds an :class:`IndexedMatchmaker`. It buckets
machines by *capability signature* (every advertised attribute except
the continuous ``speed``). A requirements expression that does not
mention ``speed`` is constant across a bucket, so one evaluation per
bucket replaces one evaluation per machine, and the set of accepting
buckets is memoized per (expression, job attributes) — which is also
what tells the platform's wait index whether a freed machine can matter
to a parked job (:meth:`Matchmaker.may_accept`). Every distinct
accepting set owns one lazy heap of its free machines, best first,
shared by all the job classes that accept exactly that set: a match is
the heap's top, O(log pool) amortised, however many buckets accept.
Jobs whose requirements reference ``speed``, ranks other than
``"speed"``, blacklist-blocked passes, and pools whose machines
advertise their own requirements all fall back to the linear scan on
the :class:`Matchmaker` base — correctness first, the fast path covers
the common shapes. The historical scan-everything matchmaker built on
that base alone is the equivalence oracle in
``tests/oracles/linear_matchmaker.py``, and the per-bucket heaps this
index replaced (O(buckets) per match) are the one in
``tests/oracles/bucket_heap_matchmaker.py``: property tests pin the
index to both machine for machine.

The matchmaker owns the free list as an insertion-ordered mapping
``name → free_seq``; the sequence number reproduces the oracle's
list-order tie-break (earliest-freed machine wins among equals) and
makes ``claim`` O(1) where the old ``list.remove`` paid O(pool).

Pool-wide admission checks (:meth:`Matchmaker.matchable`) are cached
per requirements signature. The pool is fixed at construction, so a
cached verdict never goes stale.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Iterable

from repro.dagman.condor import (
    ClassAd,
    compile_expression,
    evaluate_requirements,
    match,
)
from repro.sim.machine import MachineSpec

__all__ = [
    "MatchmakerStats",
    "Matchmaker",
    "IndexedMatchmaker",
]


@dataclass
class MatchmakerStats:
    """Work counters — what the dispatch-cost benchmarks and the
    O(pool)-regression tests measure.

    ``ads_scanned`` counts per-machine requirement evaluations on the
    linear path; ``bucket_probes`` counts the heap entries a ``find``
    examined on the indexed path — the stale ones it popped plus the
    live top it returned — so it scales with claims and releases, not
    with pool size or bucket count.
    """

    finds: int = 0
    claims: int = 0
    ads_scanned: int = 0
    bucket_probes: int = 0
    linear_fallbacks: int = 0
    matchable_calls: int = 0
    matchable_scans: int = 0


class Matchmaker:
    """Free-list bookkeeping, the strategy hooks and the linear scan
    the index falls back to.

    The pool is the set of machines handed to the constructor, all of
    them free at first; the *free* subset shrinks via :meth:`claim` and
    grows via :meth:`release`.
    """

    def __init__(self, machines: Iterable[MachineSpec]) -> None:
        self._machines: dict[str, MachineSpec] = {}
        self.ads: dict[str, ClassAd] = {}
        self._free: dict[str, int] = {}
        self._free_seq = 0
        self.stats = MatchmakerStats()
        for machine in machines:
            if machine.name in self._machines:
                raise ValueError(f"duplicate machine: {machine.name}")
            self._machines[machine.name] = machine
            self.ads[machine.name] = machine.classad()
            self._mark_free(machine.name)
            self._index_machine(machine)

    # -- free-list bookkeeping ------------------------------------------

    @property
    def pool_size(self) -> int:
        return len(self._machines)

    def machine(self, name: str) -> MachineSpec:
        return self._machines[name]

    @property
    def free_count(self) -> int:
        return len(self._free)

    def free_names(self) -> list[str]:
        """Free machines, earliest-freed first (the oracle's scan
        order)."""
        return list(self._free)

    def claim(self, name: str) -> None:
        """Take a free machine out of the free set — O(1)."""
        del self._free[name]
        self.stats.claims += 1

    def release(self, name: str) -> None:
        """Return a machine to the free set, behind every machine that
        is already free (list-append semantics)."""
        if name in self._free:
            raise ValueError(f"machine already free: {name}")
        if name not in self._machines:
            raise KeyError(name)
        self._mark_free(name)
        self._on_release(name)

    def _mark_free(self, name: str) -> None:
        seq = self._free_seq
        self._free_seq = seq + 1
        self._free[name] = seq

    # -- matching -------------------------------------------------------

    def find(
        self, ad: ClassAd, *, blocked: frozenset[str] = frozenset()
    ) -> str | None:
        """The machine the oracle scan would pick for ``ad`` among free,
        non-blocked machines (``None`` when nothing matches). Does NOT
        claim it — callers pair ``find`` with :meth:`claim`."""
        raise NotImplementedError

    def matchable(self, ad: ClassAd) -> bool:
        """Could *any* machine in the pool — busy or free — ever run
        this job? (The admission-control question.)"""
        raise NotImplementedError

    def may_accept(self, ad: ClassAd, name: str) -> bool:
        """Could freeing machine ``name`` turn a ``find(ad)`` that just
        returned ``None`` into a match? False only when that is known
        for certain (the wait index leaves ``ad``'s class asleep)."""
        return True

    # -- strategy hooks -------------------------------------------------

    def _index_machine(self, machine: MachineSpec) -> None:
        pass

    def _on_release(self, name: str) -> None:
        pass

    # -- the shared linear scan -----------------------------------------

    def _find_linear(
        self, ad: ClassAd, blocked: frozenset[str]
    ) -> str | None:
        candidates = [n for n in self._free if n not in blocked]
        self.stats.ads_scanned += len(candidates)
        chosen = match(ad, [self.ads[name] for name in candidates])
        return chosen.name if chosen is not None else None

    def _matchable_scan(self, ad: ClassAd) -> bool:
        self.stats.matchable_scans += 1
        self.stats.ads_scanned += len(self.ads)
        return any(
            match(ad, [self.ads[name]]) is not None for name in self.ads
        )


#: A bucket's identity: every advertised attribute except ``speed``.
_Signature = frozenset


@dataclass(slots=True, eq=False)
class _Heap:
    """The free machines of one accepting-bucket set, best first.

    A lazy min-heap of ``(-speed, free_seq, name)``: an entry is live
    while ``free[name] == free_seq``; one whose machine was claimed (or
    re-freed under a newer sequence number) is stale and popped when it
    reaches the top.
    """

    buckets: frozenset[_Signature]
    entries: list[tuple[float, int, str]]
    #: twice the machines in ``buckets``: a longer heap is mostly stale
    bound: int


class IndexedMatchmaker(Matchmaker):
    """Capability-signature buckets; one best-machine heap per distinct
    accepting-bucket set.

    See the module docstring for the strategy; the fallback conditions
    (speed-referencing requirements, non-``speed`` ranks, blocked
    machines, machine-side requirements, unhashable attributes) all
    route through the inherited linear scan so behaviour stays
    pinned to the oracle in every case.
    """

    def __init__(self, machines: Iterable[MachineSpec]) -> None:
        #: signature → the ad a bucket's requirements are evaluated on
        self._buckets: dict[_Signature, ClassAd] = {}
        self._sig_of: dict[str, _Signature] = {}
        self._bucketable = True
        #: (expr, job-attrs) → pool-wide matchability
        self._matchable_cache: dict[tuple, bool] = {}
        #: (expr, job-attrs) → the heap of its accepting buckets
        #: (None = decided per machine: the ad is not indexable)
        self._accepting_cache: dict[tuple, _Heap | None] = {}
        #: accepting-bucket set → its heap, shared by every class with it
        self._heaps: dict[frozenset[_Signature], _Heap] = {}
        #: bucket → the heaps a machine of it joins when released
        self._heaps_of: dict[_Signature, list[_Heap]] = {}
        super().__init__(machines)

    # -- indexing -------------------------------------------------------

    @staticmethod
    def _signature(ad: ClassAd) -> _Signature | None:
        try:
            return frozenset(
                (k, v) for k, v in ad.attributes.items() if k != "speed"
            )
        except TypeError:
            return None  # unhashable attribute value

    def _index_machine(self, machine: MachineSpec) -> None:
        ad = self.ads[machine.name]
        sig = self._signature(ad)
        if sig is None or ad.requirements is not None:
            # An exotic pool: match() must see each machine individually.
            self._bucketable = False
            return
        if sig not in self._buckets:
            self._buckets[sig] = ClassAd(
                name="bucket-representative", attributes=dict(sig)
            )
        self._sig_of[machine.name] = sig

    def _heap_for(self, buckets: frozenset[_Signature]) -> _Heap:
        """The shared heap of ``buckets``, built from the free list the
        first time any class accepts exactly that set."""
        heap = self._heaps.get(buckets)
        if heap is None:
            members = [
                name for name, sig in self._sig_of.items() if sig in buckets
            ]
            free, machines = self._free, self._machines
            entries = [
                (-machines[name].speed, free[name], name)
                for name in members
                if name in free
            ]
            heapify(entries)
            heap = self._heaps[buckets] = _Heap(
                buckets, entries, 2 * len(members)
            )
            for sig in buckets:
                self._heaps_of.setdefault(sig, []).append(heap)
        return heap

    def _on_release(self, name: str) -> None:
        heaps = self._heaps_of.get(self._sig_of.get(name))
        if not heaps:
            return
        entry = (-self._machines[name].speed, self._free[name], name)
        for heap in heaps:
            entries = heap.entries
            heappush(entries, entry)
            if len(entries) > heap.bound:
                self._compact(heap)

    def _compact(self, heap: _Heap) -> None:
        """Drop the stale entries, in place. Past ``bound`` more than
        half the heap is stale (a set has at most one live entry per
        machine), so rebuilding keeps each heap O(pool) amortised even
        when other classes, or blocked passes, do all the claiming."""
        free = self._free
        entries = heap.entries
        entries[:] = [e for e in entries if free.get(e[2]) == e[1]]
        heapify(entries)

    # -- expression analysis --------------------------------------------

    @staticmethod
    def _per_bucket(expr: str) -> bool:
        """Is ``expr`` constant across a bucket (no ``speed`` in it)?"""
        try:
            return "speed" not in compile_expression(expr)[1]
        except (SyntaxError, ValueError):
            return False  # the linear path raises it, or has nothing to scan

    def _accepting(self, ad: ClassAd) -> _Heap | None:
        """The heap of the buckets whose members satisfy ``ad``'s
        requirements, or ``None`` when that is not a per-bucket question
        (``speed`` in the expression, unhashable attributes, an exotic
        pool)."""
        job_key = ad.match_key
        if job_key is None or not self._bucketable:
            return None
        try:
            return self._accepting_cache[job_key]
        except KeyError:
            pass
        expr = ad.requirements
        accepting: _Heap | None = None
        if expr is None or self._per_bucket(expr):
            accepting = self._heap_for(frozenset(
                sig
                for sig, representative in self._buckets.items()
                if evaluate_requirements(expr, representative, my=ad)
            ))
        self._accepting_cache[job_key] = accepting
        return accepting

    def may_accept(self, ad: ClassAd, name: str) -> bool:
        accepting = self._accepting(ad)
        return accepting is None or self._sig_of[name] in accepting.buckets

    # -- matching -------------------------------------------------------

    def find(
        self, ad: ClassAd, *, blocked: frozenset[str] = frozenset()
    ) -> str | None:
        self.stats.finds += 1
        accepting = None
        if not blocked and ad.rank == "speed":
            accepting = self._accepting(ad)
        if accepting is None:
            # Blocked machines may sit on a heap's top without being
            # claimable; the (rare, chaos-only) pass scans linearly.
            self.stats.linear_fallbacks += 1
            return self._find_linear(ad, blocked)
        # ``free_seq`` is unique per free machine, so the heap's top is
        # the oracle's pick: fastest, then free the longest.
        entries = accepting.entries
        free = self._free
        probes = 0
        chosen = None
        while entries:
            probes += 1
            _, seq, name = entries[0]
            if free.get(name) == seq:
                chosen = name
                break
            heappop(entries)  # stale: claimed or re-freed under new seq
        self.stats.bucket_probes += probes
        return chosen

    def matchable(self, ad: ClassAd) -> bool:
        self.stats.matchable_calls += 1
        job_key = ad.match_key
        if job_key is None:
            return self._matchable_scan(ad)
        cached = self._matchable_cache.get(job_key)
        if cached is not None:
            return cached
        # A bucket exists only for a machine in it, so an accepting one
        # has a member.
        accepting = self._accepting(ad)
        verdict = (
            self._matchable_scan(ad)
            if accepting is None
            else bool(accepting.buckets)
        )
        self._matchable_cache[job_key] = verdict
        return verdict
