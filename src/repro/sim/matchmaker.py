"""Free-slot matchmaking for the platform models.

The grid model pairs queued jobs with free machines through ClassAd
``match`` (see :mod:`repro.dagman.condor`). Until PR 9 that pairing was
a linear rescan: every dispatch pass re-evaluated every queued job's
requirements against every free machine — O(queue × pool) per pass,
which is exactly the hot path a multi-tenant service layer hammers
(thousands of concurrent workflows sharing one pool).

The grid always builds an :class:`IndexedMatchmaker`. It buckets free
machines by *capability signature* (every advertised attribute except
the continuous ``speed``). A requirements expression that does not
mention ``speed`` is constant across a bucket, so one evaluation per
bucket replaces one evaluation per machine: a match costs O(buckets)
instead of O(pool), and the set of accepting buckets is memoized per
(expression, job attributes) — which is also what tells the platform's
wait index whether a freed machine can matter to a parked job
(:meth:`Matchmaker.may_accept`). Jobs whose requirements reference
``speed``, ranks other than ``"speed"``, blacklist-blocked passes, and
pools whose machines advertise their own requirements all fall back to
the linear scan on the :class:`Matchmaker` base — correctness first, the
fast path covers the common shapes. The historical scan-everything
matchmaker built on that base alone is the equivalence oracle in
``tests/oracles/linear_matchmaker.py``: property tests pin the index to
it machine for machine.

The matchmaker owns the free list as an insertion-ordered mapping
``name → free_seq``; the sequence number reproduces the oracle's
list-order tie-break (earliest-freed machine wins among equals) and
makes ``claim`` O(1) where the old ``list.remove`` paid O(pool).

Pool-wide admission checks (:meth:`Matchmaker.matchable`) are cached
per requirements signature and invalidated when pool membership
changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
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
    linear path; ``bucket_probes`` counts the buckets a ``find`` looked
    into on the indexed path (accepting buckets with a free member —
    the point is that probes scale with bucket count, not pool size).
    """

    finds: int = 0
    claims: int = 0
    ads_scanned: int = 0
    bucket_probes: int = 0
    linear_fallbacks: int = 0
    matchable_calls: int = 0
    matchable_scans: int = 0


#: (speed, -free_seq): the oracle's rank ordering — fastest machine
#: wins, ties go to the machine that has been free the longest.
_BestKey = tuple[float, int]


class Matchmaker:
    """Free-list bookkeeping, the strategy hooks and the linear scan
    the index falls back to.

    The pool is the fixed set of machines handed to the constructor
    plus any later :meth:`add_machines`; the *free* subset shrinks via
    :meth:`claim` and grows via :meth:`release`.
    """

    def __init__(self, machines: Iterable[MachineSpec]) -> None:
        self._machines: dict[str, MachineSpec] = {}
        self.ads: dict[str, ClassAd] = {}
        self._free: dict[str, int] = {}
        self._free_seq = 0
        #: Bumped by every membership change: whoever remembers a
        #: "nothing free matches" verdict must forget it when this moves.
        self.pool_epoch = 0
        self.stats = MatchmakerStats()
        self.add_machines(machines)

    # -- pool membership ------------------------------------------------

    def add_machines(self, machines: Iterable[MachineSpec]) -> None:
        """Grow the pool; new machines start out free.

        Invalidates every cached pool-wide matchability verdict — a job
        that matched nothing may match the newcomers.
        """
        for machine in machines:
            if machine.name in self._machines:
                raise ValueError(f"duplicate machine: {machine.name}")
            self._machines[machine.name] = machine
            self.ads[machine.name] = machine.classad()
            self._mark_free(machine.name)
            self._index_machine(machine)
        self.pool_epoch += 1
        self._invalidate_pool_caches()

    def remove_machine(self, name: str) -> None:
        """Shrink the pool (the machine must currently be free).

        Invalidates cached matchability — a requirements shape that
        matched only this machine is unmatchable afterwards.
        """
        if name not in self._machines:
            raise KeyError(name)
        if name not in self._free:
            raise ValueError(f"cannot remove busy machine: {name}")
        del self._free[name]
        machine = self._machines.pop(name)
        del self.ads[name]
        self._unindex_machine(machine)
        self.pool_epoch += 1
        self._invalidate_pool_caches()

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

    def is_free(self, name: str) -> bool:
        return name in self._free

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

    def _unindex_machine(self, machine: MachineSpec) -> None:
        pass

    def _on_release(self, name: str) -> None:
        pass

    def _invalidate_pool_caches(self) -> None:
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


@dataclass
class _Bucket:
    """Free machines sharing one capability signature."""

    representative: ClassAd
    #: pool members with this signature (busy or free)
    pool: set[str] = field(default_factory=set)
    #: free members (kept for O(1) emptiness checks)
    free: set[str] = field(default_factory=set)
    #: lazy max-heap of (-speed, free_seq, name); stale entries (the
    #: machine was claimed, or re-freed under a newer seq) are popped
    #: at peek time — the ready-heap idiom from the scheduler rewrite.
    heap: list[tuple[float, int, str]] = field(default_factory=list)


class IndexedMatchmaker(Matchmaker):
    """Capability-signature buckets with per-bucket best-machine heaps.

    See the module docstring for the strategy; the fallback conditions
    (speed-referencing requirements, non-``speed`` ranks, blocked
    machines, machine-side requirements, unhashable attributes) all
    route through the inherited linear scan so behaviour stays
    pinned to the oracle in every case.
    """

    def __init__(self, machines: Iterable[MachineSpec]) -> None:
        self._buckets: dict[_Signature, _Bucket] = {}
        self._sig_of: dict[str, _Signature] = {}
        self._bucketable = True
        #: (expr, job-attrs) → pool-wide matchability
        self._matchable_cache: dict[tuple, bool] = {}
        #: (expr, job-attrs) → the buckets whose machines satisfy it
        #: (None = decided per machine: the ad is not indexable)
        self._accepting_cache: dict[tuple, dict[_Signature, _Bucket] | None] = {}
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
        bucket = self._buckets.get(sig)
        if bucket is None:
            bucket = self._buckets[sig] = _Bucket(
                representative=ClassAd(
                    name="bucket-representative", attributes=dict(sig)
                )
            )
        self._sig_of[machine.name] = sig
        bucket.pool.add(machine.name)
        self._push_free(machine.name, bucket)

    def _unindex_machine(self, machine: MachineSpec) -> None:
        sig = self._sig_of.pop(machine.name, None)
        if sig is None:
            return
        bucket = self._buckets[sig]
        bucket.pool.discard(machine.name)
        bucket.free.discard(machine.name)
        if not bucket.pool:
            del self._buckets[sig]

    def _push_free(self, name: str, bucket: _Bucket) -> None:
        bucket.free.add(name)
        heappush(
            bucket.heap,
            (-self._machines[name].speed, self._free[name], name),
        )

    def _on_release(self, name: str) -> None:
        sig = self._sig_of.get(name)
        if sig is not None:
            self._push_free(name, self._buckets[sig])

    def claim(self, name: str) -> None:
        super().claim(name)
        sig = self._sig_of.get(name)
        if sig is not None:
            self._buckets[sig].free.discard(name)

    def _invalidate_pool_caches(self) -> None:
        # Neither pool-wide matchability nor the accepting set survives
        # a membership change: buckets come and go with their members.
        self._matchable_cache.clear()
        self._accepting_cache.clear()

    # -- expression analysis --------------------------------------------

    @staticmethod
    def _per_bucket(expr: str) -> bool:
        """Is ``expr`` constant across a bucket (no ``speed`` in it)?"""
        try:
            return "speed" not in compile_expression(expr)[1]
        except (SyntaxError, ValueError):
            return False  # the linear path raises it, or has nothing to scan

    def _accepting(self, ad: ClassAd) -> dict[_Signature, _Bucket] | None:
        """The buckets whose members satisfy ``ad``'s requirements, or
        ``None`` when that is not a per-bucket question (``speed`` in
        the expression, unhashable attributes, an exotic pool)."""
        job_key = ad.match_key
        if job_key is None or not self._bucketable:
            return None
        try:
            return self._accepting_cache[job_key]
        except KeyError:
            pass
        expr = ad.requirements
        accepting: dict[_Signature, _Bucket] | None = None
        if expr is None or self._per_bucket(expr):
            accepting = {
                sig: bucket
                for sig, bucket in self._buckets.items()
                if evaluate_requirements(expr, bucket.representative, my=ad)
            }
        self._accepting_cache[job_key] = accepting
        return accepting

    def may_accept(self, ad: ClassAd, name: str) -> bool:
        accepting = self._accepting(ad)
        return accepting is None or self._sig_of[name] in accepting

    # -- matching -------------------------------------------------------

    def find(
        self, ad: ClassAd, *, blocked: frozenset[str] = frozenset()
    ) -> str | None:
        self.stats.finds += 1
        accepting = None
        if not blocked and ad.rank == "speed":
            accepting = self._accepting(ad)
        if accepting is None:
            # Blocked machines may sit on bucket tops without being
            # claimable; the (rare, chaos-only) pass scans linearly.
            self.stats.linear_fallbacks += 1
            return self._find_linear(ad, blocked)
        best: _BestKey | None = None
        best_name: str | None = None
        free_seq = self._free
        for bucket in accepting.values():
            if not bucket.free:
                continue
            self.stats.bucket_probes += 1
            heap = bucket.heap
            while heap:
                neg_speed, seq, name = heap[0]
                if name in bucket.free and free_seq.get(name) == seq:
                    break
                heappop(heap)  # stale: claimed or re-freed under new seq
            if not heap:
                continue
            neg_speed, seq, name = heap[0]
            key: _BestKey = (-neg_speed, -seq)
            if best is None or key > best:
                best, best_name = key, name
        return best_name

    def matchable(self, ad: ClassAd) -> bool:
        self.stats.matchable_calls += 1
        job_key = ad.match_key
        if job_key is None:
            return self._matchable_scan(ad)
        cached = self._matchable_cache.get(job_key)
        if cached is not None:
            return cached
        # An empty bucket is deleted, so an accepting one has a member.
        accepting = self._accepting(ad)
        verdict = (
            self._matchable_scan(ad) if accepting is None else bool(accepting)
        )
        self._matchable_cache[job_key] = verdict
        return verdict

