"""The indexed matchmaker as it was before one heap per accepting set.

:class:`BucketHeapMatchmaker` keeps one lazy max-heap of free machines
per capability bucket and answers every :meth:`find` by peeking the top
of each bucket the job accepts and keeping the best — O(buckets) per
find, which is the cost :class:`repro.sim.matchmaker.IndexedMatchmaker`
removes by sharing one heap among every job class with the same
accepting buckets. Which machine it picks is, by construction, the
linear scan's (``tests/oracles/linear_matchmaker.py``); the index must
agree with both machine for machine. One consumer:
``tests/test_matchmaker.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Iterable

from repro.dagman.condor import (
    ClassAd,
    compile_expression,
    evaluate_requirements,
)
from repro.sim.machine import MachineSpec
from repro.sim.matchmaker import Matchmaker

__all__ = ["BucketHeapMatchmaker"]

#: (speed, -free_seq): the oracle's rank ordering — fastest machine
#: wins, ties go to the machine that has been free the longest.
_BestKey = tuple[float, int]


#: A bucket's identity: every advertised attribute except ``speed``.
_Signature = frozenset


@dataclass
class _Bucket:
    """Free machines sharing one capability signature."""

    representative: ClassAd
    #: free members (kept for O(1) emptiness checks)
    free: set[str] = field(default_factory=set)
    #: lazy max-heap of (-speed, free_seq, name); stale entries (the
    #: machine was claimed, or re-freed under a newer seq) are popped
    #: at peek time — the ready-heap idiom from the scheduler rewrite.
    heap: list[tuple[float, int, str]] = field(default_factory=list)


class BucketHeapMatchmaker(Matchmaker):
    """Capability-signature buckets with per-bucket best-machine heaps.

    The fallback conditions (speed-referencing requirements, non-``speed`` ranks, blocked
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
        self._push_free(machine.name, bucket)

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
        # A bucket exists only for a machine in it, so an accepting one
        # has a member.
        accepting = self._accepting(ad)
        verdict = (
            self._matchable_scan(ad) if accepting is None else bool(accepting)
        )
        self._matchable_cache[job_key] = verdict
        return verdict
