"""The matchmaker as it was before the capability-signature index.

:class:`LinearMatchmaker` answers every :meth:`find` by walking the
free list and every :meth:`matchable` by re-scanning the whole pool,
with no memo — O(pool) per question, which is why the grid builds
:class:`repro.sim.matchmaker.IndexedMatchmaker` instead. Which machine
it picks (fastest wins, ties go to the machine free the longest) is the
specification the index must match machine for machine, and its
``stats.ads_scanned`` is the work the index must not do.

It adds nothing to the scan: both methods are the fallbacks the
:class:`~repro.sim.matchmaker.Matchmaker` base keeps for the shapes the
index cannot serve (requirements that mention ``speed``, other ranks,
blocked machines), called unconditionally. One consumer:
``tests/test_matchmaker.py``.
"""

from __future__ import annotations

from repro.dagman.condor import ClassAd
from repro.sim.matchmaker import Matchmaker

__all__ = ["LinearMatchmaker"]


class LinearMatchmaker(Matchmaker):
    """The historical O(pool) scan (oracle only)."""

    def find(
        self, ad: ClassAd, *, blocked: frozenset[str] = frozenset()
    ) -> str | None:
        self.stats.finds += 1
        return self._find_linear(ad, blocked)

    def matchable(self, ad: ClassAd) -> bool:
        self.stats.matchable_calls += 1
        return self._matchable_scan(ad)
