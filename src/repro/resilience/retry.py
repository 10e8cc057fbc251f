"""Retry policies — *when* DAGMan resubmits a failed attempt.

Real DAGMan's ``RETRY`` line answers only "how many times"; production
submit hosts layer delay scripts and ``DEFER`` semantics on top so a
thundering herd of retries does not re-hit a broken resource instantly.
These policy objects give :class:`~repro.dagman.scheduler.DagmanScheduler`
that second axis:

* **how long to wait** before the re-queue (``delay_s``) — a delayed
  retry parks the node in the ``HELD`` state and releases it through
  the environment's ``call_later`` (virtual seconds on the simulators,
  a timer thread on the local backend);
* **whether evictions are charged** against the ``RETRY`` budget
  (``charge_evictions``) — the paper's OSG preemptions are the
  platform's fault, not the job's, so a policy can requeue them for
  free, exactly like condor's distinction between job failure and
  vacate;
* an optional hard ``budget`` on total requeues per job (charged or
  not) as the runaway guard free evictions would otherwise lack.
"""

from __future__ import annotations

import random

__all__ = [
    "RetryPolicy",
    "ImmediateRetry",
    "FixedDelayRetry",
    "ExponentialBackoff",
]


class RetryPolicy:
    """Base policy: immediate requeue, evictions charged, no budget."""

    def __init__(
        self,
        *,
        charge_evictions: bool = True,
        budget: int | None = None,
    ) -> None:
        if budget is not None and budget < 0:
            raise ValueError("budget must be >= 0 (or None)")
        #: When False, an EVICTED attempt re-queues without consuming a
        #: ``RETRY``; FAILED/TIMEOUT attempts always consume one.
        self.charge_evictions = charge_evictions
        #: Hard cap on total requeues per job, charged or not.
        self.budget = budget

    def delay_s(self, attempt: int) -> float:
        """Seconds to hold the node before re-queueing after the given
        (1-based) failed attempt. Zero means immediate."""
        return 0.0


class ImmediateRetry(RetryPolicy):
    """Today's default, as an explicit object."""


class FixedDelayRetry(RetryPolicy):
    """Constant delay between attempts."""

    def __init__(
        self,
        delay: float,
        *,
        charge_evictions: bool = True,
        budget: int | None = None,
    ) -> None:
        super().__init__(charge_evictions=charge_evictions, budget=budget)
        if delay < 0:
            raise ValueError("delay must be >= 0")
        self.delay = delay

    def delay_s(self, attempt: int) -> float:
        return self.delay


class ExponentialBackoff(RetryPolicy):
    """``base * factor**(attempt-1)``, capped, with deterministic jitter.

    Jitter draws come from the policy's own ``random.Random(seed)``, so
    a run is reproducible for a given seed and adding the policy never
    perturbs the platform's named RNG streams.
    """

    def __init__(
        self,
        base_s: float = 30.0,
        *,
        factor: float = 2.0,
        max_delay_s: float = 3600.0,
        jitter: float = 0.1,
        seed: int = 0,
        charge_evictions: bool = True,
        budget: int | None = None,
    ) -> None:
        super().__init__(charge_evictions=charge_evictions, budget=budget)
        if base_s < 0:
            raise ValueError("base_s must be >= 0")
        if factor < 1.0:
            raise ValueError("factor must be >= 1")
        if max_delay_s < base_s:
            raise ValueError("max_delay_s must be >= base_s")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        self.base_s = base_s
        self.factor = factor
        self.max_delay_s = max_delay_s
        self.jitter = jitter
        self._rng = random.Random(seed)

    def delay_s(self, attempt: int) -> float:
        if attempt < 1:
            raise ValueError("attempt numbers start at 1")
        delay = min(
            self.base_s * self.factor ** (attempt - 1), self.max_delay_s
        )
        if self.jitter:
            # Symmetric jitter keeps the expectation at ``delay``.
            delay *= 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
        return delay
