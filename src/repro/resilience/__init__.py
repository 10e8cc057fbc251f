"""``repro.resilience`` — fault injection, retry policies, recovery.

The paper's central result is a *failure* story: OSG loses to a much
smaller campus cluster because of start failures, preemption, and the
retries they force. This package makes that story a first-class,
testable subsystem:

* :mod:`repro.resilience.faults` — composable fault plans (start
  failures, evictions, stragglers, hangs, site outages, bad nodes,
  scripted per-attempt faults) injected into all three simulators and,
  via payload wrappers, the real local backend — deterministic under
  the named-RNG-stream contract;
* :mod:`repro.resilience.retry` — pluggable
  :class:`~repro.resilience.retry.RetryPolicy` objects for DAGMan
  (immediate / fixed delay / exponential backoff with jitter), with
  eviction-vs-failure accounting and a requeue budget;
* :mod:`repro.resilience.blacklist` — the circuit breaker that stops
  matching jobs onto machines (or whole sites) that keep failing them
  on arrival;
* :mod:`repro.resilience.recovery` —
  :func:`~repro.resilience.recovery.run_with_recovery`, the automated
  rescue-DAG resubmit loop;
* :mod:`repro.resilience.journal` — the crash-consistent write-ahead
  journal: every durable scheduler decision hits an fsynced,
  CRC-framed WAL before it takes effect in memory, snapshots bound the
  replay, and :func:`~repro.resilience.journal.recover` resumes a
  ``kill -9``'d run without re-executing completed jobs.

Everything emits typed events (``job.timeout``, ``job.held``,
``fault.injected``, ``blacklist.add``, ``rescue.round``) on the
:mod:`repro.observe` bus, so recovery is visible live in
``repro-status`` and in ``events.jsonl``.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.blacklist import Blacklist, BlacklistPolicy
    from repro.resilience.faults import (
        AttemptFault,
        BadNode,
        ChaosPayload,
        CrashFault,
        CrashInjected,
        Eviction,
        FaultDecision,
        FaultInjected,
        FaultInjector,
        FaultPlan,
        Hang,
        SiteOutage,
        Slowdown,
        StartFailure,
        resolve_exec,
    )
    from repro.resilience.journal import (
        Journal,
        JournalError,
        JournalState,
        ReconcileReport,
        RecoveredState,
        reconcile_local,
        recover,
    )
    from repro.resilience.recovery import (
        RecoveryResult,
        RecoveryRound,
        run_with_recovery,
    )
    from repro.resilience.retry import (
        ExponentialBackoff,
        FixedDelayRetry,
        ImmediateRetry,
        RetryPolicy,
    )

_EXPORTS = {
    "Blacklist": ("repro.resilience.blacklist", "Blacklist"),
    "BlacklistPolicy": ("repro.resilience.blacklist", "BlacklistPolicy"),
    "AttemptFault": ("repro.resilience.faults", "AttemptFault"),
    "BadNode": ("repro.resilience.faults", "BadNode"),
    "ChaosPayload": ("repro.resilience.faults", "ChaosPayload"),
    "CrashFault": ("repro.resilience.faults", "CrashFault"),
    "CrashInjected": ("repro.resilience.faults", "CrashInjected"),
    "Eviction": ("repro.resilience.faults", "Eviction"),
    "FaultDecision": ("repro.resilience.faults", "FaultDecision"),
    "FaultInjected": ("repro.resilience.faults", "FaultInjected"),
    "FaultInjector": ("repro.resilience.faults", "FaultInjector"),
    "FaultPlan": ("repro.resilience.faults", "FaultPlan"),
    "Hang": ("repro.resilience.faults", "Hang"),
    "SiteOutage": ("repro.resilience.faults", "SiteOutage"),
    "Slowdown": ("repro.resilience.faults", "Slowdown"),
    "StartFailure": ("repro.resilience.faults", "StartFailure"),
    "resolve_exec": ("repro.resilience.faults", "resolve_exec"),
    "Journal": ("repro.resilience.journal", "Journal"),
    "JournalError": ("repro.resilience.journal", "JournalError"),
    "JournalState": ("repro.resilience.journal", "JournalState"),
    "ReconcileReport": ("repro.resilience.journal", "ReconcileReport"),
    "RecoveredState": ("repro.resilience.journal", "RecoveredState"),
    "reconcile_local": ("repro.resilience.journal", "reconcile_local"),
    "recover": ("repro.resilience.journal", "recover"),
    "RecoveryResult": ("repro.resilience.recovery", "RecoveryResult"),
    "RecoveryRound": ("repro.resilience.recovery", "RecoveryRound"),
    "run_with_recovery": ("repro.resilience.recovery", "run_with_recovery"),
    "ExponentialBackoff": ("repro.resilience.retry", "ExponentialBackoff"),
    "FixedDelayRetry": ("repro.resilience.retry", "FixedDelayRetry"),
    "ImmediateRetry": ("repro.resilience.retry", "ImmediateRetry"),
    "RetryPolicy": ("repro.resilience.retry", "RetryPolicy"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "Blacklist",
    "BlacklistPolicy",
    "AttemptFault",
    "BadNode",
    "ChaosPayload",
    "CrashFault",
    "CrashInjected",
    "Journal",
    "JournalError",
    "JournalState",
    "ReconcileReport",
    "RecoveredState",
    "reconcile_local",
    "recover",
    "Eviction",
    "FaultDecision",
    "FaultInjected",
    "FaultInjector",
    "FaultPlan",
    "Hang",
    "SiteOutage",
    "Slowdown",
    "StartFailure",
    "resolve_exec",
    "RecoveryResult",
    "RecoveryRound",
    "run_with_recovery",
    "ExponentialBackoff",
    "FixedDelayRetry",
    "ImmediateRetry",
    "RetryPolicy",
]
