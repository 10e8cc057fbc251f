"""``run_with_recovery`` — the pegasus-dagman resubmit loop, automated.

The paper's operators recovered failed OSG runs by hand: inspect,
``pegasus-run`` the rescue DAG, repeat. This module closes that loop:
run the DAG, and while anything failed, write a ``*.rescue00K`` file,
carry the DONE marks forward, emit a ``rescue.round`` event, and
resubmit — up to ``max_rounds`` rounds, on one environment (one
continuing clock and pool).

The merged trace spans every round, so ``pegasus-statistics``'
planned-vs-attempted accounting stays consistent across recovery: jobs
done in round 1 are DONE marks (not attempts) in round 2, exactly as
with real rescue DAGs.

:func:`run_simulated` is every simulated run's driver: it builds the
platform a site name stands for and runs a DAG under this loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from repro.dagman.dag import Dag
from repro.dagman.events import WorkflowTrace
from repro.observe.bus import EventBus
from repro.observe.events import EventKind, RunEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dagman.scheduler import (
        DagmanResult,
        DagmanScheduler,
        ExecutionEnvironment,
    )
    from repro.observe.sampler import UtilizationSampler
    from repro.resilience.blacklist import BlacklistPolicy
    from repro.resilience.faults import FaultPlan
    from repro.resilience.journal import Journal, RecoveredState

__all__ = ["RecoveryRound", "RecoveryResult", "run_with_recovery", "run_simulated"]


@dataclass
class RecoveryRound:
    """One DAGMan round inside a recovery run."""

    number: int  # 1-based
    result: DagmanResult
    rescue_path: Path | None  # written when the round left failures


@dataclass
class RecoveryResult:
    """Outcome of the whole resubmit loop."""

    success: bool
    rounds: list[RecoveryRound] = field(default_factory=list)
    trace: WorkflowTrace = field(default_factory=WorkflowTrace)

    @property
    def final(self) -> DagmanResult:
        return self.rounds[-1].result

    @property
    def rescue_paths(self) -> list[Path]:
        return [r.rescue_path for r in self.rounds if r.rescue_path]


def run_with_recovery(
    dag: Dag,
    environment: ExecutionEnvironment,
    *,
    max_rounds: int = 3,
    rescue_dir: str | Path | None = None,
    bus: EventBus | None = None,
    on_round_start: Callable[[DagmanScheduler, int], None] | None = None,
    journal: "Journal | None" = None,
    resume: "RecoveredState | None" = None,
    **scheduler_kwargs: object,
) -> RecoveryResult:
    """Run ``dag``, rescuing and resubmitting until success or
    ``max_rounds`` rounds are spent.

    ``environment`` is reused every round: simulators keep one virtual
    timeline, the local pool keeps its workers warm. ``rescue_dir``
    receives ``<dag>.rescue001`` … files after
    each failed round (omit to skip writing them). Extra keyword
    arguments (``max_jobs``, ``retry_policy``, …) go to every round's
    :class:`DagmanScheduler`; ``on_round_start`` fires after each
    round's initial submissions, before the environment is driven
    (start samplers there).

    Durability: pass ``journal`` (a live, bus-subscribed
    :class:`~repro.resilience.journal.Journal`) to compact it after
    every round — a crash then replays at most one round's WAL suffix.
    Pass ``resume`` (a :class:`~repro.resilience.journal.RecoveredState`)
    to continue a crashed run: the journaled done set becomes DONE
    marks, the first resumed round's scheduler restores the journaled
    attempt/retry counters, the rescue-round numbering carries on from
    the journal, and the merged trace is seeded with the journaled
    attempts. ``dag`` must be the same abstract DAG the crashed run
    was executing.
    """
    # Imported here, not at module top: the simulators import
    # repro.resilience (for fault injection), and the scheduler's
    # observe imports reach the simulators — a top-level scheduler
    # import here would close that loop into a cycle.
    from repro.dagman.scheduler import DagmanScheduler, NodeState
    from repro.resilience.faults import CrashInjected

    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    rescue_dir = Path(rescue_dir) if rescue_dir is not None else None

    outcome = RecoveryResult(success=False)
    current = dag
    start_round = 1
    restore = None
    if resume is not None:
        if resume.complete:
            raise ValueError(
                f"journal at {resume.path} records a completed workflow; "
                "there is nothing to resume"
            )
        # The journaled attempts open the merged trace, the journaled
        # done set becomes DONE marks, and the round numbering picks up
        # where the crashed manager left off.
        for attempt in resume.trace():
            outcome.trace.add(attempt)
        current = resume.resume_dag(dag)
        start_round = resume.state.rescue_round + 1
        restore = resume.scheduler_restore()
        if bus is not None and bus.active:
            # Announce the continuation on the live stream: the span
            # tracer links the resumed workflow back to the pre-crash
            # trace root, the status view shows where replay ended.
            bus.emit(
                RunEvent(
                    EventKind.JOURNAL_RESUME,
                    resume.clock,
                    detail={
                        "replayed": resume.replayed,
                        "done": len(resume.done),
                        "torn": resume.torn_tail,
                        "clock": resume.clock,
                        "round": start_round,
                        "trace_id": resume.trace_id,
                    },
                )
            )
    try:
        last_round_no = max(max_rounds, start_round)
        for round_no in range(start_round, last_round_no + 1):
            scheduler = DagmanScheduler(
                current, environment, bus=bus, restore=restore,
                **scheduler_kwargs,  # type: ignore[arg-type]
            )
            restore = None  # counters restore into the first resumed round only
            scheduler.start()
            if on_round_start is not None:
                on_round_start(scheduler, round_no)
            environment.run_until_complete()
            result = scheduler.finish()
            for attempt in result.trace:
                outcome.trace.add(attempt)

            rescue_path: Path | None = None
            if not result.success and rescue_dir is not None:
                rescue_dir.mkdir(parents=True, exist_ok=True)
                rescue_path = scheduler.write_rescue(
                    rescue_dir / f"{dag.name}.rescue{round_no:03d}"
                )
            outcome.rounds.append(RecoveryRound(round_no, result, rescue_path))

            if result.success:
                outcome.success = True
                if journal is not None and not journal.closed:
                    journal.snapshot()
                return outcome

            done = {
                n for n, s in result.states.items() if s is NodeState.DONE
            }
            last_round = round_no == last_round_no
            if bus is not None:
                bus.emit(
                    RunEvent(
                        EventKind.RESCUE,
                        environment.now,
                        detail={
                            "round": round_no,
                            "done": len(done),
                            "failed": result.failed_jobs,
                            "unrunnable": len(result.unrunnable_jobs),
                            "rescue": str(rescue_path) if rescue_path else None,
                            "resubmitting": not last_round,
                        },
                    )
                )
            # Compact after the round boundary: the rescue.round record is
            # in the WAL, so a crash in the next round replays only that
            # round's suffix on top of this snapshot.
            if journal is not None and not journal.closed:
                journal.snapshot()
            if last_round:
                return outcome

            current = dag.rescue(done)  # DONE marks accumulate over rounds
        return outcome
    except CrashInjected:
        # What the dead manager left queued and in flight dies with it.
        abandon = getattr(environment, "abandon", None)
        if abandon is not None:
            abandon()
        raise


def run_simulated(
    dag: Dag,
    site: str,
    *,
    seed: int = 0,
    config: object | None = None,
    bus: EventBus | None = None,
    fault_plan: "FaultPlan | None" = None,
    blacklist_policy: "BlacklistPolicy | None" = None,
    sample_interval_s: float | None = None,
    journal: "Journal | None" = None,
    resume: "RecoveredState | None" = None,
    **loop_kwargs: Any,
) -> tuple[RecoveryResult, "UtilizationSampler | None"]:
    """Run ``dag`` on a freshly built simulated ``site`` under
    :func:`run_with_recovery` — the one assembly of a simulated run.

    ``site`` names a class in :data:`repro.sim.PLATFORMS`, built with
    ``config`` (its calibrated defaults when None; a config of another
    platform's class is a ``ValueError``) on a new simulator whose clock
    starts where ``resume`` left off, drawing from ``RngStreams(seed)``.
    ``fault_plan`` draws from that family's ``faults`` stream. The
    blacklist is the one ``resume`` journaled, else a fresh one when
    ``blacklist_policy`` is given; ``journal`` snapshots it. With
    ``sample_interval_s`` a utilization sampler emits on ``bus``.
    ``max_rounds``, ``rescue_dir`` and ``retry_policy`` go to the loop.
    Returns the outcome and the sampler (None without sampling).
    """
    from repro.observe.sampler import UtilizationSampler
    from repro.resilience.blacklist import Blacklist
    from repro.resilience.faults import FaultInjector
    from repro.sim import PLATFORMS, RngStreams, Simulator

    platform_cls: Any = PLATFORMS[site]
    if config is not None and not isinstance(config, platform_cls.config_type):
        raise ValueError(
            f"site {site!r} takes a {platform_cls.config_type.__name__}, "
            f"not a {type(config).__name__}"
        )
    simulator = Simulator(start_time=resume.clock if resume is not None else 0.0)
    streams = RngStreams(seed=seed)
    injector = None
    if fault_plan is not None:
        injector = FaultInjector(fault_plan, rng=streams.stream("faults"), bus=bus)
    blacklist = None
    if resume is not None:
        # A tripped breaker stays tripped across the restart.
        blacklist = resume.restore_blacklist(policy=blacklist_policy, bus=bus)
    if blacklist is None and blacklist_policy is not None:
        blacklist = Blacklist(blacklist_policy, bus=bus)
    if journal is not None and blacklist is not None:
        journal.attach_blacklist(blacklist)
    env = platform_cls(
        *((simulator,) if config is None else (simulator, config)),
        streams=streams, bus=bus, injector=injector, blacklist=blacklist,
    )
    sampler = None
    if sample_interval_s is not None:
        sampler = UtilizationSampler(
            simulator, env, interval_s=sample_interval_s, bus=bus
        )
    outcome = run_with_recovery(
        dag, env, bus=bus, journal=journal, resume=resume,
        # After each round's initial submissions, so the sampler sees
        # pending work; every round, because it parks itself whenever
        # the simulator drains between rounds.
        on_round_start=None if sampler is None else (
            lambda _scheduler, _round: sampler.start()
        ),
        **loop_kwargs,
    )
    return outcome, sampler
