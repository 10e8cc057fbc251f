"""``run_with_recovery`` — the pegasus-dagman resubmit loop, automated.

The paper's operators recovered failed OSG runs by hand: inspect,
``pegasus-run`` the rescue DAG, repeat. This module closes that loop:
run the DAG, and while anything failed, write a ``*.rescue00K`` file,
carry the DONE marks forward, emit a ``rescue.round`` event, and
resubmit — up to ``max_rounds`` rounds, on the *same* environment
(one continuing clock/pool) or a fresh one per round.

The merged trace spans every round, so ``pegasus-statistics``'
planned-vs-attempted accounting stays consistent across recovery: jobs
done in round 1 are DONE marks (not attempts) in round 2, exactly as
with real rescue DAGs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable

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
    from repro.resilience.journal import Journal, RecoveredState

__all__ = ["RecoveryRound", "RecoveryResult", "run_with_recovery"]


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
    def failed_jobs(self) -> list[str]:
        """Jobs that still end FAILED after the last round."""
        return self.final.failed_jobs

    @property
    def unrunnable_jobs(self) -> list[str]:
        """The exact set DAGMan could never run (failed ancestors)."""
        return self.final.unrunnable_jobs

    @property
    def rescue_paths(self) -> list[Path]:
        return [r.rescue_path for r in self.rounds if r.rescue_path]


def run_with_recovery(
    dag: Dag,
    environment: ExecutionEnvironment
    | Callable[[int], ExecutionEnvironment],
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

    ``environment`` is either one environment reused every round (the
    common case — simulators keep one virtual timeline, the local pool
    keeps its workers warm) or a factory called with the 1-based round
    number. ``rescue_dir`` receives ``<dag>.rescue001`` … files after
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
    last_round_no = max(max_rounds, start_round)
    for round_no in range(start_round, last_round_no + 1):
        env = environment(round_no) if callable(environment) else environment
        scheduler = DagmanScheduler(
            current, env, bus=bus, restore=restore,
            **scheduler_kwargs,  # type: ignore[arg-type]
        )
        restore = None  # counters restore into the first resumed round only
        scheduler.start()
        if on_round_start is not None:
            on_round_start(scheduler, round_no)
        env.run_until_complete()
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
                    env.now,
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
