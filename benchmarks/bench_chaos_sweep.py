"""Chaos sweep: paper-scale OSG runs under rising injected failure.

Runs the Fig. 4-scale blast2cap3 workflow (n=300) on the OSG model
through :func:`simulate_paper_run_with_recovery` while a
:class:`~repro.resilience.faults.FaultPlan` layers extra start
failures on top of the grid's calibrated failure regime, sweeping the
injected dead-on-arrival probability over several seeds.

The assertions are the acceptance criteria for the resilience layer:

* every run **completes** — the retry policy plus the rescue-resubmit
  loop absorb the chaos within ``MAX_ROUNDS`` rounds, and
  ``pegasus-statistics`` accounting stays consistent (all planned jobs
  succeed, none unattempted);
* median makespan is **monotone non-decreasing** in the failure rate
  (modulo ``SLACK`` — requeues can shuffle the matchmaking order, so a
  tiny inversion is noise, a large one is a model bug);
* injected faults are **visible**: ``fault.injected`` events appear on
  the bus iff the plan has a firing probability.

The sweep plans with ``retries=20`` and never leaves round 1. One
**tight-budget cell** (n=12, ``retries=2``, 45 % injected start
failures, up to four rounds, seeds 0-5) is there for the composition
the sweep cannot reach — rescue rounds under the makespan attribution:
whether or not a seed recovers, its report's span cross-check must
agree with the attribution and (next to) none of the makespan may be
booked as ``idle``; attempt numbers restart every round, and a reader
that takes the highest-numbered attempt as a job's last books the
re-runs as idleness (46-70 % of these six makespans before PR 24).

Artifacts under ``benchmarks/results/`` (CI uploads these):

* ``chaos_sweep.tsv`` — one row per (n, probability, seed) run;
* ``chaos_sweep.txt`` — rendered sweep table + per-rate summary.
"""

import statistics

from conftest import RESULTS_DIR, write_result

from repro.core.workflow_factory import simulate_paper_run_with_recovery
from repro.observe import EventBus, EventKind, EventRecorder
from repro.observe.report import build_report
from repro.resilience import FaultPlan, ImmediateRetry, StartFailure
from repro.wms.planner import PlannerOptions
from repro.wms.statistics import summarize

N = 300
SEEDS = (0, 1, 2)
#: Injected dead-on-arrival probabilities, layered on the OSG regime.
START_FAILURE_PROBS = (0.0, 0.1, 0.3)
MAX_ROUNDS = 3
#: Requeue shuffling makes makespan slightly noisy between adjacent
#: failure rates; allow 2% before calling an inversion a regression.
SLACK = 0.98

#: The tight-budget cell: few retries and heavy chaos, so runs take
#: rescue rounds (three of the six seeds still fail after the fourth).
TIGHT_N = 12
TIGHT_SEEDS = (0, 1, 2, 3, 4, 5)
TIGHT_PROB = 0.45
TIGHT_RETRIES = 2
TIGHT_MAX_ROUNDS = 4

TSV_HEADER = (
    "n\tstart_failure_prob\tseed\twall_s\tattempts\tretries"
    "\tfault_events\trounds\tretry_lost_share\tidle_share\n"
)


def _chaos_run(prob, seed, model, *, n=N, max_rounds=MAX_ROUNDS, **plan):
    """One OSG run through the recovery loop with ``prob`` injected
    start failures; ``plan`` is passed to the simulation."""
    bus = EventBus()
    recorder = EventRecorder(bus)
    outcome, planned = simulate_paper_run_with_recovery(
        n,
        "osg",
        seed=seed,
        model=model,
        fault_plan=FaultPlan((StartFailure(prob),)) if prob else None,
        max_rounds=max_rounds,
        bus=bus,
        **plan,
    )
    return outcome, planned, recorder.events


def _sweep_run(prob, seed, model):
    """One run of the paper-scale sweep."""
    return _chaos_run(
        prob, seed, model,
        # Evictions are the grid's fault, not the job's: requeue free,
        # like DAGMan resubmitting preempted glidein jobs.
        retry_policy=ImmediateRetry(charge_evictions=False),
    )


def _tsv_row(n, prob, seed, outcome, planned, events):
    """One ``chaos_sweep.tsv`` row; also holds the run's report to the
    attribution invariants, whatever cell it came from."""
    report = build_report(outcome.trace, dag=planned.dag, events=events)
    assert report["trace"]["agrees_with_attribution"], (
        f"n={n} p={prob} seed={seed}: span cross-check disagrees by "
        f"{report['trace']['max_bucket_delta_s']:,.0f}s"
    )
    share = report["attribution_share"]
    assert share["idle"] < 0.01, (
        f"n={n} p={prob} seed={seed}: {share['idle']:.0%} of the "
        "makespan booked as idle"
    )
    faults = sum(1 for e in events if e.kind is EventKind.FAULT)
    return (
        f"{n}\t{prob}\t{seed}\t{outcome.trace.wall_time():.0f}"
        f"\t{len(outcome.trace)}\t{outcome.trace.retry_count}\t{faults}"
        f"\t{len(outcome.rounds)}\t{share['retry_lost']:.3f}"
        f"\t{share['idle']:.3f}\n"
    )


def _tight_budget_cell(model):
    """TSV rows and a summary line for the tight-budget cell."""
    rows, rounds, recovered = [], [], 0
    for seed in TIGHT_SEEDS:
        outcome, planned, events = _chaos_run(
            TIGHT_PROB, seed, model, n=TIGHT_N, max_rounds=TIGHT_MAX_ROUNDS,
            planner_options=PlannerOptions(retries=TIGHT_RETRIES),
        )
        rows.append(
            _tsv_row(TIGHT_N, TIGHT_PROB, seed, outcome, planned, events)
        )
        rounds.append(len(outcome.rounds))
        recovered += outcome.success
    assert max(rounds) > 1, "the tight-budget cell never left round 1"
    return rows, (
        f"Tight budget — n={TIGHT_N}, retries={TIGHT_RETRIES}, "
        f"p={TIGHT_PROB}, seeds {TIGHT_SEEDS}: rounds {tuple(rounds)}, "
        f"{recovered} of {len(TIGHT_SEEDS)} recovered within "
        f"{TIGHT_MAX_ROUNDS}; every report's span cross-check agrees "
        "with its attribution and books < 1% of the makespan as idle."
    )


def test_chaos_sweep_makespan_monotone(paper_model, benchmark):
    RESULTS_DIR.mkdir(exist_ok=True)
    rows = []
    medians = {}
    for prob in START_FAILURE_PROBS:
        walls = []
        for seed in SEEDS:
            outcome, planned, events = _sweep_run(prob, seed, paper_model)

            # -- recovery completes ----------------------------------
            assert outcome.success, (
                f"p={prob} seed={seed}: not recovered in {MAX_ROUNDS} rounds"
            )
            assert len(outcome.rounds) <= MAX_ROUNDS

            # -- accounting stays consistent across rounds -----------
            stats = summarize(outcome.trace, dag=planned.dag)
            assert stats.total_jobs == len(planned.dag.jobs)
            assert stats.succeeded_jobs == stats.total_jobs
            assert stats.unattempted_jobs == 0

            # -- injected faults are visible on the bus --------------
            faults = [e for e in events if e.kind is EventKind.FAULT]
            if prob:
                assert faults, f"p={prob} seed={seed}: no fault.injected"
            else:
                assert not faults

            walls.append(outcome.trace.wall_time())
            rows.append(_tsv_row(N, prob, seed, outcome, planned, events))
        medians[prob] = statistics.median(walls)

    # -- chaos is never free: median makespan rises with the rate ----
    for lo, hi in zip(START_FAILURE_PROBS, START_FAILURE_PROBS[1:]):
        assert medians[hi] >= medians[lo] * SLACK, (
            f"makespan fell as failures rose: "
            f"p={lo}: {medians[lo]:,.0f}s -> p={hi}: {medians[hi]:,.0f}s"
        )

    tight_rows, tight_summary = _tight_budget_cell(paper_model)
    (RESULTS_DIR / "chaos_sweep.tsv").write_text(
        TSV_HEADER + "".join(rows + tight_rows)
    )
    lines = [
        f"Chaos sweep — blast2cap3 n={N} on OSG, seeds {SEEDS}, "
        f"injected start-failure prob swept over {START_FAILURE_PROBS}",
        "",
        f"{'prob':>6}  {'median wall':>12}  {'vs clean':>8}",
    ]
    clean = medians[START_FAILURE_PROBS[0]]
    for prob in START_FAILURE_PROBS:
        lines.append(
            f"{prob:>6}  {medians[prob]:>11,.0f}s  "
            f"{medians[prob] / clean:>7.2f}x"
        )
    lines += [
        "",
        "All runs recovered within "
        f"{MAX_ROUNDS} rounds; statistics consistent "
        "(every planned job succeeded, none unattempted).",
        "",
        tight_summary,
    ]
    write_result("chaos_sweep", "\n".join(lines))

    # benchmark: the heaviest point of the sweep — recovery under 30%
    # injected start failures should stay in the same cost regime as a
    # clean instrumented run.
    benchmark(lambda: _sweep_run(START_FAILURE_PROBS[-1], SEEDS[0], paper_model))
