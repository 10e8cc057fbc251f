"""Command-line tools mirroring the Pegasus user experience.

The paper's §III workflow: ``pegasus-plan`` → ``pegasus-run`` →
``pegasus-status`` → ``pegasus-statistics`` / ``pegasus-analyzer``.
Our equivalents operate on a *submit directory*, read and written
through its one owner, :mod:`repro.wms.monitor`:

* ``repro-plan``   — build the blast2cap3 DAX for a given *n*, plan it
  for a site, and write ``workflow.dax`` + ``workflow.dag`` into the
  submit directory;
* ``repro-run``    — execute the planned workflow on the simulated
  platform; streams ``events.jsonl`` live and leaves ``trace.jsonl``,
  ``trace.chrome.json`` (open in Perfetto / about://tracing),
  ``trace.otlp.json`` (OTLP-JSON causal spans), ``trace.perfetto.json``
  (Perfetto TracePackets), ``utilization.tsv`` and ``metrics.json``
  behind;
* ``repro-status`` — pegasus-status-style view from ``events.jsonl``
  (``--follow`` tails a run in flight);
* ``repro-statistics`` — print the pegasus-statistics report;
* ``repro-plots``      — text gantt chart and utilization strips;
* ``repro-analyzer``   — print the failure post-mortem.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

__all__ = [
    "main_plan",
    "main_run",
    "main_status",
    "main_statistics",
    "main_analyzer",
    "main_plots",
]


def _or_exit(read, *args):
    """``read(*args)``, or its one-line refusal on stderr and exit 2."""
    try:
        return read(*args)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        raise SystemExit(2) from None


def main_plan(argv: list[str] | None = None) -> int:
    """``repro-plan``: DAX + executable DAG into a submit directory."""
    parser = argparse.ArgumentParser(
        prog="repro-plan",
        description="Plan the blast2cap3 workflow for a site (paper scale).",
    )
    parser.add_argument("--submit-dir", required=True)
    parser.add_argument("-n", "--clusters", type=int, default=100,
                        help="number of transcript cluster partitions")
    parser.add_argument("--site", choices=("sandhills", "osg", "cloud"),
                        default="sandhills")
    parser.add_argument("--retries", type=int, default=5)
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-job timeout in (platform) seconds; hung "
                             "attempts are killed and retried")
    parser.add_argument("--cluster-size", type=int, default=1,
                        help="horizontal task clustering (Pegasus-style)")
    parser.add_argument("--cleanup", action="store_true",
                        help="add cleanup jobs for intermediate files")
    args = parser.parse_args(argv)

    from repro.core.workflow_factory import build_blast2cap3_adag, default_catalogs
    from repro.perfmodel.task_models import PaperTaskModel
    from repro.wms.monitor import DAG_FILE, DAX_FILE, write_plan
    from repro.wms.planner import PlannerOptions, PlanningError, plan

    submit = Path(args.submit_dir)
    submit.mkdir(parents=True, exist_ok=True)
    model = PaperTaskModel()
    adag = build_blast2cap3_adag(args.clusters, model=model)
    adag.write(submit / DAX_FILE)

    sites, transformations, replicas = default_catalogs()
    try:
        planned = plan(
            adag,
            site_name=args.site,
            sites=sites,
            transformations=transformations,
            replicas=replicas,
            options=PlannerOptions(
                retries=args.retries,
                timeout_s=args.timeout,
                cluster_size=args.cluster_size,
                add_cleanup=args.cleanup,
            ),
        )
    except PlanningError as exc:
        # Includes the pre-flight linter's fail-fast (LintFailure).
        print(str(exc), file=sys.stderr)
        return 1
    planned.dag.write_dagfile(submit / DAG_FILE)
    write_plan(submit, planned.dag, site=args.site, n=args.clusters)
    print(f"planned {len(planned.dag)} jobs for site {args.site!r}")
    print(f"submit dir: {submit}")
    print(f"run with: repro-run --submit-dir {submit}")
    return 0


def main_run(argv: list[str] | None = None) -> int:
    """``repro-run``: execute the planned workflow on the simulator.

    The run is fully observed: the event bus streams ``events.jsonl``
    as the (virtual) run progresses — tail it with ``repro-status
    --follow`` from another terminal — and on completion the submit
    directory holds the Chrome trace, the sampled utilization series,
    and the metrics snapshot alongside the classic attempt trace.
    """
    parser = argparse.ArgumentParser(
        prog="repro-run", description="Execute a planned workflow (simulated)."
    )
    parser.add_argument("--submit-dir", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sample-interval", type=float, default=60.0,
                        help="utilization sampling cadence in simulated "
                             "seconds (0 disables sampling)")
    parser.add_argument("--max-rescue-rounds", type=int, default=1,
                        help="automatic rescue-DAG resubmits: run up to K "
                             "rounds before giving up (1 = no resubmit)")
    parser.add_argument("--retry-policy",
                        choices=("immediate", "fixed", "backoff"),
                        default="immediate",
                        help="how DAGMan requeues failed jobs")
    parser.add_argument("--retry-delay", type=float, default=30.0,
                        help="delay (fixed) / base delay (backoff) for "
                             "delayed retry policies, in seconds")
    parser.add_argument("--free-evictions", action="store_true",
                        help="platform evictions requeue without consuming "
                             "a DAGMan RETRY")
    parser.add_argument("--chaos-start-failure", type=float, default=0.0,
                        help="inject extra dead-on-arrival probability")
    parser.add_argument("--chaos-eviction-rate", type=float, default=0.0,
                        help="inject extra evictions (rate per second)")
    parser.add_argument("--chaos-outage", default=None,
                        metavar="SITE,START,END",
                        help="inject a site outage window (jobs arriving "
                             "on SITE between START and END seconds fail)")
    parser.add_argument("--blacklist-threshold", type=int, default=0,
                        help="blacklist a machine after this many "
                             "consecutive start failures (0 = off)")
    parser.add_argument("--blacklist-cooldown", type=float, default=0.0,
                        help="seconds before a blacklisted machine gets "
                             "another chance (0 = permanent)")
    parser.add_argument("--journal", default=None, metavar="DIR",
                        help="write a crash-consistent write-ahead journal "
                             "to DIR; a killed run resumes with --resume DIR")
    parser.add_argument("--resume", default=None, metavar="DIR",
                        help="resume a crashed run from its journal "
                             "directory (continues journaling there)")
    parser.add_argument("--journal-snapshot-every", type=int, default=1000,
                        help="journal compaction floor: snapshot once the "
                             "WAL suffix reaches max(N, state size) records "
                             "(bounds recovery replay)")
    parser.add_argument("--journal-fsync",
                        choices=("always", "batch", "never"),
                        default="batch",
                        help="journal fsync policy: per record, batched "
                             "(4096 records + every snapshot), or never")
    parser.add_argument("--crash-at-record", type=int, default=0,
                        metavar="N",
                        help="testing: crash the manager at the Nth journal "
                             "record, leaving a torn tail (needs --journal)")
    parser.add_argument("--crash-mode", choices=("kill", "raise"),
                        default="kill",
                        help="testing: SIGKILL the process (kill) or raise "
                             "CrashInjected in-process (raise)")
    args = parser.parse_args(argv)

    # Before the imports below: a typo'd --submit-dir should fail in the
    # time it takes to read one file, not after loading the simulators.
    from repro.wms import monitor

    submit = Path(args.submit_dir)
    try:
        # A value no job can have (``json`` parses a bare NaN runtime),
        # or an edge closing a cycle: refuse the plan, simulate nothing.
        site, dag = monitor.read_plan(submit)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2

    from repro.observe import (
        AnomalyMonitor,
        EventBus,
        EventKind,
        EventLogWriter,
        EventRecorder,
        SpanTracer,
        UtilizationSampler,
        derive_trace_id,
        instrument,
        write_chrome_trace,
        write_otlp_trace,
        write_perfetto_trace,
    )
    from repro.resilience import (
        Blacklist,
        BlacklistPolicy,
        CrashFault,
        CrashInjected,
        Eviction,
        ExponentialBackoff,
        FaultInjector,
        FaultPlan,
        FixedDelayRetry,
        Journal,
        JournalError,
        SiteOutage,
        StartFailure,
        reconcile_local,
        recover,
        run_with_recovery,
    )
    from repro.sim import PLATFORMS, CloudPlatform, RngStreams, Simulator
    from repro.util.iolib import atomic_write

    if site not in PLATFORMS:
        print(f"{submit / monitor.PLAN_FILE}: unknown site {site!r}; "
              f"choose from {sorted(PLATFORMS)}", file=sys.stderr)
        return 2

    # Admission check with the same feasibility engine the linter and
    # planner use: a requirement no slot of the target pool can ever
    # satisfy means the paper's silent-idle failure mode. Warn, don't
    # block — running doomed plans on the simulator is a legitimate
    # experiment (it is the paper's Fig. 3 scenario).
    from repro.lint.feasibility import default_pools, never_matchable

    pool = default_pools().get(site)
    if pool is not None:
        doomed = sorted(
            name
            for name, job in dag.jobs.items()
            if job.requirements
            and never_matchable(job.requirements, {pool.site: pool})
        )
        if doomed:
            print(
                f"warning: {len(doomed)} job(s) (e.g. {doomed[0]!r}) have "
                f"requirements no {site!r} slot can satisfy; they "
                "will idle until the unmatched timeout "
                "(repro-lint names the missing capability)",
                file=sys.stderr,
            )

    journal_dir = Path(args.journal) if args.journal else None
    resume_dir = Path(args.resume) if args.resume else None
    if resume_dir is not None and journal_dir is None:
        journal_dir = resume_dir
    if args.crash_at_record > 0 and journal_dir is None:
        print("--crash-at-record requires --journal", file=sys.stderr)
        return 2

    recovered = None
    if resume_dir is not None:
        try:
            recovered = recover(resume_dir)
        except JournalError as exc:
            print(f"cannot resume: {exc}", file=sys.stderr)
            return 2
        if recovered.complete:
            done = bool(recovered.state.workflow_done)
            print(
                f"journal at {resume_dir} records a "
                f"{'succeeded' if done else 'FAILED'} workflow; "
                "nothing to resume"
            )
            return 0 if done else 1
        try:
            reconciled = reconcile_local(recovered)
        except JournalError as exc:
            print(f"cannot resume: {exc}", file=sys.stderr)
            return 2
        interop = recovered.write_rescue(
            dag, submit / f"{dag.name}.resume.dag"
        )
        print(
            f"resuming from {resume_dir}: {len(recovered.done)} job(s) "
            f"already done, {recovered.replayed} record(s) replayed"
            + (" after truncating a torn tail" if recovered.torn_tail
               else "")
        )
        if reconciled.requeued:
            print(
                f"requeueing {len(reconciled.requeued)} in-flight job(s): "
                + ", ".join(reconciled.requeued[:5])
                + ("..." if len(reconciled.requeued) > 5 else "")
            )
        if reconciled.reaped:
            print(
                f"reaped {len(reconciled.reaped)} orphaned worker(s): "
                + ", ".join(str(p) for p in reconciled.reaped)
            )
        print(f"resume state written to {interop.name}")

    # If this plan would benefit from a journal and none was asked for,
    # say so — same advice the linter gives as PLAN006.
    if journal_dir is None:
        from repro.lint.plan_rules import durability_advice

        advice = durability_advice(dag)
        if advice:
            print(
                f"warning: {advice}; run with --journal DIR to make the "
                "run resumable (repro-lint PLAN006)",
                file=sys.stderr,
            )

    simulator = Simulator(
        start_time=recovered.clock if recovered is not None else 0.0
    )
    streams = RngStreams(seed=args.seed)
    bus = EventBus()
    recorder = EventRecorder(bus)
    metrics = instrument(bus)
    # A resumed run extends the pre-crash trace: the journal carries
    # the trace id forward, so both processes' spans share one trace
    # and the resumed workflow span links back to the original root.
    trace_id = (
        recovered.trace_id
        if recovered is not None and recovered.trace_id
        else derive_trace_id(f"{dag.name}:{args.seed}")
    )
    tracer = SpanTracer(trace_id=trace_id, bus=bus)
    anomalies = AnomalyMonitor(bus)

    faults = []
    if args.chaos_start_failure > 0:
        faults.append(StartFailure(args.chaos_start_failure))
    if args.chaos_eviction_rate > 0:
        faults.append(Eviction(args.chaos_eviction_rate))
    if args.chaos_outage:
        try:
            outage_site, start_s, end_s = args.chaos_outage.split(",")
            faults.append(
                SiteOutage(outage_site, float(start_s), float(end_s))
            )
        except ValueError:
            print(f"bad --chaos-outage {args.chaos_outage!r} "
                  "(want SITE,START,END)", file=sys.stderr)
            return 2
    injector = None
    if faults:
        injector = FaultInjector(
            FaultPlan(tuple(faults)), rng=streams.stream("faults"), bus=bus
        )
    blacklist_policy = None
    if args.blacklist_threshold > 0:
        blacklist_policy = BlacklistPolicy(
            threshold=args.blacklist_threshold,
            cooldown_s=args.blacklist_cooldown or None,
        )
    blacklist = None
    if recovered is not None:
        # Journaled blacklist state (snapshot + WAL suffix) survives the
        # crash: a tripped breaker stays tripped across the restart.
        blacklist = recovered.restore_blacklist(
            policy=blacklist_policy, bus=bus
        )
    if blacklist is None and blacklist_policy is not None:
        blacklist = Blacklist(blacklist_policy, bus=bus)
    retry_policy = None
    if args.retry_policy == "fixed":
        retry_policy = FixedDelayRetry(
            args.retry_delay, charge_evictions=not args.free_evictions
        )
    elif args.retry_policy == "backoff":
        retry_policy = ExponentialBackoff(
            base_s=args.retry_delay, seed=args.seed,
            charge_evictions=not args.free_evictions,
        )
    elif args.free_evictions:
        from repro.resilience import ImmediateRetry

        retry_policy = ImmediateRetry(charge_evictions=False)

    env = PLATFORMS[site](
        simulator, streams=streams, bus=bus,
        injector=injector, blacklist=blacklist,
    )

    sampler = None

    def on_round_start(scheduler, round_no) -> None:
        nonlocal sampler
        if args.sample_interval <= 0:
            return
        if sampler is None:
            sampler = UtilizationSampler(
                simulator, env, interval_s=args.sample_interval, bus=bus
            )
        # (Re)start each round: the sampler parks itself whenever the
        # simulator drains between rounds.
        sampler.start()

    journal = None
    if journal_dir is not None:
        crash = None
        if args.crash_at_record > 0:
            crash = CrashFault(args.crash_at_record, mode=args.crash_mode)
        try:
            journal = Journal(
                journal_dir,
                bus=bus,
                snapshot_every=args.journal_snapshot_every,
                fsync=args.journal_fsync,
                crash=crash,
                resume=recovered,
            )
        except JournalError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if blacklist is not None:
            journal.attach_blacklist(blacklist)
        journal.record_trace_id(trace_id)

    # Truncate any previous event log, then stream this run into it —
    # unless resuming, where the new events append after the old ones
    # and the merged log reads as one continuous run.
    if recovered is None:
        (submit / monitor.EVENTS_FILE).write_text("")
    try:
        with EventLogWriter(submit / monitor.EVENTS_FILE, bus):
            outcome = run_with_recovery(
                dag,
                env,
                max_rounds=args.max_rescue_rounds,
                rescue_dir=submit,
                bus=bus,
                on_round_start=on_round_start,
                retry_policy=retry_policy,
                journal=journal,
                resume=recovered,
            )
    except CrashInjected as exc:
        print(
            f"crash injected: {exc}; resume with repro-run "
            f"--submit-dir {submit} --resume {journal_dir}",
            file=sys.stderr,
        )
        return 3
    finally:
        if journal is not None:
            journal.close()
    result = outcome.final

    monitor.write_trace(submit / monitor.TRACE_FILE, outcome.trace)
    write_chrome_trace(
        submit / monitor.CHROME_TRACE_FILE, outcome.trace,
        samples=sampler.samples if sampler is not None else None,
        events=recorder.events,
        workflow=dag.name,
    )
    spans = tracer.finish()
    write_otlp_trace(submit / monitor.OTLP_TRACE_FILE, spans)
    write_perfetto_trace(submit / monitor.PERFETTO_TRACE_FILE, spans)
    if sampler is not None:
        monitor.write_utilization(
            submit / monitor.UTILIZATION_FILE, sampler.samples
        )
    atomic_write(
        submit / monitor.METRICS_FILE, json.dumps(metrics.snapshot(), indent=2)
    )
    print(
        f"workflow {'succeeded' if outcome.success else 'FAILED'} in "
        f"{outcome.trace.wall_time():.0f} simulated seconds "
        f"({outcome.trace.retry_count} retries, "
        f"{len(outcome.rounds)} round(s))"
    )
    if not outcome.success:
        print(
            f"unrecovered: {len(result.failed_jobs)} failed, "
            f"{len(result.unrunnable_jobs)} unrunnable"
            + (
                f"; rescue files: "
                + ", ".join(p.name for p in outcome.rescue_paths)
                if outcome.rescue_paths
                else ""
            )
        )
    terminal = sum(
        1 for e in recorder.events
        if e.kind in (EventKind.FINISH, EventKind.EVICT)
    )
    print(
        f"observability: {len(recorder.events)} events "
        f"({terminal} terminal), {len(spans)} spans "
        f"(trace {trace_id}) -> {monitor.EVENTS_FILE}, "
        f"{monitor.CHROME_TRACE_FILE}, {monitor.OTLP_TRACE_FILE}, "
        f"{monitor.PERFETTO_TRACE_FILE}"
        + (f", {monitor.UTILIZATION_FILE}" if sampler is not None else "")
        + f", {monitor.METRICS_FILE}"
    )
    if anomalies.alerts:
        print(f"anomalies: {len(anomalies.alerts)} alert(s) — latest: "
              + ", ".join(a.kind.value for a in anomalies.alerts[-3:]))
    if journal_dir is not None:
        print(f"journal: {journal_dir}")
    if isinstance(env, CloudPlatform):
        print(f"cloud cost: ${env.billed_cost():.2f} "
              f"({env.instance_seconds():.0f} instance-seconds)")
    return 0 if outcome.success else 1


def main_status(argv: list[str] | None = None) -> int:
    """``repro-status``: pegasus-status-style progress view.

    With an ``events.jsonl`` in the submit directory (written live by
    ``repro-run``) this renders the full live view — state histogram,
    in-flight jobs with their current phase, failure/retry counters.
    ``--follow`` keeps tailing the log until the workflow ends. Without
    an event log it falls back to the classic one-liner from
    ``trace.jsonl``.
    """
    parser = argparse.ArgumentParser(prog="repro-status")
    parser.add_argument("--submit-dir", required=True)
    parser.add_argument("--follow", action="store_true",
                        help="keep tailing events.jsonl until workflow end")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="poll interval for --follow, in seconds")
    args = parser.parse_args(argv)

    from repro.wms.monitor import EVENTS_FILE, load_run, progress_line, read_plan

    submit = Path(args.submit_dir)
    total_jobs = len(_or_exit(read_plan, submit).dag)
    events_path = submit / EVENTS_FILE
    if not events_path.exists():
        run = _or_exit(load_run, submit)  # trace.jsonl, or nothing ran
        print(progress_line(run.trace, total_jobs=total_jobs))
        return 0

    import time

    from repro.observe import StatusView
    from repro.observe.log import decode_event_line

    view = StatusView(total_jobs=total_jobs)
    if not args.follow:
        view.feed(_or_exit(load_run, submit).events)
        print(view.render())
        return 0

    # Tail mode: consume appended lines until workflow.end (or ^C).
    with open(events_path, "rb") as fh:
        buffered, lineno = b"", 0
        try:
            while True:
                chunk = fh.readline()
                if chunk:
                    buffered += chunk
                    if not buffered.endswith(b"\n"):
                        continue  # partial line; wait for the rest
                    lineno += 1
                    event = _or_exit(decode_event_line, buffered,
                                     f"{events_path}:{lineno}")
                    if event is not None:
                        view.update(event)
                    buffered = b""
                    continue
                print(view.render())
                print("---")
                if view.workflow_done is not None:
                    return 0 if view.workflow_done else 1
                time.sleep(args.interval)
        except KeyboardInterrupt:
            return 130


def main_statistics(argv: list[str] | None = None) -> int:
    """``repro-statistics``: the summary + per-task breakdown report."""
    parser = argparse.ArgumentParser(prog="repro-statistics")
    parser.add_argument("--submit-dir", required=True)
    args = parser.parse_args(argv)

    from repro.wms.monitor import load_run
    from repro.wms.statistics import render_report, summarize

    run = _or_exit(load_run, args.submit_dir)
    # The plan's job count makes the report honest about descendants of
    # failed jobs that never got to run (planned vs attempted).
    expected = len(run.dag) if run.dag is not None else None
    print(render_report(summarize(run.trace, expected_jobs=expected),
                        title=args.submit_dir))
    return 0


def main_plots(argv: list[str] | None = None) -> int:
    """``repro-plots``: text gantt chart and utilization strip."""
    parser = argparse.ArgumentParser(prog="repro-plots")
    parser.add_argument("--submit-dir", required=True)
    parser.add_argument("--width", type=int, default=72)
    parser.add_argument("--max-rows", type=int, default=40)
    args = parser.parse_args(argv)

    from repro.wms.monitor import load_run
    from repro.wms.plots import gantt, utilization, utilization_series

    run = _or_exit(load_run, args.submit_dir)
    print(gantt(run.trace, width=args.width, max_rows=args.max_rows))
    print()
    print(utilization(run.trace))
    if run.samples is not None:
        print()
        print(utilization_series(run.samples, width=args.width))
    return 0


def main_analyzer(argv: list[str] | None = None) -> int:
    """``repro-analyzer``: failure post-mortem from the trace."""
    parser = argparse.ArgumentParser(prog="repro-analyzer")
    parser.add_argument("--submit-dir", required=True)
    args = parser.parse_args(argv)

    from repro.wms.analyzer import analyze, render_analysis
    from repro.wms.monitor import load_run

    run = _or_exit(load_run, args.submit_dir)
    report = analyze(run.trace, run.dag.jobs if run.dag is not None else ())
    print(render_analysis(report))
    return 0 if report.success else 1
