"""``repro-report``: deep performance attribution and run comparison.

Two subcommands over run artifacts (a submit directory, a bare
``events.jsonl``/``trace.jsonl`` log, or a previously saved report):

* ``repro-report analyze RUN`` — build the makespan-attribution report
  (:mod:`repro.observe.analysis` buckets + what-if estimates, kickstart
  percentiles, per-transformation/site tables, resource-profile
  roll-up) and render it as Markdown and/or JSON;
* ``repro-report compare BASE NEW`` — align two runs and report deltas
  (makespan, attribution buckets, kickstart percentiles, retry counts)
  with configurable ``--fail-on`` regression thresholds, so CI can gate
  a PR on "makespan must not regress more than 20 %".

Threshold specs are ``metric=limit`` where ``limit`` is either a
percentage (``makespan=5%`` — fail when NEW exceeds BASE by more than
5 %) or an absolute amount (``retries=3`` — fail when NEW exceeds BASE
by more than 3). All gated metrics are "higher is worse". A gate on a
metric NEW has no value for is a usage error (exit 2), never a pass.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Collection, Mapping

from repro.dagman.events import JobStatus, WorkflowTrace
from repro.observe.analysis import (
    BUCKETS,
    aggregate_components,
    attribute_makespan,
)
from repro.observe.events import EventKind
from repro.observe.metrics import Histogram
from repro.util.units import format_duration
from repro.wms.statistics import per_site, per_transformation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dagman.dag import Dag
    from repro.observe.events import RunEvent

__all__ = [
    "REPORT_SCHEMA",
    "COMPARE_SCHEMA",
    "build_report",
    "load_report",
    "render_markdown",
    "compare_reports",
    "render_compare_markdown",
    "parse_fail_on",
    "check_thresholds",
    "main",
]

REPORT_SCHEMA = "repro-report/1"
COMPARE_SCHEMA = "repro-report-compare/1"


# --------------------------------------------------------------------------
# loading


def load_report(path: str | Path, *, label: str | None = None) -> dict:
    """Load ``path`` into a report dict, whatever it is.

    * a directory or a ``*.jsonl`` log — whatever
      :func:`repro.wms.monitor.load_run` makes of it (the event log or
      the attempt trace, plus the plan and the metrics when present);
    * a ``*.json`` file — a report previously saved by ``analyze``
      (checked via its ``schema`` field), e.g. a committed baseline.
    """
    path = Path(path)
    if path.is_file() and path.suffix == ".json":
        data = json.loads(path.read_text())
        if data.get("schema") != REPORT_SCHEMA:
            raise ValueError(
                f"{path} is not a {REPORT_SCHEMA} report "
                f"(schema={data.get('schema')!r})"
            )
        if label:
            data["label"] = label
        return data
    from repro.wms.monitor import load_run

    run = load_run(path)
    return build_report(
        run.trace, dag=run.dag, metrics=run.metrics, events=run.events,
        label=label or run.label,
    )


# --------------------------------------------------------------------------
# report building


def _distribution(values: list[float]) -> dict[str, float]:
    hist = Histogram()
    for v in values:
        hist.observe(v)
    return hist.summary()


def _profile_rollup(trace: WorkflowTrace) -> dict | None:
    profiled = trace.profiled()
    if not profiled:
        return None
    wall = sum(a.kickstart_time for a in profiled)
    cpu_user = sum(a.profile.cpu_user_s for a in profiled)  # type: ignore[union-attr]
    cpu_sys = sum(a.profile.cpu_sys_s for a in profiled)  # type: ignore[union-attr]
    sources: dict[str, int] = {}
    for a in profiled:
        sources[a.profile.source] = sources.get(a.profile.source, 0) + 1  # type: ignore[union-attr]
    return {
        "attempts_profiled": len(profiled),
        "cpu_user_s": round(cpu_user, 6),
        "cpu_sys_s": round(cpu_sys, 6),
        "cpu_utilization": (
            round((cpu_user + cpu_sys) / wall, 4) if wall > 0 else 0.0
        ),
        "peak_rss_kb": trace.peak_rss_kb(),
        "read_ops": sum(a.profile.read_ops for a in profiled),  # type: ignore[union-attr]
        "write_ops": sum(a.profile.write_ops for a in profiled),  # type: ignore[union-attr]
        "sources": sources,
    }


def _gating_parents(
    dag: "Dag | None", events: "list[RunEvent] | None"
) -> tuple[Mapping[str, Collection[str]], str]:
    """The critical-path walk's ``job -> parents`` map and the method
    naming its source: the plan's edges, else the parent each
    readiness event of the log names as ``released_by``, else none."""
    if dag is not None:
        return dag.parent_sets(), "critical-path"
    released: dict[str, Collection[str]] = {}
    for e in events or ():
        if e.kind is EventKind.STATE_CHANGE and "released_by" in e.detail:
            released[str(e.job_name)] = (str(e.detail["released_by"]),)
    return released, "released-by" if released else "none"


def build_report(
    trace: WorkflowTrace,
    *,
    dag: "Dag | None" = None,
    metrics: Mapping[str, object] | None = None,
    events: "list[RunEvent] | None" = None,
    label: str = "run",
) -> dict:
    """One run's full attribution report as JSON-able primitives.

    The critical path follows the ``dag``'s edges; without one, the
    ``released_by`` links of ``events`` (the lifecycle stream, when the
    run recorded one); with neither, it is the last-finishing job.
    """
    parents, method = _gating_parents(dag, events)
    at = attribute_makespan(trace, parents)
    successes = trace.successful()

    # Group the path tiling per job for the report's path table.
    path_rows: dict[str, dict] = {}
    for seg in at.segments:
        if seg.job_name is None:
            continue
        row = path_rows.setdefault(seg.job_name, {
            "job": seg.job_name,
            "transformation": seg.transformation,
            "site": seg.site,
            "attempt": seg.attempt,
            **{b: 0.0 for b in BUCKETS},
        })
        row[seg.bucket] += seg.duration

    report = {
        "schema": REPORT_SCHEMA,
        "label": label,
        "workflow": getattr(dag, "name", None),
        "method": method,
        "makespan_s": at.makespan_s,
        "attribution": {b: at.buckets[b] for b in BUCKETS},
        "attribution_share": {b: at.share(b) for b in BUCKETS},
        "what_if": at.what_if(),
        "bottlenecks": [list(item) for item in at.ranked()],
        "critical_path": [
            path_rows[name] for name in at.path_jobs if name in path_rows
        ],
        "cumulative": aggregate_components(trace),
        "counts": {
            "attempts": len(trace),
            "jobs_succeeded": len(successes),
            "failures": len(trace.failures()),
            "retries": trace.retry_count,
            "evictions": sum(
                1 for a in trace if a.status is JobStatus.EVICTED
            ),
            "timeouts": sum(
                1 for a in trace if a.status is JobStatus.TIMEOUT
            ),
        },
        "kickstart": _distribution([a.kickstart_time for a in successes]),
        "waiting": _distribution([a.waiting_time for a in successes]),
        "setup": _distribution(
            [
                a.download_install_time
                for a in successes
                if a.download_install_time > 0
            ]
        ),
        "profile": _profile_rollup(trace),
        "per_transformation": {
            t.transformation: {
                "count": t.count,
                "kickstart_mean": t.mean_kickstart,
                "kickstart_max": t.max_kickstart,
                "waiting_mean": t.mean_waiting,
                "setup_mean": t.mean_download_install,
            }
            for t in per_transformation(trace)
        },
        "per_site": {
            s.site: {
                "attempts": s.jobs + s.failures,
                "failures": s.failures,
                "kickstart_total": s.total_kickstart,
            }
            for s in per_site(trace)
        },
    }
    if metrics is not None:
        report["metrics"] = metrics
    return report


# --------------------------------------------------------------------------
# markdown rendering


def _fmt_s(value: float) -> str:
    return f"{value:,.1f}"


def render_markdown(report: dict) -> str:
    """The human half of the report (the JSON is the machine half)."""
    makespan = float(report["makespan_s"])
    attribution = report["attribution"]
    share = report["attribution_share"]
    what_if = report["what_if"]
    lines = [
        f"# Makespan attribution — {report['label']}",
        "",
        f"Makespan **{format_duration(makespan)}** ({makespan:,.0f} s), "
        f"decomposed along the realized critical path "
        f"(method: `{report['method']}`)."
        + (
            " The run left neither a plan nor `released_by` links, so "
            "the path is the last-finishing job alone."
            if report["method"] == "none"
            else ""
        ),
        "",
        "| bucket | seconds | share | makespan if free |",
        "|---|---:|---:|---:|",
    ]
    for bucket, seconds in report["bottlenecks"]:
        lines.append(
            f"| {bucket} | {_fmt_s(float(seconds))} "
            f"| {100 * float(share[bucket]):.1f}% "
            f"| {_fmt_s(float(what_if[bucket]))} |"
        )
    check = sum(float(attribution[b]) for b in attribution)
    lines += [
        "",
        f"_Buckets sum to {check:,.1f} s = makespan (exact tiling)._",
        "",
        "## Critical path",
        "",
        "| job | transformation | site | attempt "
        "| retry_lost | waiting | setup | exec |",
        "|---|---|---|---:|---:|---:|---:|---:|",
    ]
    for row in report["critical_path"]:
        lines.append(
            f"| {row['job']} | {row['transformation']} | {row['site']} "
            f"| {row['attempt']} | {_fmt_s(row['retry_lost'])} "
            f"| {_fmt_s(row['waiting'])} | {_fmt_s(row['setup'])} "
            f"| {_fmt_s(row['exec'])} |"
        )
    cumulative = report["cumulative"]
    counts = report["counts"]
    kick = report["kickstart"]
    lines += [
        "",
        "## Cumulative components (all attempts, machine-time view)",
        "",
        "| waiting | download/install | exec | retry-lost |",
        "|---:|---:|---:|---:|",
        "| " + " | ".join(
            _fmt_s(float(cumulative[k]))
            for k in ("waiting", "setup", "exec", "retry_lost")
        ) + " |",
        "",
        "## Kickstart distribution (successful attempts)",
        "",
        "| count | mean | p50 | p95 | p99 | max |",
        "|---:|---:|---:|---:|---:|---:|",
        f"| {int(kick['count'])} | {_fmt_s(kick['mean'])} "
        f"| {_fmt_s(kick['p50'])} | {_fmt_s(kick['p95'])} "
        f"| {_fmt_s(kick['p99'])} | {_fmt_s(kick['max'])} |",
        "",
        f"Attempts {counts['attempts']}, succeeded "
        f"{counts['jobs_succeeded']}, failures {counts['failures']}, "
        f"retries {counts['retries']}, evictions {counts['evictions']}, "
        f"timeouts {counts['timeouts']}.",
    ]
    profile = report.get("profile")
    if profile:
        lines += [
            "",
            "## Resource usage (kickstart profiles)",
            "",
            f"{profile['attempts_profiled']} profiled attempts: "
            f"CPU {profile['cpu_user_s']:,.1f}s user + "
            f"{profile['cpu_sys_s']:,.1f}s system "
            f"({100 * profile['cpu_utilization']:.0f}% of exec wall), "
            f"peak RSS {profile['peak_rss_kb'] / 1024:,.0f} MB, "
            f"I/O {profile['read_ops']:,} reads / "
            f"{profile['write_ops']:,} writes "
            f"(sources: {profile['sources']}).",
        ]
    return "\n".join(lines)


# --------------------------------------------------------------------------
# comparison

#: Metric name -> extractor over a report dict. All "higher is worse".
_METRIC_PATHS: dict[str, tuple[str, ...]] = {
    "makespan": ("makespan_s",),
    **{bucket: ("attribution", bucket) for bucket in BUCKETS},
    "cumulative_exec": ("cumulative", "exec"),
    "cumulative_waiting": ("cumulative", "waiting"),
    "cumulative_setup": ("cumulative", "setup"),
    "cumulative_retry_lost": ("cumulative", "retry_lost"),
    "failures": ("counts", "failures"),
    "retries": ("counts", "retries"),
    "evictions": ("counts", "evictions"),
    "timeouts": ("counts", "timeouts"),
    "kickstart_mean": ("kickstart", "mean"),
    "kickstart_p50": ("kickstart", "p50"),
    "kickstart_p95": ("kickstart", "p95"),
    "kickstart_p99": ("kickstart", "p99"),
    "kickstart_max": ("kickstart", "max"),
    "cpu_s": ("profile", "cpu_user_s"),
    "peak_rss_kb": ("profile", "peak_rss_kb"),
}


def _metric(report: dict, name: str) -> float | None:
    """The report's value at ``name``'s path, ``None`` when it has none."""
    node = report
    for key in _METRIC_PATHS[name]:
        if not isinstance(node, Mapping) or key not in node:
            return None
        node = node[key]
    return float(node)


def compare_reports(base: dict, new: dict) -> dict:
    """Align two reports and compute the full delta table."""
    metrics: dict = {}
    for name in _METRIC_PATHS:
        b, n = _metric(base, name) or 0.0, _metric(new, name) or 0.0
        metrics[name] = {
            "base": b,
            "new": n,
            "delta": n - b,
            "pct": ((n - b) / b * 100.0) if b else None,
        }
    per_transformation: dict = {}
    base_t = base.get("per_transformation") or {}
    new_t = new.get("per_transformation") or {}
    for name in sorted(set(base_t) | set(new_t)):
        b_row, n_row = base_t.get(name), new_t.get(name)
        per_transformation[name] = {
            "base_kickstart_mean": b_row["kickstart_mean"] if b_row else None,
            "new_kickstart_mean": n_row["kickstart_mean"] if n_row else None,
            "base_count": b_row["count"] if b_row else 0,
            "new_count": n_row["count"] if n_row else 0,
        }
    return {
        "schema": COMPARE_SCHEMA,
        "base": base.get("label"),
        "new": new.get("label"),
        "metrics": metrics,
        "per_transformation": per_transformation,
    }


def parse_fail_on(specs: list[str]) -> dict[str, tuple[str, float]]:
    """``["makespan=5%", "retries=3"]`` → thresholds by metric.

    Each value is ``(kind, limit)`` with kind ``"pct"`` or ``"abs"``.
    Unknown metrics and malformed limits raise ``ValueError`` (the CLI
    maps that to exit code 2).
    """
    thresholds: dict[str, tuple[str, float]] = {}
    for spec in specs:
        metric, sep, limit = spec.partition("=")
        metric = metric.strip()
        if not sep or metric not in _METRIC_PATHS:
            known = ", ".join(sorted(_METRIC_PATHS))
            raise ValueError(
                f"bad --fail-on {spec!r}: want METRIC=LIMIT with METRIC "
                f"one of {known}"
            )
        limit = limit.strip()
        try:
            if limit.endswith("%"):
                thresholds[metric] = ("pct", float(limit[:-1]))
            else:
                thresholds[metric] = ("abs", float(limit.rstrip("s")))
        except ValueError:
            raise ValueError(
                f"bad --fail-on limit in {spec!r}: want e.g. 5% or 120"
            ) from None
    return thresholds


def check_thresholds(
    comparison: dict,
    thresholds: Mapping[str, tuple[str, float]],
) -> list[str]:
    """Human-readable descriptions of every exceeded threshold."""
    violations = []
    metrics = comparison["metrics"]
    for name, (kind, limit) in sorted(thresholds.items()):
        row = metrics[name]
        base, new = row["base"], row["new"]
        allowed = base * limit / 100.0 if kind == "pct" else limit
        if new - base > allowed:
            shown = f"{limit:g}%" if kind == "pct" else f"{limit:g}"
            violations.append(
                f"{name}: {new:,.1f} exceeds base {base:,.1f} "
                f"by {new - base:,.1f} (> allowed {shown})"
            )
    return violations


def render_compare_markdown(
    comparison: dict,
    *,
    thresholds: Mapping[str, tuple[str, float]] | None = None,
    violations: list[str] | None = None,
) -> str:
    metrics = comparison["metrics"]
    thresholds = thresholds or {}
    lines = [
        f"# Run comparison — `{comparison['base']}` → `{comparison['new']}`",
        "",
        "| metric | base | new | Δ | Δ% | gate |",
        "|---|---:|---:|---:|---:|---|",
    ]
    for name, row in metrics.items():
        if row["base"] == 0 and row["new"] == 0 and name not in thresholds:
            continue  # don't spam all-zero rows
        pct = f"{row['pct']:+.1f}%" if row["pct"] is not None else "—"
        if name in thresholds:
            kind, limit = thresholds[name]
            shown = f"{limit:g}%" if kind == "pct" else f"±{limit:g}"
            gate = f"≤ {shown}"
        else:
            gate = ""
        lines.append(
            f"| {name} | {row['base']:,.1f} | {row['new']:,.1f} "
            f"| {row['delta']:+,.1f} | {pct} | {gate} |"
        )
    if violations:
        lines += ["", "## REGRESSIONS", ""]
        lines += [f"* **{v}**" for v in violations]
    elif thresholds:
        lines += ["", "All gated metrics within thresholds."]
    return "\n".join(lines)


# --------------------------------------------------------------------------
# CLI


def _write_outputs(
    args: argparse.Namespace, payload: dict, markdown: str
) -> None:
    from repro.util.iolib import atomic_write

    if args.json_out:
        atomic_write(Path(args.json_out), json.dumps(payload, indent=2))
    if args.markdown_out:
        atomic_write(Path(args.markdown_out), markdown + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-report",
        description="Makespan attribution and differential run comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="attribute one run's makespan"
    )
    analyze.add_argument(
        "run", help="run directory, events/trace .jsonl, or saved report"
    )
    analyze.add_argument("--label", default=None)
    analyze.add_argument("--json", dest="json_out", default=None,
                         help="also save the machine-readable report here")
    analyze.add_argument("--markdown", dest="markdown_out", default=None,
                         help="also save the rendered Markdown here")
    analyze.add_argument("--quiet", action="store_true",
                         help="suppress stdout (files only)")

    compare = sub.add_parser(
        "compare", help="diff two runs and gate on regressions"
    )
    compare.add_argument("base", help="baseline run dir / log / report")
    compare.add_argument("new", help="candidate run dir / log / report")
    compare.add_argument(
        "--fail-on", action="append", default=[], metavar="METRIC=LIMIT",
        help="regression gate, e.g. makespan=5%% or retries=3 "
             "(repeatable; exit 1 when any is exceeded)",
    )
    compare.add_argument("--json", dest="json_out", default=None)
    compare.add_argument("--markdown", dest="markdown_out", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            report = load_report(args.run, label=args.label)
            markdown = render_markdown(report)
            _write_outputs(args, report, markdown)
            if not args.quiet:
                print(markdown)
            return 0

        base = load_report(args.base)
        new = load_report(args.new)
        thresholds = parse_fail_on(args.fail_on)
        for name in thresholds:
            # A baseline without the metric reads as 0 (an absolute
            # gate); a candidate without it has nothing to hold to one.
            if _metric(new, name) is None:
                path = ".".join(_METRIC_PATHS[name])
                raise ValueError(f"NEW has no value for {name!r} ({path})")
        comparison = compare_reports(base, new)
        violations = check_thresholds(comparison, thresholds)
        comparison["violations"] = violations
        markdown = render_compare_markdown(
            comparison, thresholds=thresholds, violations=violations
        )
        _write_outputs(args, comparison, markdown)
        print(markdown)
        if violations:
            print(
                f"repro-report: {len(violations)} regression(s) exceeded "
                "--fail-on thresholds",
                file=sys.stderr,
            )
            return 1
        return 0
    except (FileNotFoundError, ValueError) as exc:
        print(f"repro-report: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
