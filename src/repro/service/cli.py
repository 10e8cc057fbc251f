"""``repro-service``: drive the multi-tenant WaaS layer from the shell.

One subcommand today:

* ``repro-service bench`` — run a load-generator scenario (N tenants ×
  M workflows each, arriving at a per-tenant rate on the virtual
  clock) against a simulated platform and print the sustained
  throughput and per-tenant SLO table; ``--json`` saves the full
  results document.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.service.loadgen import LoadSpec, run_load

__all__ = ["main"]


def _spec_from_args(args: argparse.Namespace) -> LoadSpec:
    weights = tuple(float(w) for w in args.weights.split(",")) if args.weights else (1.0,)
    return LoadSpec(
        tenants=args.tenants,
        workflows_per_tenant=args.workflows,
        jobs_per_workflow=args.jobs,
        workflows_per_minute=args.rate,
        tenant_weights=weights,
        max_running_jobs=args.max_running_jobs,
        max_active_workflows=args.max_active_workflows,
        require_software_prob=args.require_software,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-service",
        description="Multi-tenant Workflow-as-a-Service front-end.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser(
        "bench", help="run a multi-tenant load scenario (simulated)"
    )
    bench.add_argument("--tenants", type=int, default=8)
    bench.add_argument("--workflows", type=int, default=4,
                       help="workflows per tenant")
    bench.add_argument("--jobs", type=int, default=50,
                       help="jobs per workflow")
    bench.add_argument("--rate", type=float, default=2.0,
                       help="per-tenant arrival rate, workflows/min "
                            "(virtual time)")
    bench.add_argument("--weights", default=None,
                       help="comma-separated fair-share weights, cycled "
                            "over tenants (default: equal)")
    bench.add_argument("--max-running-jobs", type=int, default=None,
                       help="per-tenant concurrent-job quota")
    bench.add_argument("--max-active-workflows", type=int, default=None,
                       help="per-tenant active-workflow quota")
    bench.add_argument("--require-software", type=float, default=0.0,
                       metavar="PROB",
                       help="fraction of workflows whose jobs carry "
                            "Sandhills-style software requirements")
    bench.add_argument("--backend", choices=("cluster", "grid"),
                       default="cluster")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--json", dest="json_out", default=None,
                       help="save the full results document here")
    bench.add_argument("--quiet", action="store_true")

    args = parser.parse_args(argv)
    try:
        spec = _spec_from_args(args)
    except ValueError as exc:
        print(f"repro-service: {exc}", file=sys.stderr)
        return 2
    result = run_load(spec, backend=args.backend, seed=args.seed)
    if args.json_out:
        from repro.util.iolib import atomic_write

        atomic_write(
            Path(args.json_out), json.dumps(result, indent=2, sort_keys=True)
        )
    if not args.quiet:
        print(
            f"{args.tenants} tenant(s) x {args.workflows} workflow(s) x "
            f"{args.jobs} job(s) on {args.backend}: "
            f"{result['workflows_completed']} workflows in "
            f"{float(result['makespan_s']):,.0f} virtual seconds "  # type: ignore[arg-type]
            f"({float(result['workflows_per_minute_sustained']):.2f}/min sustained)"  # type: ignore[arg-type]
        )
        print()
        print("| tenant | weight | done | p95 turnaround (s) "
              "| p95 queue wait (s) | busy (s) |")
        print("|---|---:|---:|---:|---:|---:|")
        slo = result["slo"]
        assert isinstance(slo, dict)
        for tenant in sorted(slo):
            row = slo[tenant]
            account = row["account"]
            print(
                f"| {tenant} | {row['weight']:g} "
                f"| {account['workflows_completed']:.0f} "
                f"| {row['turnaround_s']['p95']:,.0f} "
                f"| {row['queue_wait_s']['p95']:,.0f} "
                f"| {account['busy_seconds']:,.0f} |"
            )
        matchmaker = result.get("matchmaker")
        if matchmaker:
            assert isinstance(matchmaker, dict)
            print()
            print(
                f"matchmaker {matchmaker['strategy']}: "
                f"{matchmaker['finds']} finds "
                f"({matchmaker['finds_per_claim']:.2f} per claim), "
                f"{matchmaker['ads_scanned']} ads scanned, "
                f"{matchmaker['bucket_probes']} bucket probes, "
                f"{matchmaker['linear_fallbacks']} linear fallbacks"
            )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
