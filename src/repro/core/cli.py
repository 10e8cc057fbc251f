"""``repro-blast2cap3``: run protein-guided assembly from the shell.

Three modes, mirroring the paper's comparison plus this repo's
in-process port of it:

* ``--serial`` — the original script's behaviour: one cluster at a
  time, no workflow machinery (the in-process driver at ``jobs=1``);
* ``--parallel`` — the paper's optimisation without the workflow: the
  per-cluster CAP3 loop fanned out over ``--jobs`` worker processes
  (:func:`repro.core.blast2cap3.blast2cap3_parallel`), bit-identical
  output to ``--serial``;
* default — plan the Pegasus-style workflow with ``-n`` partitions and
  execute it on the local backend with real payloads.

``--cache-dir`` (parallel and workflow modes) persists per-cluster CAP3
results content-addressed, so a repeated run — an n-sweep, a rescue
resubmit — recomputes only what changed; ``--no-cache`` turns it off.
"""

from __future__ import annotations

import argparse
import sys
import time

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-blast2cap3",
        description="Protein-guided assembly (blast2cap3), serial or as a workflow.",
    )
    parser.add_argument("--transcripts", required=True,
                        help="assembled transcripts FASTA")
    parser.add_argument("--alignments", required=True,
                        help="BLASTX tabular alignments (outfmt 6)")
    parser.add_argument("--output", required=True,
                        help="merged transcriptome FASTA to write")
    parser.add_argument("-n", "--clusters", type=int, default=4,
                        help="cluster partitions (workflow/parallel mode)")
    parser.add_argument("--workers", type=int, default=4,
                        help="local parallelism (workflow mode)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--serial", action="store_true",
                      help="run the original serial algorithm instead")
    mode.add_argument("--parallel", action="store_true",
                      help="run the in-process parallel driver "
                           "(process pool, no workflow machinery)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (parallel mode; default: CPUs)")
    parser.add_argument("--cache-dir", default=None,
                        help="content-addressed result cache directory "
                             "(parallel/workflow mode)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the result cache even when "
                             "--cache-dir is set")
    parser.add_argument("--workdir", default=None,
                        help="scratch directory (workflow mode)")
    parser.add_argument("--validate", action="store_true",
                        help="print an assembly validation scorecard")
    args = parser.parse_args(argv)

    cache_dir = None if args.no_cache else args.cache_dir

    start = time.perf_counter()
    if args.serial or args.parallel:
        from repro.bio.fasta import read_fasta, write_fasta
        from repro.blast.tabular import read_tabular
        from repro.core.blast2cap3 import blast2cap3_parallel
        from repro.core.cache import ResultCache

        # --serial is one job, inline, and never touched the cache.
        cache = ResultCache(cache_dir) if cache_dir and args.parallel else None
        try:
            result = blast2cap3_parallel(
                read_fasta(args.transcripts),
                read_tabular(args.alignments),
                jobs=1 if args.serial else args.jobs,
                n=args.clusters,
                cache=cache,
            )
        except ValueError as exc:
            print(f"repro-blast2cap3: {exc}", file=sys.stderr)
            return 2
        write_fasta(args.output, result.output_records)
        elapsed = time.perf_counter() - start
        label = "serial blast2cap3" if args.serial else (
            f"parallel blast2cap3 (n={args.clusters}, "
            f"jobs={args.jobs or 'auto'})"
        )
        cache_note = "" if cache is None else (
            f", cache {cache.stats.hits} hits / {cache.stats.misses} misses"
        )
        print(
            f"{label}: {result.input_count} transcripts -> "
            f"{result.output_count} sequences "
            f"({100 * result.reduction_fraction:.1f}% reduction) "
            f"in {elapsed:.1f}s{cache_note}"
        )
        if args.validate:
            _print_validation(args.output)
        return 0

    import shutil
    import tempfile

    from repro.bio.fasta import read_fasta
    from repro.core.workflow_factory import run_local

    workdir = args.workdir or tempfile.mkdtemp(prefix="blast2cap3-")
    result = run_local(
        args.transcripts,
        args.alignments,
        workdir,
        n=args.clusters,
        max_workers=args.workers,
        cache_dir=cache_dir,
    )
    if not result.dagman.success:
        print("workflow FAILED; failed jobs: "
              + ", ".join(result.dagman.failed_jobs), file=sys.stderr)
        return 1
    shutil.copyfile(result.final_output, args.output)
    elapsed = time.perf_counter() - start
    n_out = sum(1 for _ in read_fasta(args.output))
    print(
        f"workflow blast2cap3 (n={args.clusters}, {args.workers} workers): "
        f"{n_out} output sequences in {elapsed:.1f}s "
        f"[{len(result.dagman.trace)} job attempts, workdir {workdir}]"
    )
    if args.validate:
        _print_validation(args.output)
    return 0


def _print_validation(output_path: str) -> None:
    from repro.bio.fasta import read_fasta
    from repro.core.validation import render_validation, validate_assembly

    records = list(read_fasta(output_path))
    print()
    print(render_validation(validate_assembly(records), title=output_path))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
