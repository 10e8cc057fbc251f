#!/usr/bin/env python
"""Quickstart: protein-guided assembly in ~40 lines.

Generates a small synthetic workload (a protein database plus redundant,
fragmented transcripts derived from it), runs the serial blast2cap3
algorithm, and prints what happened — the 60-second tour of the library.

Run:  python examples/quickstart.py
"""

from repro.core.blast2cap3 import blast2cap3_parallel
from repro.core.workflow_factory import build_blast2cap3_adag, default_catalogs
from repro.datagen.transcripts import TranscriptomeSpec
from repro.datagen.workload import generate_blast2cap3_workload
from repro.lint import lint
from repro.util.tables import Table


def main() -> None:
    # 0. Pre-flight: the same computation, phrased as a Pegasus-style
    #    workflow, passes the static linter before anything runs (the
    #    `repro-lint` CLI does this for any DAX; planning does it
    #    automatically).
    sites, transformations, replicas = default_catalogs()
    report = lint(
        build_blast2cap3_adag(4),
        sites=sites,
        transformations=transformations,
        replicas=replicas,
        site="sandhills",
    )
    print(
        f"pre-flight lint: {report.verdict} — "
        f"{len(report.errors())} error(s), "
        f"{len(report.warnings())} warning(s)"
    )
    print()
    # 1. A synthetic workload: 15 reference proteins, ~3 transcript
    #    fragments per gene, a few unrelated "noise" transcripts, and
    #    oracle BLASTX alignments (swap alignments="blastx" to run the
    #    real translated search instead).
    workload = generate_blast2cap3_workload(
        n_proteins=15,
        spec=TranscriptomeSpec(
            mean_fragments_per_gene=3.0,
            noise_transcripts=5,
            error_rate=0.002,
        ),
        seed=42,
    )
    print(
        f"workload: {len(workload.transcripts)} transcripts, "
        f"{len(workload.hits)} BLASTX hits, "
        f"{len(workload.proteins)} reference proteins"
    )

    # 2. Protein-guided assembly: cluster transcripts by shared best
    #    protein hit, merge each cluster with the CAP3-like assembler,
    #    one cluster at a time (one job: the original serial script).
    result = blast2cap3_parallel(workload.transcripts, workload.hits, jobs=1)

    # 3. What happened.
    table = Table(["metric", "value"], title="blast2cap3 summary")
    table.add_row("input transcripts", result.input_count)
    table.add_row("protein clusters", result.cluster_count)
    table.add_row("clusters sent to CAP3", result.mergeable_cluster_count)
    table.add_row("transcripts merged into contigs", result.merged_transcript_count)
    table.add_row("contigs produced", len(result.joined))
    table.add_row("unjoined transcripts", len(result.unjoined))
    table.add_row("output sequences", result.output_count)
    table.add_row(
        "reduction", f"{100 * result.reduction_fraction:.1f}%"
    )
    print()
    print(table.render())

    print()
    print("first contig:", result.joined[0].id, f"({len(result.joined[0])} bp)")


if __name__ == "__main__":
    main()
