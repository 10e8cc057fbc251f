#!/usr/bin/env python
"""The full blast2cap3 stack, end to end, on real computation.

Unlike the quickstart (which uses oracle alignments), this example runs
every stage for real at laptop scale:

1. generate a protein database and a fragmented transcriptome,
2. run the **actual BLASTX-like translated search** against the DB,
3. write the two paper input files (``transcripts.fasta``,
   ``alignments.out``) to disk,
4. execute blast2cap3 both **serially** and as a **Pegasus-style
   workflow under DAGMan** on the local thread-pool backend, then both
   modes again through the ``repro-blast2cap3`` command,
5. verify all produce the identical merged transcriptome, and print
   the pegasus-statistics report for the workflow run.

Run:  python examples/protein_guided_assembly.py
"""

import tempfile
import time
from pathlib import Path

from repro.bio.fasta import read_fasta, write_fasta
from repro.blast.blastx import BlastXParams
from repro.blast.tabular import write_tabular
from repro.core.blast2cap3 import blast2cap3_parallel
from repro.core.cli import main as blast2cap3_cli
from repro.core.workflow_factory import run_local
from repro.datagen.transcripts import TranscriptomeSpec
from repro.datagen.workload import generate_blast2cap3_workload
from repro.wms.statistics import render_report, summarize


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="blast2cap3-example-"))
    print(f"working in {workdir}")

    # 1-2. workload with a real translated search (this is the slow bit).
    t0 = time.perf_counter()
    workload = generate_blast2cap3_workload(
        n_proteins=8,
        spec=TranscriptomeSpec(
            mean_fragments_per_gene=3.0,
            noise_transcripts=3,
            error_rate=0.001,
        ),
        seed=7,
        alignments="blastx",
        blast_params=BlastXParams(),
    )
    print(
        f"BLASTX search: {len(workload.transcripts)} transcripts vs "
        f"{len(workload.proteins)} proteins -> {len(workload.hits)} hits "
        f"({time.perf_counter() - t0:.1f}s)"
    )

    # 3. the paper's two input files.
    transcripts_path = workdir / "transcripts.fasta"
    alignments_path = workdir / "alignments.out"
    write_fasta(transcripts_path, workload.transcripts)
    write_tabular(alignments_path, workload.hits)

    # 4a. the original serial script: the driver at one job.
    t0 = time.perf_counter()
    serial = blast2cap3_parallel(workload.transcripts, workload.hits, jobs=1)
    serial_s = time.perf_counter() - t0
    print(
        f"serial blast2cap3: {serial.input_count} -> {serial.output_count} "
        f"sequences ({100 * serial.reduction_fraction:.1f}% reduction) "
        f"in {serial_s:.1f}s"
    )

    # 4b. the Pegasus-style workflow on the local backend.
    t0 = time.perf_counter()
    wf = run_local(
        transcripts_path,
        alignments_path,
        workdir / "scratch",
        n=4,
        max_workers=4,
    )
    wf_s = time.perf_counter() - t0
    assert wf.dagman.success, wf.dagman.failed_jobs
    print(f"workflow blast2cap3 (n=4): finished in {wf_s:.1f}s")

    # 4c. both modes from the shell, as `repro-blast2cap3` runs them: the
    # workflow, and the process pool with a result cache and the
    # assembly scorecard.
    inputs = ["--transcripts", str(transcripts_path),
              "--alignments", str(alignments_path)]
    cli_workflow = workdir / "cli-workflow.fasta"
    cli_parallel = workdir / "cli-parallel.fasta"
    assert blast2cap3_cli([*inputs, "--output", str(cli_workflow), "-n", "4",
                           "--workers", "4",
                           "--workdir", str(workdir / "cli-scratch")]) == 0
    assert blast2cap3_cli([*inputs, "--output", str(cli_parallel), "-n", "4",
                           "--parallel", "--jobs", "2",
                           "--cache-dir", str(workdir / "cache"),
                           "--validate"]) == 0

    # 5. parity check + statistics.
    serial_records = {(r.id, r.seq) for r in serial.output_records}
    wf_records = {(r.id, r.seq) for r in read_fasta(wf.final_output)}
    assert serial_records == wf_records, "workflow output != serial output"
    for path in (cli_workflow, cli_parallel):
        cli_records = {(r.id, r.seq) for r in read_fasta(path)}
        assert cli_records == serial_records, f"{path.name} != serial output"
    print("parity: workflow output identical to the serial script's ✓")
    print()
    print(render_report(summarize(wf.dagman.trace), title="local workflow run"))


if __name__ == "__main__":
    main()
