"""§VI-A claim — the Pegasus implementation cuts serial time by >95 %.

"If the current sequential implementation of blast2cap3 for the given
input files runs for 100 hours, the Pegasus WMS implementation runs for
3 hours in average."
"""

import statistics

from conftest import NS, write_result

from repro.core.workflow_factory import run_local, simulate_paper_run
from repro.perfmodel.calibration import anchors
from repro.util.tables import Table


def test_workflow_reduction_exceeds_95_percent(fig4_data, paper_model,
                                               benchmark):
    a = anchors()
    serial = paper_model.serial_walltime()

    rows = []
    for platform in ("sandhills", "osg"):
        for n in NS:
            wall = fig4_data.get(platform, n).median
            rows.append((platform, n, wall, 1 - wall / serial))

    table = Table(
        ["platform", "n", "wall (s)", "reduction"],
        title="Reduction vs 100-hour serial run",
    )
    for platform, n, wall, red in rows:
        table.add_row(platform, n, round(wall), f"{100 * red:.1f}%")
    write_result("serial_speedup", table.render())

    # ">95%" holds at the paper's practical operating points (n >= 100).
    practical = [red for _, n, _, red in rows if n >= 100]
    assert all(red > a.min_reduction_vs_serial for red in practical)

    # "runs for 3 hours in average" at the plateau.
    plateau = [w for p, n, w, _ in rows if n >= 100]
    mean_wall = statistics.mean(plateau)
    assert 0.6 * a.workflow_mean_s < mean_wall < 1.6 * a.workflow_mean_s

    benchmark(lambda: simulate_paper_run(100, "osg", seed=2,
                                         model=paper_model))


def test_real_local_execution_also_speeds_up(tmp_path_factory, benchmark):
    """Same claim at laptop scale with *real* computation: the workflow
    on the process-pool backend beats the serial loop on actual CAP3
    work. The workload uses *even* cluster sizes — with the generator's
    default skew, one giant cluster bounds the wall time exactly as the
    paper's plateau does, and no scheduler could beat that."""
    import time

    from repro.bio.fasta import write_fasta
    from repro.blast.tabular import write_tabular
    from repro.core.blast2cap3 import blast2cap3_parallel
    from repro.datagen.transcripts import TranscriptomeSpec
    from repro.datagen.workload import generate_blast2cap3_workload

    tmp = tmp_path_factory.mktemp("speedup")
    wl = generate_blast2cap3_workload(
        n_proteins=16,
        spec=TranscriptomeSpec(
            mean_fragments_per_gene=5.0,
            sigma_fragments=0.05,  # even clusters: parallelisable work
            error_rate=0.002,
        ),
        seed=5,
    )
    transcripts = tmp / "transcripts.fasta"
    alignments = tmp / "alignments.out"
    write_fasta(transcripts, wl.transcripts)
    write_tabular(alignments, wl.hits)

    t0 = time.perf_counter()
    blast2cap3_parallel(wl.transcripts, wl.hits, jobs=1)
    serial_s = time.perf_counter() - t0

    last_result = {}
    #: wall seconds of each workflow run, timed here so the comparison
    #: below holds under ``--benchmark-disable`` too (no stats then)
    workflow_s = []

    def workflow_run(workers: int):
        import shutil
        import tempfile

        workdir = tempfile.mkdtemp(dir=tmp, prefix="wf")
        t0 = time.perf_counter()
        result = run_local(transcripts, alignments, workdir, n=8,
                           max_workers=workers, executor="process")
        workflow_s.append(time.perf_counter() - t0)
        assert result.dagman.success
        last_result["trace"] = result.dagman.trace
        shutil.rmtree(workdir, ignore_errors=True)

    import os

    workers = max(2, min(8, os.cpu_count() or 2))
    benchmark.pedantic(workflow_run, args=(workers,), rounds=3, iterations=1)

    # Parallelism must actually have happened: at least two run_cap3
    # payloads overlapped in time. (Wall-clock speedup ratios are too
    # noisy to assert on a shared 2-core CI box; the cumulative-work vs
    # wall-time comparison below is the robust version of the claim.)
    cap3 = sorted(
        (a for a in last_result["trace"].successful()
         if a.transformation == "run_cap3"),
        key=lambda a: a.exec_start,
    )
    assert any(
        cap3[i + 1].exec_start < cap3[i].exec_end
        for i in range(len(cap3) - 1)
    ), "no run_cap3 payloads overlapped: the pool did not parallelise"
    wall = last_result["trace"].wall_time()
    work = last_result["trace"].cumulative_kickstart()
    assert work > 1.1 * wall, "cumulative payload time should exceed wall time"
    # And the workflow must not be pathologically slower than the plain
    # serial loop (it was 7x slower under the old thread pool).
    assert statistics.mean(workflow_s) < 1.6 * serial_s
