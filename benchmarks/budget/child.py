"""One workload, one process: set up, then a closed loop of ops.

``run.py`` starts this file once per (workload, pass) so every
measurement begins from a fresh interpreter. Single thread, one client:
the next op starts when the previous one has returned and been checked.
The last line of stdout is one JSON document; ``run.py`` reads it.

Every op is bracketed by :func:`reference_kernel`, a fixed piece of
pure-Python work that touches no ``repro`` code. The machine this was
written on runs identical ops up to 1.7x slower for a minute or two at
a time (CPU time drifts with wall time; nothing else runs in the
guest), and the kernel slows down with them: when ``cli_sandhills_n300``
ops went from 0.265 s to 0.40 s the kernel went from 20 ms to 30 ms. So
``speed`` = ``REFERENCE_S`` / kernel seconds says how fast the machine
was around an op, and ``wall_s * speed`` is the op's time at reference
speed. README.md ("Noise and reference speed") has the measurements.
"""

from __future__ import annotations

import time

_PROCESS_START = time.time()  # before the heavy imports: they are set-up

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import traceback
from heapq import heappop, heappush
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

#: What :func:`reference_kernel` takes on the 2-core 2.1 GHz Xeon guest
#: this was written on while nothing disturbs it (16 ms back to back,
#: 21 ms right after an op has emptied the caches): speed 1.0.
REFERENCE_S = 0.018

_STRIDED = [(i, str(i)) for i in range(50_000)]  # ~7 MB: beyond L2


def reference_kernel() -> float:
    """Wall seconds of a fixed interpreter-bound phase (heap, dict,
    string and object churn) plus a cache-unfriendly one (a strided walk
    over 50 000 tuples): ops are a mix of both, and a kernel with only
    the first over-corrects."""
    start = time.perf_counter()
    heap: list[tuple[int, int]] = []
    table: dict[int, int] = {}
    acc = 0
    for i in range(12_000):
        heappush(heap, ((i * 7919) % 1013, i))
        table[i & 1023] = table.get(i & 1023, 0) + i
        if i & 3 == 0:
            acc += heappop(heap)[0]
        _text = f"{i}:{acc}"
    acc += sum(pair[0] for pair in [(i, None) for i in range(4_000)])
    strided = _STRIDED
    for j in range(0, 300_000, 7):
        acc += strided[(j * 7919) % 50_000][0]
    return time.perf_counter() - start


def machine_speed(seconds: float) -> float:
    """1.0 at reference speed, below when the machine is slower; the
    kernel is sampled for about ``seconds`` (at least one run)."""
    runs = max(1, round(seconds / REFERENCE_S))
    return REFERENCE_S * runs / sum(reference_kernel() for _ in range(runs))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed ops start until this much time has "
                             "passed; 0 = set-up only")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, default=_PROCESS_START,
                        help="time.time() when the parent started this "
                             "process; set-up is counted from there")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS, CheckFailed

    budget = None
    if args.trace:
        from layers import Budget, install

        budget = Budget()
        install(budget)

    workload = WORKLOADS[args.workload](args.seed, bool(args.smoke))
    expected = None
    if args.seed == 0 and not args.smoke:
        expected = json.loads((HERE / "expected.json").read_text())[workload.name]

    root = OUT / "work" / f"{workload.name}-{os.getpid()}"
    work = root / "op"
    ops: list[dict[str, Any]] = []
    failures: list[str] = []
    first_stats: dict[str, Any] | None = None
    last_wall = 1.0  # three kernel runs before the warm-up op

    def one_op(index: int) -> None:
        """Fresh work directory, timed op, untimed check."""
        nonlocal first_stats, last_wall
        work.mkdir(parents=True)
        gc.collect()
        row: dict[str, Any] = {}
        try:
            # 5 % of the previous op's time on either side of this one:
            # one kernel run around a CLI op, ten around a 3 s op.
            sample_s = 0.05 * last_wall
            before = machine_speed(sample_s)
            cpu0 = time.process_time()
            start = time.perf_counter()
            if budget is None:
                result = workload.op(work)
            else:
                result = budget.run_op(index, workload.root,
                                       lambda: workload.op(work))
            row["wall_s"] = last_wall = time.perf_counter() - start
            row["cpu_s"] = time.process_time() - cpu0
            row["speed"] = (before + machine_speed(sample_s)) / 2
            if budget is not None:
                row.update(budget.report())
            stats = workload.check(result, work)
            del result
            if first_stats is None:
                first_stats = stats
            if stats != first_stats:
                raise CheckFailed(f"op {index} differs from the first op: {stats}")
            if expected is not None:
                wrong = {k: stats[k] for k, v in expected.items() if stats[k] != v}
                if wrong:
                    raise CheckFailed(f"seed 0 expects {expected}, got {wrong}")
            row["artefact_bytes"] = workload.artefact_bytes(work)
            journal = workload.journal_dir(work)
            if journal is not None:
                snapshot = json.loads((journal / "snapshot.json").read_text())
                row["journal_records"] = snapshot["seq"] + 1
                row["journal_bytes"] = sum(
                    p.stat().st_size for p in journal.iterdir()
                )
        except Exception:  # the loop must go on: count and report
            failures.append(f"op {index}: {traceback.format_exc()}")
            row["failed"] = True
        finally:
            shutil.rmtree(work, ignore_errors=True)
        ops.append(row)

    try:
        one_op(-1)  # warm-up: fills caches and lazy imports, never timed
        if failures:
            print(failures[0], file=sys.stderr)
            return 1
        setup_speed = ops[0]["speed"]
        ops.clear()
        loop_start = time.perf_counter()
        setup_s = time.time() - args.spawned
        while time.perf_counter() - loop_start < args.seconds:
            one_op(len(ops))
    finally:
        shutil.rmtree(root, ignore_errors=True)

    if budget is not None:
        OUT.mkdir(exist_ok=True)
        (OUT / f"spans-{workload.name}.json").write_text(
            json.dumps(budget.spans_json())
        )
    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": setup_s,
        "setup_speed": setup_speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "tmpfs": _on_tmpfs(OUT),
        "root": workload.root,
        "ops": ops,
        "failures": failures,
        "sim": first_stats,
    }))
    return 0


def _on_tmpfs(path: Path) -> bool:
    best = ("", "")
    with open("/proc/mounts", encoding="utf-8") as fh:
        for line in fh:
            _dev, mount, fstype = line.split()[:3]
            if str(path).startswith(mount) and len(mount) > len(best[0]):
                best = (mount, fstype)
    return best[1] == "tmpfs"


if __name__ == "__main__":
    sys.exit(main())
