"""Host-time budget: six workloads, one exclusive-time table per run.

    python benchmarks/budget/run.py [--workload W] [--seed S]
        [--seconds T] [--trace 0|1] [--out FILE] [--smoke]
    python benchmarks/budget/run.py --compare A B    (files, or directories of them)

Each workload runs in its own fresh child process (``child.py``), one
after another: a closed loop with one client on one thread. End-to-end
numbers come from the untraced pass; the traced pass (``layers.py``)
gives the per-layer budget. Without ``--trace`` both passes run, the
traced one for half the time. README.md defines every name printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
OUT = HERE / "out"

#: end-to-end metric -> (unit, better, bound: the share of the parent's
#: value by which it may get worse before ``--compare`` objects)
END_TO_END = {
    "op_p50_s": ("s", "lower", 0.25),
    "jobs_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.10),
    "setup_s": ("s", "lower", 0.25),
    "fail_ratio": ("ratio", "lower", 0.0),
    "artefact_mb": ("MB", "lower", 0.05),
}
#: The end-to-end metrics defined, and never 0, on every workload: the
#: ones BENCHMARK.json lists and a single-workload run prints last.
ON_EVERY_WORKLOAD = ("op_p50_s", "jobs_per_s", "peak_rss_mb", "setup_s")

#: Every layer of the budget table; ``wms.cli`` / ``harness.driver`` are
#: the remainder rows, ``harness.fastenv`` the engine workload's
#: scripted platform.
LAYERS = (
    "core.workflow_factory", "wms.planner", "wms.cli", "sim.engine",
    "dagman.scheduler", "sim.cluster", "sim.grid", "sim.matchmaker",
    "observe.bus", "observe.bus.recorder", "observe.log", "observe.metrics",
    "observe.trace.ingest", "observe.anomaly", "observe.sampler",
    "resilience.journal", "resilience.journal.recover", "resilience.recovery",
    "observe.trace.fold", "observe.trace.otlp", "observe.trace.perfetto",
    "observe.chrome_trace", "wms.monitor", "service.service",
    "service.loadgen", "harness.fastenv", "harness.driver",
)
#: exact counts and simulated statistics -> unit
COUNTS = {
    "sim.engine.events": "count",
    "observe.bus.emitted": "count",
    "sim.matchmaker.finds": "count",
    "sim.matchmaker.bucket_probes": "count",
    "sim.matchmaker.finds_per_claim": "ratio",
    "resilience.journal.records": "count",
    "resilience.journal.bytes": "B",
    "resilience.journal.replayed": "count",
    "sim.makespan_s": "s",
    "sim.attempts": "count",
    "sim.retries": "count",
    "sim.spans": "count",
    "sim.alerts": "count",
    "sim.fingerprint": "id",
}


def per_layer_names() -> list[str]:
    """The names of the traced pass's metrics (``harness.*`` extras
    aside): what BENCHMARK.json lists under ``per_layer``."""
    return [f"{layer}.{suffix}" for layer in LAYERS
            for suffix in ("self_s", "share", "calls")] + list(COUNTS)


#: More set-ups are sampled while they are cheap: until five samples or
#: this many seconds of set-up, whichever comes first.
SETUP_SAMPLES = 5
SETUP_BUDGET_S = 3.0


def spawn_child(workload: str, seed: int, seconds: float, trace: int,
                smoke: bool) -> dict[str, Any]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, str(HERE / "child.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace),
         "--smoke", str(int(smoke)), "--spawned", repr(time.time())],
        env=env, stdout=subprocess.PIPE, text=True, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload}: child exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def untraced_metrics(doc: dict[str, Any], setups: list[float]) -> dict[str, Any]:
    """End-to-end and ``harness.*`` metrics of one untraced child.

    Times are at reference speed (``wall_s * speed``, see ``child.py``);
    the ``harness.*_raw_s`` rows are the same times as the clock read.
    """
    good = [op for op in doc["ops"] if "failed" not in op]
    walls = sorted(op["wall_s"] * op["speed"] for op in good)
    total = sum(walls)
    jobs = (doc["sim"] or {}).get("jobs", 0)
    metrics = {
        "op_p50_s": (median(walls), "s"),
        "jobs_per_s": (len(good) * jobs / total if total else 0.0, "1/s"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
        "setup_s": (median(setups), "s"),
        "fail_ratio": ((len(doc["ops"]) - len(good)) / len(doc["ops"]), "ratio"),
        "harness.ops": (len(doc["ops"]), "count"),
        "harness.setup_samples": (len(setups), "count"),
        "harness.speed": (median([op["speed"] for op in good]), "ratio"),
        "harness.op_p50_raw_s": (median([op["wall_s"] for op in good]), "s"),
        "harness.setup_raw_s": (doc["setup_s"], "s"),
        "harness.op_min_s": (walls[0] if walls else 0.0, "s"),
        "harness.cpu_s": (sum(op["cpu_s"] for op in good), "s"),
    }
    artefacts = [op["artefact_bytes"] for op in good]
    if any(artefacts):
        metrics["artefact_mb"] = (median(artefacts) / 1e6, "MB")
    if len(walls) >= 2:
        q1, _q2, q3 = statistics.quantiles(walls, n=4)
        metrics["harness.op_iqr_s"] = (q3 - q1, "s")
        if len(walls) >= 40:
            metrics["harness.op_p75_s"] = (q3, "s")
    return metrics


def traced_metrics(doc: dict[str, Any]) -> dict[str, Any]:
    """Per-layer metrics of one traced child: medians over its ops, as
    the clock read them (``harness.speed`` says how fast the machine
    was; shares and counts do not depend on it)."""
    good = [op for op in doc["ops"] if "failed" not in op]
    metrics: dict[str, Any] = {}
    for layer in LAYERS:
        self_s = [op["self_s"].get(layer, 0.0) for op in good]
        metrics[f"{layer}.self_s"] = (median(self_s), "s")
        metrics[f"{layer}.share"] = (
            median([s / op["wall_s"] for s, op in zip(self_s, good)]), "ratio")
        metrics[f"{layer}.calls"] = (
            median([op["calls"].get(layer, 0) for op in good]), "count")
    unknown = {k for op in good for k in op["self_s"]} - set(LAYERS)
    if unknown:
        raise SystemExit(f"layers missing from LAYERS: {sorted(unknown)}")

    def counted(name: str) -> float:
        return median([op["counts"].get(name, 0) for op in good])

    sim = doc["sim"] or {}
    claims = counted("sim.matchmaker.claims")
    values = {
        "sim.engine.events": counted("sim.engine.events"),
        "observe.bus.emitted": counted("observe.bus.emitted"),
        "sim.matchmaker.finds": counted("sim.matchmaker.finds"),
        "sim.matchmaker.bucket_probes": counted("sim.matchmaker.bucket_probes"),
        "sim.matchmaker.finds_per_claim":
            counted("sim.matchmaker.finds") / claims if claims else 0.0,
        "resilience.journal.records":
            median([op.get("journal_records", 0) for op in good]),
        "resilience.journal.bytes":
            median([op.get("journal_bytes", 0) for op in good]),
        # 48 bits of the sha256: a number every JSON reader keeps exact.
        "sim.fingerprint": int(sim.get("sim.fingerprint", "0")[:12], 16),
    }
    for name, unit in COUNTS.items():
        metrics[name] = (values.get(name, sim.get(name, 0)), unit)
    metrics["harness.speed"] = (median([op["speed"] for op in good]), "ratio")
    metrics["harness.traced_op_p50_raw_s"] = (
        median([op["wall_s"] for op in good]), "s")
    metrics["harness.traced_op_p50_s"] = (
        median([op["wall_s"] * op["speed"] for op in good]), "s")
    metrics["harness.tiling_error"] = (
        max((abs(sum(op["self_s"].values()) / op["wall_s"] - 1) for op in good),
            default=0.0), "ratio")
    return metrics


def header(seed: int) -> dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    load1 = os.getloadavg()[0]
    nproc = os.cpu_count() or 1
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": nproc,
        "loadavg_1min_at_start": load1,
        "harness.noisy": int(load1 > nproc),
        "seed": seed,
        "ops": {},  # workload -> timed ops per pass, filled in as they run
    }


def run(args: argparse.Namespace) -> int:
    if not (SRC / "repro").is_dir():
        print(f"no repro package at {SRC}: run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload and args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    passes = [0, 1] if args.trace is None else [args.trace]
    report: dict[str, Any] = {"header": header(args.seed), "workloads": {}}
    print(json.dumps(report["header"]))
    attempted = failed = 0
    for name in names:
        row: dict[str, Any] = {"why": WORKLOADS[name].why, "failures": []}
        report["workloads"][name] = row
        for trace in passes:
            seconds = args.seconds / 2 if len(passes) == 2 and trace else args.seconds
            doc = spawn_child(name, args.seed, seconds, trace, args.smoke)
            report["header"]["tmpfs"] = doc["tmpfs"]
            report["header"]["ops"].setdefault(name, {})[
                "traced" if trace else "untraced"] = len(doc["ops"])
            attempted += len(doc["ops"])
            failed += len(doc["failures"])
            row["failures"] += doc["failures"]
            row["sim"] = doc["sim"]
            if trace:
                row["per_layer"] = traced_metrics(doc)
            else:
                setups, spent = [doc["setup_s"] * doc["setup_speed"]], doc["setup_s"]
                while len(setups) < SETUP_SAMPLES and spent < SETUP_BUDGET_S:
                    again = spawn_child(name, args.seed, 0, 0, args.smoke)
                    setups.append(again["setup_s"] * again["setup_speed"])
                    spent += again["setup_s"]
                row["end_to_end"] = untraced_metrics(doc, setups)
        if len(passes) == 2:
            row["per_layer"]["harness.trace_overhead_pct"] = (
                100 * (row["per_layer"]["harness.traced_op_p50_s"][0]
                       / row["end_to_end"]["op_p50_s"][0] - 1), "%")
        print_workload(name, row)

    out = Path(args.out) if args.out else OUT / "result.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"result written to {out}")

    # The last line: what a single-workload, single-pass caller parses.
    last: dict[str, Any] = {}
    for name, row in report["workloads"].items():
        prefix = f"{name}:" if len(names) > 1 else ""
        for block, keys in (("end_to_end", ON_EVERY_WORKLOAD),
                            ("per_layer", per_layer_names())):
            for key in keys if block in row else ():
                value, unit = row[block][key]
                last[prefix + key] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": last,
    }))
    return 0


def print_workload(name: str, row: dict[str, Any]) -> None:
    print(f"\n== {name} ==")
    for key, (value, unit) in row.get("end_to_end", {}).items():
        print(f"  {key:<28} {value:>14.6g} {unit}")
    layers = row.get("per_layer")
    if layers:
        print(f"  {'layer':<28} {'self_s':>10} {'share':>7} {'calls':>9}")
        table = sorted(LAYERS, key=lambda l: -layers[f"{l}.self_s"][0])
        for layer in table:
            self_s = layers[f"{layer}.self_s"][0]
            if self_s:
                print(f"  {layer:<28} {self_s:>10.4f} "
                      f"{100 * layers[f'{layer}.share'][0]:>6.1f}% "
                      f"{layers[f'{layer}.calls'][0]:>9.0f}")
        for key, (value, unit) in layers.items():
            if key.rsplit(".", 1)[-1] not in ("self_s", "share", "calls"):
                print(f"  {key:<34} {value:>18.15g} {unit}")
    for failure in row["failures"][:1]:
        print(f"  FAILED {failure}")


def load_set(path: str) -> dict[str, dict[str, Any]]:
    """One result file, or every ``*.json`` in a directory (a set of
    runs): per workload the median of each end-to-end metric, and the
    ``sim`` block of each seed."""
    files = sorted(Path(path).glob("*.json")) if Path(path).is_dir() else [Path(path)]
    merged: dict[str, dict[str, Any]] = {}
    for file in files:
        doc = json.loads(file.read_text())
        for name, row in doc["workloads"].items():
            into = merged.setdefault(name, {"values": {}, "sim": {}})
            for metric, (value, _unit) in row.get("end_to_end", {}).items():
                into["values"].setdefault(metric, []).append(value)
            into["sim"][doc["header"]["seed"]] = row.get("sim")
    for into in merged.values():
        into["values"] = {m: median(v) for m, v in into["values"].items()}
    return merged


def compare(path_a: str, path_b: str) -> int:
    """B against A: every end-to-end metric of every workload with its
    relative change and bound, and the ``sim.*`` values of every seed
    both sides ran for equality. A side is a result file or a directory
    of them, whose medians are compared."""
    a, b = load_set(path_a), load_set(path_b)
    outside = 0
    print(f"{'workload':<22} {'metric':<12} {'A':>12} {'B':>12} "
          f"{'worse by':>9} {'bound':>6}")
    for name in a:
        if name not in b:
            continue
        for metric, (_unit, better, bound) in END_TO_END.items():
            if metric not in a[name]["values"] or metric not in b[name]["values"]:
                continue
            va, vb = a[name]["values"][metric], b[name]["values"][metric]
            worse = (vb - va) if better == "lower" else (va - vb)
            if va:
                worse /= abs(va)
            verdict = "" if worse <= bound else "  OUTSIDE"
            outside += bool(verdict)
            print(f"{name:<22} {metric:<12} {va:>12.6g} {vb:>12.6g} "
                  f"{100 * worse:>+8.1f}% {100 * bound:>5.0f}%{verdict}")
        for seed, sim in a[name]["sim"].items():
            other = b[name]["sim"].get(seed, sim)
            if other != sim:
                outside += 1
                print(f"{name:<22} seed {seed}: sim.* differ: {sim} != {other}")
    return 1 if outside else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long each pass starts new ops")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=None,
                        help="0: untraced pass only, 1: traced pass only "
                             "(default: both)")
    parser.add_argument("--out", help="result file (default out/result.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for selftest.py")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="two result files, or two directories of them")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
