"""Self-test of the budget harness: ``python benchmarks/budget/selftest.py``.

Checks, in under ten seconds:

1. the exclusive-time stack tiles: nested synthetic layers with known
   sleeps sum to the op wall within 1 %, each sleep in its own layer;
2. a callback handed to ``Simulator.schedule`` is charged to the layer
   that scheduled it, not to ``sim.engine``;
3. the ``--smoke`` tier of every workload runs traced in this process,
   passes its output checks, tiles within 5 % and only uses known layers;
4. ``run.py`` end to end on one smoke workload, both passes: exit 0 and
   a last line of the agreed shape;
5. ``BENCHMARK.json`` and ``run.py`` name the same workloads and metrics.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from layers import Budget, install  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def test_stack_tiles() -> None:
    budget = Budget()
    inner = budget.layered(lambda: time.sleep(0.03), "inner")
    sibling = budget.layered(lambda: time.sleep(0.02), "sibling", span="sib")

    def outer_body() -> None:
        time.sleep(0.01)
        inner()
        sibling()
        inner()

    outer = budget.layered(outer_body, "outer")

    def op() -> None:
        time.sleep(0.02)
        outer()

    start = time.perf_counter()
    budget.run_op(0, "root", op)
    wall = time.perf_counter() - start
    report = budget.report()
    self_s = report["self_s"]
    check(abs(sum(self_s.values()) / wall - 1) < 0.01,
          f"self times {self_s} do not tile the op wall {wall}")
    for layer, slept in (("root", 0.02), ("outer", 0.01),
                         ("inner", 0.06), ("sibling", 0.02)):
        check(slept <= self_s[layer] < slept + 0.015,
              f"{layer} slept {slept} s but is charged {self_s[layer]} s")
    check(report["calls"] == {"root": 0, "outer": 1, "inner": 2, "sibling": 1},
          f"calls {report['calls']}")
    names = [(s["name"], s["parent"]) for s in budget.spans_json()]
    check(names == [("op", -1), ("sib", 0)], f"spans {names}")


def test_callback_inherits(budget: Budget) -> None:
    from repro.sim.engine import Simulator

    sim = Simulator()
    planner = budget.layered(
        lambda: sim.schedule(1.0, lambda: time.sleep(0.02)), "test.scheduling"
    )

    def op() -> None:
        planner()
        sim.run()

    budget.run_op(0, "root", op)
    report = budget.report()
    check(report["self_s"]["test.scheduling"] >= 0.02,
          f"callback not charged to its scheduling layer: {report['self_s']}")
    check(report["self_s"]["sim.engine"] < 0.01,
          f"callback charged to the engine: {report['self_s']}")
    check(report["counts"]["sim.engine.events"] == 1, str(report["counts"]))


def test_smoke_workloads(budget: Budget) -> None:
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=OUT))
    try:
        for name, cls in WORKLOADS.items():
            workload = cls(1, True)
            op_dir = work / name
            op_dir.mkdir()
            start = time.perf_counter()
            result = budget.run_op(0, workload.root, lambda: workload.op(op_dir))
            wall = time.perf_counter() - start
            stats = workload.check(result, op_dir)
            self_s = budget.report()["self_s"]
            check(abs(sum(self_s.values()) / wall - 1) < 0.05,
                  f"{name}: layers sum to {sum(self_s.values())}, wall {wall}")
            unknown = set(self_s) - set(run.LAYERS)
            check(not unknown, f"{name}: unknown layers {unknown}")
            check(stats["jobs"] > 0, f"{name}: no jobs")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_run_py() -> None:
    out = Path(tempfile.mkdtemp(prefix="selftest-", dir=OUT))
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "0.2",
             "--workload", "journal_resume_20k", "--out", str(out / "r.json")],
            capture_output=True, text=True, check=False,
        )
        check(done.returncode == 0, f"run.py exited {done.returncode}: {done.stderr}")
        last = json.loads(done.stdout.splitlines()[-1])
        check(set(last) == {"correct", "attempted", "failed", "metrics"}, str(last))
        check(last["correct"] and last["failed"] == 0, str(last)[:300])
        wanted = set(run.ON_EVERY_WORKLOAD) | set(run.per_layer_names())
        check(set(last["metrics"]) == wanted,
              f"last line names {set(last['metrics']) ^ wanted} differ")
        doc = json.loads((out / "r.json").read_text())
        check("harness.trace_overhead_pct"
              in doc["workloads"]["journal_resume_20k"]["per_layer"],
              "no trace overhead reported")
        code = run.compare(str(out / "r.json"), str(out / "r.json"))
        check(code == 0, "a result does not compare equal to itself")
    finally:
        shutil.rmtree(out, ignore_errors=True)


def test_benchmark_json() -> None:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in doc["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json workloads differ from workloads.py")
    listed = {m["name"]: (m["unit"], m["better"], m["bound"])
              for m in doc["end_to_end"]}
    check(listed == {n: run.END_TO_END[n] for n in run.ON_EVERY_WORKLOAD},
          "BENCHMARK.json end_to_end differs from run.py")
    check({m["name"] for m in doc["per_layer"]} == set(run.per_layer_names()),
          "BENCHMARK.json per_layer differs from run.py")


def main() -> int:
    started = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    test_stack_tiles()
    test_benchmark_json()
    budget = Budget()
    install(budget)
    test_callback_inherits(budget)
    test_smoke_workloads(budget)
    test_run_py()
    print(f"selftest ok ({time.perf_counter() - started:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
