"""The CI gate table (``benchmarks/gates.py``) on canned results.

No benchmark runs here: the rows are held to hand-written
``run.py``-shaped results, and the table itself to ``BENCHMARK.json``.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "gates", ROOT / "benchmarks" / "gates.py"
)
gates = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gates)

ENGINE = "engine_layered_100k"
ENGINE_GATES = [g for g in gates.GATES if g.workload == ENGINE]


def engine_result(changed=()):
    """A ``workloads`` block whose engine row passes, but for *changed*
    (name -> value; ``None`` drops the key)."""
    per_layer = {
        "sim.engine.events": [100000, "count"],
        "dagman.scheduler.calls": [100001, "count"],
        "dagman.scheduler.share": [0.40, "ratio"],
    }
    for name, value in dict(changed).items():
        if value is None:
            del per_layer[name]
        else:
            per_layer[name] = [value, ""]
    return {ENGINE: {"failures": [], "per_layer": per_layer}}


def verdicts(workloads):
    return {
        gate.expression: (value, ok)
        for gate, value, _bound, ok in gates.judge(workloads)
        if gate.workload == ENGINE
    }


def test_passing_rows():
    assert len(ENGINE_GATES) == 3
    assert all(ok for _value, ok in verdicts(engine_result()).values())


def test_share_over_its_bound_fails_alone():
    got = verdicts(engine_result({"dagman.scheduler.share": 0.60}))
    assert got.pop("dagman.scheduler.share") == ("0.600", False)
    assert all(ok for _value, ok in got.values())


def test_exact_row_off_by_one_fails():
    got = verdicts(engine_result({"dagman.scheduler.calls": 100002}))
    assert got["dagman.scheduler.calls"] == ("100002", False)
    # one engine event fewer moves the row whose bound is computed too
    got = verdicts(engine_result({"sim.engine.events": 99999}))
    assert not got["sim.engine.events"][1]
    assert not got["dagman.scheduler.calls"][1]


def test_absent_key_fails_and_is_named():
    got = verdicts(engine_result({"sim.engine.events": None}))
    assert got["sim.engine.events"] == ("no sim.engine.events", False)
    # ...wherever the row reads it, its bound included
    assert got["dagman.scheduler.calls"] == ("no sim.engine.events", False)
    assert got["dagman.scheduler.share"][1]


def test_failed_op_fails_every_row_of_its_workload():
    workloads = engine_result()
    workloads[ENGINE]["failures"] = ["op 0: CheckFailed: seed 0 expects ..."]
    assert set(verdicts(workloads).values()) == {("1 op(s) failed", False)}


def test_workload_that_did_not_run_fails(tmp_path, capsys):
    rows = gates.judge(engine_result())
    assert [ok for gate, *_, ok in rows if gate.workload != ENGINE] == [
        False
    ] * (len(gates.GATES) - len(ENGINE_GATES))
    saved = tmp_path / "engine.json"
    saved.write_text(json.dumps({"workloads": engine_result()}))
    assert gates.main([str(saved)]) == 1
    out = capsys.readouterr().out
    assert "no traced result" in out and "3 of " in out


def test_rows_only_name_what_the_benchmark_declares():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {row["name"] for row in declared["per_layer"]}
    workloads = {row["name"] for row in declared["workloads"]}
    for gate in gates.GATES:
        assert gates.names(gate), gate
        assert gates.names(gate) <= per_layer, gate
        assert gate.workload in workloads, gate
        assert gate.workload in gates.SECONDS, gate
        assert gate.comparison in ("<=", "=="), gate
