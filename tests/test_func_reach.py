"""Every function under ``src/repro`` runs under something that runs.

The function-level sibling of ``tests/test_src_reach.py`` (modules) and
``tests/test_flag_reach.py`` (flags). ``python tests/test_func_reach.py``
copies the tree to a temporary directory and runs every non-test root
there with a profile hook loaded into each interpreter:

* the six ``examples/``;
* ``pytest benchmarks --benchmark-disable``;
* each ``run:`` step of ``.github/workflows/ci.yml``, in order, except
  the ones ``NOT_RUN`` says why not;
* README's commands, as ``tests/test_readme_commands.py`` runs them.

The hook is a generated ``sitecustomize.py`` on the roots'
``PYTHONPATH``: ``sys.setprofile`` + ``threading.setprofile``, and on
the first call of each code object one ``os.write`` of its file and
first line to an ``O_APPEND`` file. So a process pool's workers and a
SIGKILLed run report what they ran; nothing in ``src/`` knows about it.
A child started with a fresh environment does not load the hook: the
cold-start gate's commands and README's ``exit 137`` line run that way,
and the other roots run what they run (the CI crash smoke kills a run
with the hook loaded).

A function is keyed by its file and its first line, decorators
included (``co_firstlineno``), and named ``module:qualname`` from the
source with ``ast`` (3.10 has no ``co_qualname``). The functions are
those defined at module level or in a class body; a nested function
runs only when its parent does. A root that fails fails the guard,
and so does a function no root ran that has no line in ``ALLOWED``:
delete it, move it to ``tests/oracles/`` if a test compares against
it, or say in ``ALLOWED`` why it stays. A module that
``tests/test_src_reach.py`` allows is allowed whole.

A function whose body is only a docstring, ``...``, ``pass`` or
``raise NotImplementedError`` declares an interface and is not counted.

The roots run in two lanes side by side (:func:`lanes`): the examples
then ``gates.py`` in one, the benches, the other CI steps and README in
the other. ``gates.py`` times in-process shares, which the hook slows,
so it counts as working when it prints its whole table with a number
in every row. The budget selftest and smoke step is left out: it runs
the six workloads ``gates.py`` runs and reaches no function the other
roots miss.
"""

from __future__ import annotations

import ast
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]

#: ``module:qualname`` -> why it stays though no root runs it.
ALLOWED: dict[str, str] = {
    # Live branches no root triggers.
    "repro.resilience.blacklist:Blacklist.restore_block":
        "blacklist blocks journaled since the last snapshot: resuming a "
        "journal whose log holds a blacklist.add past its snapshot",
    "repro.resilience.blacklist:Blacklist.next_expiry":
        "the cooldown wake-up (_schedule_redispatch) asks when a block lifts",
    "repro.sim.platform:SimPlatform._schedule_redispatch":
        "the cooldown wake-up when every slot is blacklisted; "
        "tests/test_platform_kernel.py pins it",
    "repro.observe.trace:SpanTracer._on_timeout":
        "the span of an attempt a per-job timeout killed",
    "repro.observe.trace:SpanTracer._on_service_reject":
        "the span of a workflow the service refused, under a tracer",
    "repro.execution.local:LocalEnvironment.call_later":
        "a delayed retry on the local backend (a DagmanScheduler with a "
        "RetryPolicy over a LocalEnvironment)",
    "repro.resilience.retry:FixedDelayRetry.__init__":
        "repro-run --retry-policy fixed",
    "repro.resilience.retry:FixedDelayRetry.delay_s":
        "repro-run --retry-policy fixed",
    "repro.lint.feasibility:_synthesize":
        "the fail-open pool of a catalog site with no simulator model",
    "repro.core.cache:database_digest":
        "BLASTX batch caching: the Fig. 1 pipeline with PipelineConfig.cache",
    "repro.core.cache:blastx_batch_key":
        "BLASTX batch caching: the Fig. 1 pipeline with PipelineConfig.cache",
    "repro.sim.matchmaker:Matchmaker._matchable_scan":
        "the index's fallback for an ad it cannot key (unhashable attributes, "
        "requirements on speed)",
    "repro.dagman.condor:_Missing.__bool__":
        "ClassAd UNDEFINED: a requirement naming an attribute the ad lacks",
    "repro.dagman.condor:_Missing.__eq__":
        "ClassAd UNDEFINED: a requirement naming an attribute the ad lacks",
    "repro.dagman.condor:_Missing.__lt__":
        "ClassAd UNDEFINED: a requirement naming an attribute the ad lacks",
    "repro.resilience.recovery:RecoveryResult.rescue_paths":
        "repro-run's unrecovered line names the rescue files: a workflow "
        "still failed after its last rescue round",
    # Refusal paths.
    "repro.wms.planner:LintFailure.__init__":
        "refusal: plan() on a workflow the preflight finds an ERROR in",
    "repro.wms.dax:ADag._not_xml": "refusal: a DAX file that is not XML",
    "repro.dagman.dag:CycleError.__init__": "refusal: a cyclic DAG",
    "repro.resilience.faults:AttemptFault.__post_init__":
        "refusal: a fault with no attempts to hit",
    "repro.resilience.faults:Hang.__post_init__": "refusal: a bad hang fault",
    "repro.resilience.faults:Slowdown.__post_init__":
        "refusal: a bad slowdown fault",
    # Seams and protocol members.
    "repro.resilience.faults:FaultInjector.wrap_local":
        "local-backend chaos: TestCrossBackend holds the local backend and the "
        "simulators to one event stream through it",
    "repro.resilience.faults:ChaosPayload.__call__":
        "local-backend chaos: TestCrossBackend holds the local backend and the "
        "simulators to one event stream through it",
    "repro.service.service:_Gate.run_until_complete":
        "ExecutionEnvironment member; the service drives the shared platform "
        "itself",
    "repro.sim.matchmaker:Matchmaker.may_accept":
        "the base's answer (always maybe) for a matchmaker without an index; "
        "the linear oracle inherits it",
    # Read by tests to check other behaviour: a smaller surface would
    # move the same reads into every test that makes them.
    "repro.bio.alignment:global_align":
        "the global view of the one DP kernel; the alignment tests hold its "
        "properties through it",
    "repro.bio.matrices:ScoringMatrix.score": "tests read one matrix entry",
    "repro.bio.seq:is_dna": "tests check generated transcripts are DNA",
    "repro.blast.extend:UngappedHSP.length": "tests read an HSP's length",
    "repro.blast.tabular:TabularHit.is_minus_frame":
        "tests read which strand a hit is on",
    "repro.core.cache:CacheStats.hit_rate": "tests read a cache's hit rate",
    "repro.core.cache:CacheStats.lookups": "tests read a cache's lookups",
    "repro.dagman.condor:ClassAd.get": "tests read an ad's attributes",
    "repro.dagman.events:ResourceProfile.cpu_s":
        "tests read a profile's CPU seconds",
    "repro.dagman.events:ResourceProfile.cpu_utilization":
        "tests read a profile's CPU share",
    "repro.dagman.scheduler:DagmanScheduler.attempt_number":
        "tests check a resume restores the attempt counters",
    "repro.datagen.transcripts:Transcriptome.cluster_sizes":
        "tests read the generated cluster sizes",
    "repro.lint.dataflow:availability_fixpoint":
        "the property tests hold the fixpoint to a BFS oracle through it",
    "repro.lint.dataflow:reachable_jobs":
        "the property tests hold the fixpoint to a BFS oracle through it",
    "repro.lint.findings:Report.by_rule": "tests read one rule's findings",
    "repro.observe.bus:EventRecorder.sequence":
        "tests compare runs across backends as (kind, job) pairs",
    "repro.observe.sampler:UtilizationSampler.stop": "tests stop a sampler",
    "repro.perfmodel.calibration:CalibrationAnchors.reduction":
        "tests read the paper's reduction anchor",
    "repro.service.service:WorkflowHandle.turnaround_s":
        "tests read a workflow's turnaround",
    "repro.service.service:WorkflowService.account": "tests read a tenant's account",
    "repro.service.service:WorkflowService.in_flight":
        "tests check the in-flight cap",
    "repro.service.service:WorkflowService.parked_jobs":
        "tests check the queue drains",
    "repro.sim.cloud:CloudPlatform.reclaim_count": "tests read the reclaims",
    "repro.sim.cloud:CloudPlatform.running_instances":
        "tests read the running instances",
    "repro.sim.cluster:CampusCluster.busy_slots": "tests read the busy slots",
    "repro.sim.grid:OpportunisticGrid.occupied_slots":
        "tests read the occupied slots",
    "repro.sim.engine:Simulator.step":
        "run(until=, max_events=)'s bounded loop: tests stop the clock mid-run",
    "repro.wms.catalogs:ReplicaCatalog.lookup": "tests read a file's replicas",
    "repro.wms.dax:ADag.add_dependency":
        "the DAX builder's control edge (parsing fills the same set); the DAX "
        "rule and printer tests build with it",
    "repro.wms.planner:PlannedWorkflow.auxiliary_jobs":
        "tests read the jobs the planner added",
    "repro.wms.provenance:ProvenanceDB.producer": "tests read a file's producer",
}

#: A CI step whose script contains the key is not a root, for the reason given.
NOT_RUN = {
    "pip install": "installs the package",
    "python -m pytest -x -q": "the tests: what this guard looks past",
    "ruff check": "static analysis",
    "mypy": "static analysis",
    "git ls-files": "runs no Python",
    "python -m pytest benchmarks/": "the benchmarks root runs every bench",
    "benchmarks/budget/selftest.py": "gates.py runs the same six workloads, and "
    "the other roots reach every function this step reaches",
    "python tests/test_func_reach.py": "this guard",
}

HOOK = """\
import os
import sys
import threading


def _install(path, prefix):
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code not in seen:
                seen.add(code)
                name = code.co_filename
                if name.startswith(prefix):
                    os.write(fd, f"{{name[len(prefix):]}}\\t"
                                 f"{{code.co_firstlineno}}\\n".encode())

    sys.setprofile(hook)
    threading.setprofile(hook)


_install({path!r}, {prefix!r})
"""


def functions(src: Path) -> dict[tuple[str, int], str]:
    """``(file relative to src, first line) -> "module:qualname"`` for
    every function at module level or in a class body under ``src``."""
    found = {}
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src)
        parts = rel.with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)

        def visit(body: list[ast.stmt], prefix: str) -> None:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if _declares_only(node):
                        continue
                    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                    found[(rel.as_posix(), first)] = f"{module}:{prefix}{node.name}"
                elif isinstance(node, ast.ClassDef):
                    visit(node.body, f"{prefix}{node.name}.")
                else:
                    for field in ("body", "orelse", "finalbody", "handlers"):
                        visit(getattr(node, field, []), prefix)

        visit(ast.parse(path.read_text()).body, "")
    return found


def _declares_only(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """An interface stub: docstring, ``...``, ``pass`` or ``raise
    NotImplementedError`` and nothing else."""
    body = node.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:] or [ast.Pass()]
    if len(body) != 1:
        return False
    (stmt,) = body
    if isinstance(stmt, ast.Raise):
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return isinstance(stmt, ast.Pass) or (
        isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
        and stmt.value.value is Ellipsis)


def ran(record: Path) -> set[tuple[str, int]]:
    """The keys the hook wrote to ``record``."""
    keys = set()
    for line in record.read_text().splitlines():
        rel, first = line.split("\t")
        keys.add((rel, int(first)))
    return keys


def unreached(src: Path, record: Path) -> list[str]:
    """``module:qualname`` of each function under ``src`` the record
    does not name."""
    seen = ran(record)
    return sorted(name for key, name in functions(src).items() if key not in seen)


def install_hook(directory: Path, record: Path, src: Path) -> None:
    (directory / "sitecustomize.py").write_text(
        HOOK.format(path=str(record), prefix=f"{src}{os.sep}"))


@dataclass
class Root:
    """One command a root runs, and what counts as it working."""

    name: str
    argv: list[str]
    ok: Callable[[int, str], bool] = lambda code, out: code == 0


def _gates_table(code: int, out: str) -> bool:
    """``gates.py`` times shares in-process, and the hook slows what they
    time, so its share rows may fail; it worked when every row carries a
    measured number and the summary line is printed."""
    rows = re.findall(r" (\S+) (?:==|<=) +\S+  (?:ok|FAIL) ", out)
    total = re.search(r"^\d+ of (\d+) gates hold$", out, re.M)
    return (total is not None and len(rows) == int(total.group(1))
            and all(re.fullmatch(r"-?[\d.]+", value) for value in rows))


def lanes(tree: Path) -> list[list[Root]]:
    """The roots in two lanes that run side by side; each lane in order."""
    from tests.test_flag_reach import ci_scripts

    python = sys.executable
    first = [Root(f"examples/{p.name}", [python, f"examples/{p.name}"])
             for p in sorted((tree / "examples").glob("*.py"))]
    second = [Root("pytest benchmarks",
                   [python, "-m", "pytest", "benchmarks", "--benchmark-disable"])]
    for script in ci_scripts():
        if any(key in script for key in NOT_RUN):
            continue
        root = Root(f"ci: {script.splitlines()[0][:60]}",
                    ["bash", "-eo", "pipefail", "-c", script])
        if "benchmarks/gates.py" in script:
            root.ok = _gates_table
            first.append(root)
        else:
            second.append(root)
    second.append(Root("README commands",
                       [python, "-m", "pytest", "tests/test_readme_commands.py",
                        "-k", "every_readme_command"]))
    return [first, second]


def _shims(directory: Path) -> None:
    """An executable per console script, as ``pip install`` makes."""
    from tests.test_readme_commands import scripts

    for command, target in scripts().items():
        module, function = target.split(":")
        shim = directory / command
        shim.write_text(
            f"#!/bin/sh\nexec {shlex.quote(sys.executable)} -c 'import sys; "
            f"from {module} import {function}; "
            f"sys.exit({function}(sys.argv[1:]))' \"$@\"\n")
        shim.chmod(0o755)


def run_lanes(tree: Path, work: Path, record: Path) -> list[str]:
    """Run every lane under the hook; the names of the roots that failed."""
    hook = work / "hook"
    bin_ = work / "bin"
    hook.mkdir()
    bin_.mkdir()
    install_hook(hook, record, tree / "src")
    _shims(bin_)
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join([str(tree / "src"), str(hook)])
    env["PATH"] = os.pathsep.join([str(bin_), env.get("PATH", "")])

    def lane(roots: list[Root]) -> list[str]:
        failed = []
        for root in roots:
            start = time.perf_counter()
            done = subprocess.run(root.argv, cwd=tree, env=env, text=True,
                                  stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
            ok = root.ok(done.returncode, done.stdout)
            print(f"{time.perf_counter() - start:6.1f} s  "
                  f"{'ok  ' if ok else 'FAIL'}  {root.name}", flush=True)
            if not ok:
                print(done.stdout[-3000:], flush=True)
                failed.append(root.name)
        return failed

    with ThreadPoolExecutor(2) as pool:
        return [name for failed in pool.map(lane, lanes(tree)) for name in failed]


# -- the guard's own checks (tier-1; they run no root) ---------------------

_PLANTED = """\
import os
import signal
from concurrent.futures import ProcessPoolExecutor


def used():
    return 1


def planted():
    return 2


def declared():
    \"\"\"An interface: never counted.\"\"\"
    raise NotImplementedError


def in_worker():
    return 3


def before_the_kill():
    return 4


class Shape:
    @staticmethod
    def area():
        def nested():
            return 5
        return 6

    def never(self):
        return 7


def main():
    used()
    Shape.area()
    with ProcessPoolExecutor(1) as pool:
        pool.submit(in_worker).result()


def die():
    before_the_kill()
    os.kill(os.getpid(), signal.SIGKILL)
"""


def test_a_planted_function_is_named(tmp_path):
    src, hook = tmp_path / "src", tmp_path / "hook"
    (src / "pkg").mkdir(parents=True)
    hook.mkdir()
    (src / "pkg" / "__init__.py").write_text("")
    (src / "pkg" / "mod.py").write_text(_PLANTED)
    record = tmp_path / "ran.txt"
    install_hook(hook, record, src)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(hook)])}
    for call, code in (("main", 0), ("die", -9)):
        done = subprocess.run(
            [sys.executable, "-c", f"import pkg.mod; pkg.mod.{call}()"],
            env=env, capture_output=True, text=True)
        assert done.returncode == code, done.stderr
    # What ran in the pool's worker and before the SIGKILL counts, the
    # decorated Shape.area is found by its decorator's line, and neither
    # the stub nor the nested function is a candidate.
    assert unreached(src, record) == ["pkg.mod:Shape.never", "pkg.mod:planted"]


def test_every_allowed_row_names_a_function():
    names = set(functions(ROOT / "src").values())
    assert sorted(ALLOWED.keys() - names) == []


def test_every_allowed_row_says_why():
    assert all(reason.strip() for reason in ALLOWED.values())


def test_a_module_allowed_whole_is_not_listed_again():
    from tests.test_src_reach import ALLOWED as ALLOWED_MODULES

    assert not [name for name in ALLOWED
                if name.split(":")[0] in ALLOWED_MODULES]


def test_every_skipped_ci_step_exists_and_says_why():
    from tests.test_flag_reach import ci_scripts

    scripts = ci_scripts()
    assert all(any(key in script for script in scripts) for key in NOT_RUN)
    assert all(reason.strip() for reason in NOT_RUN.values())
    assert any(root.ok is _gates_table for root in lanes(ROOT)[0])


def main() -> int:
    from tests.test_src_reach import ALLOWED as ALLOWED_MODULES

    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="func-reach-") as tmp:
        work = Path(tmp)
        tree = work / "tree"
        # What the roots leave behind stays behind: a crash smoke's
        # journal left in the tree would make the next one refuse to open.
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".benchmarks", "out",
            "crash_smoke"))
        record = work / "ran.txt"
        record.touch()
        failed = run_lanes(tree, work, record)
        never = set(unreached(tree / "src", record))
    missing = sorted(
        name for name in never - ALLOWED.keys()
        if name.split(":")[0] not in ALLOWED_MODULES)
    allowed_ran = sorted(ALLOWED.keys() - never)
    print(f"{time.perf_counter() - start:.0f} s in all")
    for name in failed:
        print(f"root failed: {name}")
    for name in allowed_ran:
        print(f"allowed, yet ran this time: {name}")
    if missing:
        print("no root runs:\n" + "\n".join(missing))
    return 1 if failed or missing else 0


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    sys.exit(main())
