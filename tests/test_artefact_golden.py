"""Golden artefacts: every file ``repro-plan`` + ``repro-run`` leave in
a submit directory, pinned byte for byte *across commits*.

``test_platform_golden.py`` hashes each event through
``json.dumps(..., sort_keys=True)``, so it cannot see the key *order*
of a log line, the separators, or anything an exporter does after the
bus. This table is one sha256 per file, so a change to a codec, a
reader or an exporter that moves a single byte of ``events.jsonl``,
``trace.jsonl``, the three trace exports, ``utilization.tsv``,
``metrics.json``, the plan files or ``report.json`` (what ``repro-report
analyze submit --json report.json`` writes once the runs are over)
shows here.

The runs use relative paths from a scratch working directory because
``events.jsonl`` records the rescue file's path as given. The journal
directory is in too: the log ``wal.jsonl`` and ``snapshot.json`` with
the manager's pid masked (and, on the lines that carry it, the CRC
taken over it, and the snapshot's byte offset into the log, which the
pid's digits move). The ``osg-crash`` row stops at the injected crash,
with a snapshot and the log running on past it into a torn record (the
record before it is a failed attempt whose retry decision is lost).
``osg-crash-resume`` continues that directory with ``--resume``.

The scheduler of these runs is untagged, so ``events.jsonl`` holds no
state change that a ``job.submit``, a terminal record, a ``job.retry``
or a ``job.held`` already states. ``EXPANDED`` pins each log decoded,
with those state changes put back (``tests/oracles/implied_transitions.py``),
and printed again: the digests of the logs written before the
scheduler stopped emitting them.

Output may vary with the seed and nothing else.
``test_hash_seed_moves_no_byte`` runs every scenario in two child
interpreters side by side, under ``PYTHONHASHSEED`` 0 and 1, and holds
both digest tables equal to each other and to ``GOLDEN``. Each child
also runs ``sandhills`` a second time, uncached, in the same process
(state leaked from one run into the next), and the seed-1 child first
draws from the global ``random`` and drains three decoy ``RngStreams``
(a simulator drawing from anything but its own named streams). On a
copy of the tree it failed on each of two planted mutants:
``MakespanAttribution.ranked()`` breaking ties through a ``set`` moves
the sandhills ``report.json``, and the Chrome writer iterating
``set(trace.by_job())`` moves three osg ``trace.chrome.json`` files.
(The in-process rows catch them under most hash seeds, not all: the
first passed them under ``PYTHONHASHSEED=5``.) It cannot see a
tie-break that follows the hash seed only on ties these runs lack —
``critical_path`` taking ``max`` over tied parents passes it;
``TestCriticalPathTies`` in ``tests/test_statistics_extras.py`` holds
that one.

Every JSON file of a scenario's submit directory is also held to one
spelling, the compact one (``test_every_json_file_is_compact``): each
file, or each line of a JSONL file, equals its own ``compact_json``
re-encoding, so no writer can fall back to another layout unseen.

Regenerate (after convincing yourself the move is intended) with
``PYTHONPATH=src:. python tests/test_artefact_golden.py``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import repro
from repro.observe.log import compact_json, event_to_json_line, read_events
from repro.observe.report import main as report_main
from repro.wms.cli import main_plan, main_run
from tests.oracles.implied_transitions import expand

_CHAOS = (
    "--chaos-start-failure", "0.2",
    "--retry-policy", "backoff",
    "--blacklist-threshold", "2",
    "--blacklist-cooldown", "600",
    "--max-rescue-rounds", "2",
)

#: scenario -> (site, extra ``repro-run`` arguments, expected exit code)
SCENARIOS: dict[str, tuple[str, tuple[str, ...], int]] = {
    "sandhills": ("sandhills", (), 0),
    # n=12 seed=0 on the grid exhausts one job's retries: a failed run
    # with 24 retries, a rescue file and unrunnable descendants.
    "osg": ("osg", (), 1),
    "osg-chaos-journal": ("osg", (*_CHAOS, "--journal", "journal"), 0),
    "osg-crash": (
        "osg",
        (
            *_CHAOS,
            "--journal", "journal",
            "--journal-snapshot-every", "16",
            "--crash-at-record", "59",
            "--crash-mode", "raise",
        ),
        3,
    ),
    "osg-crash-resume": (
        "osg",
        (*_CHAOS, "--journal-snapshot-every", "16", "--resume", "journal"),
        0,
    ),
}

#: scenario -> the scenario whose directories it continues
AFTER = {"osg-crash-resume": "osg-crash"}

_PID = re.compile(rb'("(?:manager_)?pid": ?|"offset":)\d+')
_PID_CRC = re.compile(
    rb'^\{"crc":"[0-9a-f]{8}"(?=.*"(?:manager_)?pid":)', re.MULTILINE
)


def _is_compact(path: Path) -> bool:
    """Whether a JSON file is its own compact re-encoding — a JSONL file
    line by line, each line ending in a newline — keeping the trailing
    newline its writer writes."""
    text = path.read_text()
    if path.suffix == ".jsonl":
        *lines, tail = text.split("\n")
        return tail == "" and all(line == compact_json(json.loads(line)) for line in lines)
    body = text.removesuffix("\n")
    return body == compact_json(json.loads(body))


def _masked(data: bytes) -> bytes:
    """Journal bytes with the one run-dependent value, the pid, out."""
    return _PID_CRC.sub(b'{"crc":"--------"', _PID.sub(rb"\1N", data))


@functools.lru_cache(maxsize=None)
def _run(scenario: str) -> tuple[int, dict[str, str], str, list[str]]:
    """Exit code of ``repro-run``, sha256 per artefact, the sha256 of
    ``events.jsonl`` decoded, expanded and printed again, and the JSON
    files of the submit directory that are not compact."""
    site = SCENARIOS[scenario][0]
    chain = [scenario]
    while chain[0] in AFTER:
        chain.insert(0, AFTER[chain[0]])
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                assert main_plan(
                    ["--submit-dir", "submit", "-n", "12", "--site", site]
                ) == 0
                for step in chain:
                    code = main_run(
                        ["--submit-dir", "submit", "--seed", "0",
                         *SCENARIOS[step][1]]
                    )
                assert report_main(
                    ["analyze", "submit", "--json", "report.json"]
                ) == 0
            digests = {
                str(p): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(Path("submit").iterdir())
            }
            for p in sorted(Path("journal").glob("*")):
                digests[str(p)] = hashlib.sha256(
                    _masked(p.read_bytes())
                ).hexdigest()
            digests["report.json"] = hashlib.sha256(
                Path("report.json").read_bytes()
            ).hexdigest()
            loose = [
                str(p) for p in sorted(Path("submit").iterdir())
                if p.suffix in (".json", ".jsonl") and not _is_compact(p)
            ]
            expanded = "".join(
                event_to_json_line(e) + "\n"
                for e in expand(read_events("submit/events.jsonl"))
            )
        finally:
            os.chdir(here)
    return code, digests, hashlib.sha256(expanded.encode()).hexdigest(), loose


GOLDEN: dict[tuple[str, str], str] = {
    ('sandhills', 'submit/events.jsonl'): '10b31760a24cd4d95e1913fc4a020f4829098b317e02cdc62cb878bcc3b806d8',
    ('sandhills', 'submit/metrics.json'): 'c278ca33269b6e9c10e586e3e87ba285594da2ebec3c6ef28797e74f5d9131d7',
    ('sandhills', 'submit/plan.json'): 'c94f757c27418fde800ca63e020b1199246a25a9c00b42ef5345c516f74753c5',
    ('sandhills', 'submit/trace.chrome.json'): 'b78d1fdd48c05ddd78a747fb689aadedcf48041ec0d0a251d57d76903c1b8775',
    ('sandhills', 'submit/trace.jsonl'): '2d7782360fe406114070ed43eee71a17bcd5caca9f23636f85c146480ef05a62',
    ('sandhills', 'submit/trace.otlp.json'): 'f9fda97b7fbd35091d52ed61be87de2fce7d52dc266f26a7d13b6ba8e5df3d58',
    ('sandhills', 'submit/trace.perfetto.json'): '8450ad6a8788697e5c74ff2a20d8945a35c6701cebebcce0a1053c0eee6f6f0d',
    ('sandhills', 'submit/utilization.tsv'): 'c6a6881c907daacd8442aefd95f57ca93ae7f800c5d1bc0c58847cd34fd97f06',
    ('sandhills', 'submit/workflow.dag'): 'd50107b18ba12b2e203688264480ef5c4319fcacaeb1ebab825b42eb79e6c5d8',
    ('sandhills', 'submit/workflow.dax'): '6b509827e1ac74ea825d920317878e7faccc40b320e88694d0909a419e9341ad',
    ('sandhills', 'report.json'): '4697e5b24761e3f11a3d3fb8afe73daee451f66a163bf5c6ea38ce45bf41e8c9',
    ('osg', 'submit/blast2cap3-n12-osg.rescue001'): '54fa2be8a9128093a008b333e3642f00b5ab6f9d6b09b7048ea36b089ccec9fb',
    ('osg', 'submit/events.jsonl'): 'd52f92b6b8fe1bc841a90a0bb88aaf1e945afdea39ea0c91f516d3aacd0c2cf5',
    ('osg', 'submit/metrics.json'): '8f14ae3ae26a25dd813f1fc3e73cfef0884fd7524ae0602071f3d1a7a816eff7',
    ('osg', 'submit/plan.json'): '495b28396862fdf7a6eab265d42896e0ef012a3d617fdbc9ecfc4716b5ef07b1',
    ('osg', 'submit/trace.chrome.json'): 'ba6336f6bada93c3de0127cb7255d101ce899927bb776f34a74dd03f5146eadb',
    ('osg', 'submit/trace.jsonl'): 'c47279edcd483883051b03eab1fd148749ee1487eb673221769a9e9ba565e45c',
    ('osg', 'submit/trace.otlp.json'): '007b9442512728b6d75bec5ff46ffd2537960aa585a8906a3aa7b849a6ed4741',
    ('osg', 'submit/trace.perfetto.json'): '50c8c0c429a0fece65527491f316b372eac22647347358fa085c505c22f5b2ae',
    ('osg', 'submit/utilization.tsv'): 'abb8648fc16be39e80fb0e983ae3958f7159346967377feee66e40b24a42ad0b',
    ('osg', 'submit/workflow.dag'): '5465a353b30ee2debe56c3a53174008fce43eaea3c19688814a8b4425d9fc5e7',
    ('osg', 'submit/workflow.dax'): '6b509827e1ac74ea825d920317878e7faccc40b320e88694d0909a419e9341ad',
    ('osg', 'report.json'): 'c624884bdce018f8afd3c3da8c2381765553c364e96062fd2cfbf427911d2205',
    ('osg-chaos-journal', 'submit/blast2cap3-n12-osg.rescue001'): '99752d8aad86597d597a19b6b415d55ac48794fa024307b14411b6c40a38af18',
    ('osg-chaos-journal', 'submit/events.jsonl'): '40e6206fb2d521f68ecac4551f04f8d64a8b258fd69cc94c841601ed7fe073f3',
    ('osg-chaos-journal', 'submit/metrics.json'): 'dc8cfc01148fbe66c4c23f3c4f9268103c201d9a5e29b35355e3171b537b9f1e',
    ('osg-chaos-journal', 'submit/plan.json'): '495b28396862fdf7a6eab265d42896e0ef012a3d617fdbc9ecfc4716b5ef07b1',
    ('osg-chaos-journal', 'submit/trace.chrome.json'): '8d2192f3e987e8c58d1d0b6dabbefac68619b7e750f61dba6176c138ea535b18',
    ('osg-chaos-journal', 'submit/trace.jsonl'): '4424e189f0b8713481647514843a0f5026f0de607373321ace65562987d61717',
    ('osg-chaos-journal', 'submit/trace.otlp.json'): '7b9e2d01345be7f058959cf0170c560e7768002236efda3ae3daa39a4d12841a',
    ('osg-chaos-journal', 'submit/trace.perfetto.json'): 'f91494d916ac808e3b9585a9060085e78529c8e9ee3182861b8d30ee57e47180',
    ('osg-chaos-journal', 'submit/utilization.tsv'): '37108affe7103fefc8e7ccb00b35659c758b544168f07c93dc47c9607d069c6e',
    ('osg-chaos-journal', 'submit/workflow.dag'): '5465a353b30ee2debe56c3a53174008fce43eaea3c19688814a8b4425d9fc5e7',
    ('osg-chaos-journal', 'submit/workflow.dax'): '6b509827e1ac74ea825d920317878e7faccc40b320e88694d0909a419e9341ad',
    ('osg-chaos-journal', 'journal/snapshot.json'): '1e8d81993fb40a12f3c7a8b7abe0122381bd7fef2373c8262ac5eff3fdbbb0da',
    ('osg-chaos-journal', 'journal/wal.jsonl'): '46de802709d02e3a22ff3079e729b401657858e1600a1a24ad5fb27929b84c6c',
    ('osg-chaos-journal', 'report.json'): 'a99e84b6bb6f82b682e664d96e0a354804d763700a479cc5198628a888185678',
    ('osg-crash', 'submit/events.jsonl'): 'adb9cc9f9db57beaa9947b414579b175a1a28dd292114fa4e4bc1b09066b86aa',
    ('osg-crash', 'submit/plan.json'): '495b28396862fdf7a6eab265d42896e0ef012a3d617fdbc9ecfc4716b5ef07b1',
    ('osg-crash', 'submit/workflow.dag'): '5465a353b30ee2debe56c3a53174008fce43eaea3c19688814a8b4425d9fc5e7',
    ('osg-crash', 'submit/workflow.dax'): '6b509827e1ac74ea825d920317878e7faccc40b320e88694d0909a419e9341ad',
    ('osg-crash', 'journal/snapshot.json'): 'd156a2fb8de89746b00490a357e968210fed77d0feafdf2f3db71255efb96a71',
    ('osg-crash', 'journal/wal.jsonl'): '0408df44bb03d38145ddcca4843bbfb34f203d2d3696a462eb40e03d9ed197c1',
    ('osg-crash', 'report.json'): '8a766641aec4d6a4d2c826335f6399739884b4ef26dde8aad7c4601a81f216a7',
    ('osg-crash-resume', 'submit/blast2cap3-n12-osg.rescue001'): '68f6ee1fe0d7713b95ab31d6d38c1484a1b0d98e9c96a2f343eee73d64879434',
    ('osg-crash-resume', 'submit/blast2cap3-n12-osg.resume.dag'): '55c00044be9e975fb026e8133dd75cf59e9aa55908313690f405d9582f287224',
    ('osg-crash-resume', 'submit/events.jsonl'): '170159362a116dfcea0dc891a77292989ca82560f54805e269ae4a5ad10ab7eb',
    ('osg-crash-resume', 'submit/metrics.json'): '7ff8a4450de9a945d6fba07f3fc120ac614cb35a493cfbb08a7bf1742631ffd1',
    ('osg-crash-resume', 'submit/plan.json'): '495b28396862fdf7a6eab265d42896e0ef012a3d617fdbc9ecfc4716b5ef07b1',
    ('osg-crash-resume', 'submit/trace.chrome.json'): '1b7cefd2fc6586b48fcdebc7556eaff5908cf745b87c0bcbc1a54e40b4c28210',
    ('osg-crash-resume', 'submit/trace.jsonl'): '790f32def43183e14436d0fb1af11d200c7cf28db1bd285623950caef1c5deff',
    ('osg-crash-resume', 'submit/trace.otlp.json'): '9c81196c6c723e5ee1a4bf09572f4038b67c98d5f4f0a13dd71ae1481e2f53cf',
    ('osg-crash-resume', 'submit/trace.perfetto.json'): '365290551b62740594ec4fbfef085489294cbba2fae8ca966f5b22438bd19ac4',
    ('osg-crash-resume', 'submit/utilization.tsv'): '68e68fa288e8273638b6ebd30b9cb276940059a10db198784fb4134702906b02',
    ('osg-crash-resume', 'submit/workflow.dag'): '5465a353b30ee2debe56c3a53174008fce43eaea3c19688814a8b4425d9fc5e7',
    ('osg-crash-resume', 'submit/workflow.dax'): '6b509827e1ac74ea825d920317878e7faccc40b320e88694d0909a419e9341ad',
    ('osg-crash-resume', 'journal/snapshot.json'): '05c0a2439ac22d129bc2ae6f0127132c7a550de852dd6357afe76108e804ee37',
    ('osg-crash-resume', 'journal/wal.jsonl'): '55a4769965daffcff257ea538ad20d7273c54f30e5c7807dbac3a5e566980c9b',
    ('osg-crash-resume', 'report.json'): 'd4aeee87658b07fd5218be41708a62db48a15be81c9fda256f1e69e3e209e0e5',
}


#: scenario -> sha256 of its ``events.jsonl``, expanded (see above)
EXPANDED: dict[str, str] = {
    'sandhills': 'e08dcd7f96cd49467362c627d89a82663d892d5c19249a3d95efb852d670962e',
    'osg': 'd511d3cb966254a774c5da428fbba9e18e3d034486d96d2863651b47ef577cde',
    'osg-chaos-journal': '9e235131635dc9c6a555358fc6ef61d8b6023b374fb479f6d01fbd0e4742ac8f',
    'osg-crash': '4be8bdc1010111f750b5cd06083e283254d46941feb36f5e89b104af71720273',
    'osg-crash-resume': 'ec04da496b5c5fed840d7d2406fbc61e7dd5b0599bedb3f9f60cc9c137f46f6f',
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_exit_code_and_file_set_unchanged(scenario):
    code, digests = _run(scenario)[:2]
    assert code == SCENARIOS[scenario][2]
    assert sorted(digests) == sorted(f for s, f in GOLDEN if s == scenario)


@pytest.mark.parametrize("scenario,name", sorted(GOLDEN))
def test_artefact_bytes_unchanged(scenario, name):
    assert _run(scenario)[1][name] == GOLDEN[(scenario, name)]


@pytest.mark.parametrize("scenario", sorted(EXPANDED))
def test_expanded_event_log_unchanged(scenario):
    assert _run(scenario)[2] == EXPANDED[scenario]


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_every_json_file_is_compact(scenario):
    """One JSON spelling in the submit directory: the compact one the
    event log and the journal use."""
    assert _run(scenario)[3] == []


#: What a child prints: ``"scenario file" -> sha256`` for every scenario,
#: then for ``sandhills`` run once more, uncached. ``perturbed`` first
#: draws from the global ``random`` and drains three decoy streams.
_CHILD = """
import json, random, sys
from repro.sim.rng import RngStreams
from tests.test_artefact_golden import SCENARIOS, _run
if sys.argv[1] == "perturbed":
    random.seed(0xBAD5EED)
    random.random()
    decoys = RngStreams(0)
    for name in ("decoy-a", "decoy-b", "decoy-c"):
        decoys.stream(name).random()
table = {f"{s} {n}": d for s in SCENARIOS for n, d in _run(s)[1].items()}
again = {f"sandhills {n}": d for n, d in _run.__wrapped__("sandhills")[1].items()}
print(json.dumps([table, again]))
"""


def _differ(a: dict[str, str], b: dict[str, str]) -> list[str]:
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def test_hash_seed_moves_no_byte():
    src = Path(repro.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(src.parent)])}
    children = [
        subprocess.Popen(
            [sys.executable, "-c", _CHILD, leg],
            env={**env, "PYTHONHASHSEED": str(hash_seed)}, cwd=src.parent,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for hash_seed, leg in ((0, "plain"), (1, "perturbed"))
    ]
    tables = []
    try:
        for child in children:
            stdout, stderr = child.communicate(timeout=300)
            assert child.returncode == 0, stderr
            table, again = json.loads(stdout)
            rerun = {k: v for k, v in table.items() if k.startswith("sandhills ")}
            assert _differ(rerun, again) == [], "a second run in one process"
            tables.append(table)
    finally:
        for child in children:
            child.kill()
            child.wait()
    assert _differ(*tables) == [], "PYTHONHASHSEED 0 and 1"
    golden = {f"{s} {n}": d for (s, n), d in GOLDEN.items()}
    assert _differ(tables[0], golden) == [], "GOLDEN"


if __name__ == "__main__":  # regenerate both tables
    for scenario in SCENARIOS:
        for name, digest in _run(scenario)[1].items():
            print(f"    {(scenario, name)!r}: {digest!r},")
    print()
    for scenario in SCENARIOS:
        print(f"    {scenario!r}: {_run(scenario)[2]!r},")
