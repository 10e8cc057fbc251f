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
from repro.observe.log import event_to_json_line, read_events
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


def _masked(data: bytes) -> bytes:
    """Journal bytes with the one run-dependent value, the pid, out."""
    return _PID_CRC.sub(b'{"crc":"--------"', _PID.sub(rb"\1N", data))


@functools.lru_cache(maxsize=None)
def _run(scenario: str) -> tuple[int, dict[str, str], str]:
    """Exit code of ``repro-run``, sha256 per artefact, and the sha256 of
    ``events.jsonl`` decoded, expanded and printed again."""
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
            expanded = "".join(
                event_to_json_line(e) + "\n"
                for e in expand(read_events("submit/events.jsonl"))
            )
        finally:
            os.chdir(here)
    return code, digests, hashlib.sha256(expanded.encode()).hexdigest()


GOLDEN: dict[tuple[str, str], str] = {
    ('sandhills', 'submit/events.jsonl'): '10b31760a24cd4d95e1913fc4a020f4829098b317e02cdc62cb878bcc3b806d8',
    ('sandhills', 'submit/metrics.json'): '1ab06fcc412d4027b49d1f7c0b75e434cf7f536448ad67c0427df8ed493194dd',
    ('sandhills', 'submit/plan.json'): '4cb5319b2854feb02fae7f9b5feb2f6fe9a01515460c4197d41811a811170b0a',
    ('sandhills', 'submit/trace.chrome.json'): 'c78f650c91ab6bfd7fc6760b4877ba819d03032f57a4c6428b3db827350796e5',
    ('sandhills', 'submit/trace.jsonl'): 'e86868f1a8ee8033a4bcb7c017f0c5a79109622b8c5fb81f37c918be7cd772df',
    ('sandhills', 'submit/trace.otlp.json'): '1ecbd69645e6d8eff151edff5793e51670491f1524ab489ba27577d9adac4deb',
    ('sandhills', 'submit/trace.perfetto.json'): '73b93fa9654f3fea669120e3275de4b7733a19da7d0e929a6a3cea34aaa55e76',
    ('sandhills', 'submit/utilization.tsv'): 'c6a6881c907daacd8442aefd95f57ca93ae7f800c5d1bc0c58847cd34fd97f06',
    ('sandhills', 'submit/workflow.dag'): 'd50107b18ba12b2e203688264480ef5c4319fcacaeb1ebab825b42eb79e6c5d8',
    ('sandhills', 'submit/workflow.dax'): '6b509827e1ac74ea825d920317878e7faccc40b320e88694d0909a419e9341ad',
    ('sandhills', 'report.json'): '4697e5b24761e3f11a3d3fb8afe73daee451f66a163bf5c6ea38ce45bf41e8c9',
    ('osg', 'submit/blast2cap3-n12-osg.rescue001'): '54fa2be8a9128093a008b333e3642f00b5ab6f9d6b09b7048ea36b089ccec9fb',
    ('osg', 'submit/events.jsonl'): 'd52f92b6b8fe1bc841a90a0bb88aaf1e945afdea39ea0c91f516d3aacd0c2cf5',
    ('osg', 'submit/metrics.json'): '65ad4c98e0d74df29bfbf8e1444be56456d6269c3c9365ab3a0a5b85122ecfeb',
    ('osg', 'submit/plan.json'): 'fd723cb9087cf3d88c8ddef098c8883d55f897ae9a6ee2cdacf5d3bc78b421ec',
    ('osg', 'submit/trace.chrome.json'): '80c6523b86974f76ac2e891e2110e0528f0e1422cd3d60619186333e880d0be9',
    ('osg', 'submit/trace.jsonl'): '4effe2a8b53d14369882a56bca75995632e9035ffe003fd9539e487b08d25448',
    ('osg', 'submit/trace.otlp.json'): '86eb9f28790554d3f649201940ec760432d2fe02696e45aa5900b713647781fe',
    ('osg', 'submit/trace.perfetto.json'): '5eb21cd46fa13eba3efb1e72ee021a176aed7005e2d1d3718a5e659f1dea549b',
    ('osg', 'submit/utilization.tsv'): 'abb8648fc16be39e80fb0e983ae3958f7159346967377feee66e40b24a42ad0b',
    ('osg', 'submit/workflow.dag'): '5465a353b30ee2debe56c3a53174008fce43eaea3c19688814a8b4425d9fc5e7',
    ('osg', 'submit/workflow.dax'): '6b509827e1ac74ea825d920317878e7faccc40b320e88694d0909a419e9341ad',
    ('osg', 'report.json'): 'c624884bdce018f8afd3c3da8c2381765553c364e96062fd2cfbf427911d2205',
    ('osg-chaos-journal', 'submit/blast2cap3-n12-osg.rescue001'): '99752d8aad86597d597a19b6b415d55ac48794fa024307b14411b6c40a38af18',
    ('osg-chaos-journal', 'submit/events.jsonl'): '40e6206fb2d521f68ecac4551f04f8d64a8b258fd69cc94c841601ed7fe073f3',
    ('osg-chaos-journal', 'submit/metrics.json'): 'f9147feb9f328cfe888c4f1063371b8e55dc62c1e15bc8bad6195f3e989f8407',
    ('osg-chaos-journal', 'submit/plan.json'): 'fd723cb9087cf3d88c8ddef098c8883d55f897ae9a6ee2cdacf5d3bc78b421ec',
    ('osg-chaos-journal', 'submit/trace.chrome.json'): '2f378c86e61573db8fa2bd67b7ce9d609ab1bde58cb2201d37cdd1b35a228e4f',
    ('osg-chaos-journal', 'submit/trace.jsonl'): '9175b3b160724f70a2cf1f2cdac2bfde3e351068ed1ff528e953304b50fc9185',
    ('osg-chaos-journal', 'submit/trace.otlp.json'): '28952eb2acadfbab27acfd54a79e0aba54e1050de63eef3a0593626a77c80aa1',
    ('osg-chaos-journal', 'submit/trace.perfetto.json'): 'e03893d543787505cb080a88b9740b4cc46b056a5d3b872c9793438860f20b7d',
    ('osg-chaos-journal', 'submit/utilization.tsv'): '37108affe7103fefc8e7ccb00b35659c758b544168f07c93dc47c9607d069c6e',
    ('osg-chaos-journal', 'submit/workflow.dag'): '5465a353b30ee2debe56c3a53174008fce43eaea3c19688814a8b4425d9fc5e7',
    ('osg-chaos-journal', 'submit/workflow.dax'): '6b509827e1ac74ea825d920317878e7faccc40b320e88694d0909a419e9341ad',
    ('osg-chaos-journal', 'journal/snapshot.json'): '1e8d81993fb40a12f3c7a8b7abe0122381bd7fef2373c8262ac5eff3fdbbb0da',
    ('osg-chaos-journal', 'journal/wal.jsonl'): '46de802709d02e3a22ff3079e729b401657858e1600a1a24ad5fb27929b84c6c',
    ('osg-chaos-journal', 'report.json'): 'a99e84b6bb6f82b682e664d96e0a354804d763700a479cc5198628a888185678',
    ('osg-crash', 'submit/events.jsonl'): 'adb9cc9f9db57beaa9947b414579b175a1a28dd292114fa4e4bc1b09066b86aa',
    ('osg-crash', 'submit/plan.json'): 'fd723cb9087cf3d88c8ddef098c8883d55f897ae9a6ee2cdacf5d3bc78b421ec',
    ('osg-crash', 'submit/workflow.dag'): '5465a353b30ee2debe56c3a53174008fce43eaea3c19688814a8b4425d9fc5e7',
    ('osg-crash', 'submit/workflow.dax'): '6b509827e1ac74ea825d920317878e7faccc40b320e88694d0909a419e9341ad',
    ('osg-crash', 'journal/snapshot.json'): 'd156a2fb8de89746b00490a357e968210fed77d0feafdf2f3db71255efb96a71',
    ('osg-crash', 'journal/wal.jsonl'): '0408df44bb03d38145ddcca4843bbfb34f203d2d3696a462eb40e03d9ed197c1',
    ('osg-crash', 'report.json'): '8a766641aec4d6a4d2c826335f6399739884b4ef26dde8aad7c4601a81f216a7',
    ('osg-crash-resume', 'submit/blast2cap3-n12-osg.rescue001'): '68f6ee1fe0d7713b95ab31d6d38c1484a1b0d98e9c96a2f343eee73d64879434',
    ('osg-crash-resume', 'submit/blast2cap3-n12-osg.resume.dag'): '55c00044be9e975fb026e8133dd75cf59e9aa55908313690f405d9582f287224',
    ('osg-crash-resume', 'submit/events.jsonl'): '170159362a116dfcea0dc891a77292989ca82560f54805e269ae4a5ad10ab7eb',
    ('osg-crash-resume', 'submit/metrics.json'): '2df1655647c7ae2bf2a94365d71c5cee6a336f06765ea56d89a6789aa488db36',
    ('osg-crash-resume', 'submit/plan.json'): 'fd723cb9087cf3d88c8ddef098c8883d55f897ae9a6ee2cdacf5d3bc78b421ec',
    ('osg-crash-resume', 'submit/trace.chrome.json'): '9d2a250c508b67cd8345d4ddcc6a04dce244703537f0c7a37c0e916ca1f2883e',
    ('osg-crash-resume', 'submit/trace.jsonl'): 'a068a19cfeb2f80c31cd58b561f027333e91ec6d08fb972b9b099188b22613ec',
    ('osg-crash-resume', 'submit/trace.otlp.json'): 'c89f85a93df2d67b748d5569563e1550743bf4e850286e9fe60697330da4e4d6',
    ('osg-crash-resume', 'submit/trace.perfetto.json'): '97cb88a4f15a942569e7c3649c6938d8e3e97348fea4847e6bb387a3780cd7c2',
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
    code, digests, _ = _run(scenario)
    assert code == SCENARIOS[scenario][2]
    assert sorted(digests) == sorted(f for s, f in GOLDEN if s == scenario)


@pytest.mark.parametrize("scenario,name", sorted(GOLDEN))
def test_artefact_bytes_unchanged(scenario, name):
    assert _run(scenario)[1][name] == GOLDEN[(scenario, name)]


@pytest.mark.parametrize("scenario", sorted(EXPANDED))
def test_expanded_event_log_unchanged(scenario):
    assert _run(scenario)[2] == EXPANDED[scenario]


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
