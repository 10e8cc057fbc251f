"""Golden artefacts: every file ``repro-plan`` + ``repro-run`` leave in
a submit directory, pinned byte for byte *across commits*.

``test_platform_golden.py`` hashes each event through
``json.dumps(..., sort_keys=True)``, so it cannot see the key *order*
of a log line, the separators, or anything an exporter does after the
bus. This table is one sha256 per file, so a change to a codec, a
reader or an exporter that moves a single byte of ``events.jsonl``,
``trace.jsonl``, the three trace exports, ``utilization.tsv``,
``metrics.json`` or the plan files shows here.

The runs use relative paths from a scratch working directory because
``events.jsonl`` records the rescue file's path as given. The journal
directory is in too: the ``records.jsonl`` sidecar verbatim, the WAL
segments and ``snapshot.json`` with the manager's pid masked (and, on
the ``journal/open`` lines that carry it, the CRC taken over it). A
clean ``close()`` compacts the WAL down to one header line, so the
``osg-crash`` row is what pins record framing: it stops at the injected
crash, with a snapshot, a sidecar and a WAL suffix ending in a torn
record (the record before it is a failed attempt whose retry decision
is lost). ``osg-crash-resume`` continues that directory with
``--resume``.

Regenerate (after convincing yourself the move is intended) with
``PYTHONPATH=src python tests/test_artefact_golden.py``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import os
import re
import tempfile
from pathlib import Path

import pytest

from repro.wms.cli import main_plan, main_run

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

_PID = re.compile(rb'("(?:manager_)?pid": ?)\d+')
_OPEN_CRC = re.compile(
    rb'^\{"crc":"[0-9a-f]{8}"(?=.*"event":"journal/open")', re.MULTILINE
)


def _masked(data: bytes) -> bytes:
    """Journal bytes with the one run-dependent value, the pid, out."""
    return _OPEN_CRC.sub(b'{"crc":"--------"', _PID.sub(rb"\1N", data))


@functools.lru_cache(maxsize=None)
def _run(scenario: str) -> tuple[int, dict[str, str]]:
    """Exit code of ``repro-run`` and sha256 per artefact."""
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
            digests = {
                str(p): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(Path("submit").iterdir())
            }
            for p in sorted(Path("journal").glob("*")):
                digests[str(p)] = hashlib.sha256(
                    _masked(p.read_bytes())
                ).hexdigest()
        finally:
            os.chdir(here)
    return code, digests


GOLDEN: dict[tuple[str, str], str] = {
    ('sandhills', 'submit/events.jsonl'): 'e08dcd7f96cd49467362c627d89a82663d892d5c19249a3d95efb852d670962e',
    ('sandhills', 'submit/metrics.json'): '90e749ce889e7e4e746083437d7297813096323628e4bb7fcf06b7760158129c',
    ('sandhills', 'submit/plan.json'): '4cb5319b2854feb02fae7f9b5feb2f6fe9a01515460c4197d41811a811170b0a',
    ('sandhills', 'submit/trace.chrome.json'): 'c78f650c91ab6bfd7fc6760b4877ba819d03032f57a4c6428b3db827350796e5',
    ('sandhills', 'submit/trace.jsonl'): 'e86868f1a8ee8033a4bcb7c017f0c5a79109622b8c5fb81f37c918be7cd772df',
    ('sandhills', 'submit/trace.otlp.json'): '1ecbd69645e6d8eff151edff5793e51670491f1524ab489ba27577d9adac4deb',
    ('sandhills', 'submit/trace.perfetto.json'): '73b93fa9654f3fea669120e3275de4b7733a19da7d0e929a6a3cea34aaa55e76',
    ('sandhills', 'submit/utilization.tsv'): 'c6a6881c907daacd8442aefd95f57ca93ae7f800c5d1bc0c58847cd34fd97f06',
    ('sandhills', 'submit/workflow.dag'): 'd50107b18ba12b2e203688264480ef5c4319fcacaeb1ebab825b42eb79e6c5d8',
    ('sandhills', 'submit/workflow.dax'): '6b509827e1ac74ea825d920317878e7faccc40b320e88694d0909a419e9341ad',
    ('osg', 'submit/blast2cap3-n12-osg.rescue001'): '54fa2be8a9128093a008b333e3642f00b5ab6f9d6b09b7048ea36b089ccec9fb',
    ('osg', 'submit/events.jsonl'): 'd511d3cb966254a774c5da428fbba9e18e3d034486d96d2863651b47ef577cde',
    ('osg', 'submit/metrics.json'): '5eb789648b512e9707ac2538b5f45b4592ef054f55365cad210397d8f74de95c',
    ('osg', 'submit/plan.json'): 'fd723cb9087cf3d88c8ddef098c8883d55f897ae9a6ee2cdacf5d3bc78b421ec',
    ('osg', 'submit/trace.chrome.json'): '80c6523b86974f76ac2e891e2110e0528f0e1422cd3d60619186333e880d0be9',
    ('osg', 'submit/trace.jsonl'): '4effe2a8b53d14369882a56bca75995632e9035ffe003fd9539e487b08d25448',
    ('osg', 'submit/trace.otlp.json'): '86eb9f28790554d3f649201940ec760432d2fe02696e45aa5900b713647781fe',
    ('osg', 'submit/trace.perfetto.json'): '5eb21cd46fa13eba3efb1e72ee021a176aed7005e2d1d3718a5e659f1dea549b',
    ('osg', 'submit/utilization.tsv'): 'abb8648fc16be39e80fb0e983ae3958f7159346967377feee66e40b24a42ad0b',
    ('osg', 'submit/workflow.dag'): '5465a353b30ee2debe56c3a53174008fce43eaea3c19688814a8b4425d9fc5e7',
    ('osg', 'submit/workflow.dax'): '6b509827e1ac74ea825d920317878e7faccc40b320e88694d0909a419e9341ad',
    ('osg-chaos-journal', 'submit/blast2cap3-n12-osg.rescue001'): '99752d8aad86597d597a19b6b415d55ac48794fa024307b14411b6c40a38af18',
    ('osg-chaos-journal', 'submit/events.jsonl'): 'fe2d3732889ca32287f8964e7a46f74a4430127179c41b6327f17be95a7babe1',
    ('osg-chaos-journal', 'submit/metrics.json'): 'b4adc37f9f45faf338c8ab718a8466e82fc2a86e02dbe2fb362a8a1ab6827322',
    ('osg-chaos-journal', 'submit/plan.json'): 'fd723cb9087cf3d88c8ddef098c8883d55f897ae9a6ee2cdacf5d3bc78b421ec',
    ('osg-chaos-journal', 'submit/trace.chrome.json'): '2f378c86e61573db8fa2bd67b7ce9d609ab1bde58cb2201d37cdd1b35a228e4f',
    ('osg-chaos-journal', 'submit/trace.jsonl'): '9175b3b160724f70a2cf1f2cdac2bfde3e351068ed1ff528e953304b50fc9185',
    ('osg-chaos-journal', 'submit/trace.otlp.json'): '28952eb2acadfbab27acfd54a79e0aba54e1050de63eef3a0593626a77c80aa1',
    ('osg-chaos-journal', 'submit/trace.perfetto.json'): 'e03893d543787505cb080a88b9740b4cc46b056a5d3b872c9793438860f20b7d',
    ('osg-chaos-journal', 'submit/utilization.tsv'): '37108affe7103fefc8e7ccb00b35659c758b544168f07c93dc47c9607d069c6e',
    ('osg-chaos-journal', 'submit/workflow.dag'): '5465a353b30ee2debe56c3a53174008fce43eaea3c19688814a8b4425d9fc5e7',
    ('osg-chaos-journal', 'submit/workflow.dax'): '6b509827e1ac74ea825d920317878e7faccc40b320e88694d0909a419e9341ad',
    ('osg-chaos-journal', 'journal/records.jsonl'): 'd3fa913aa5c518ecefa813576eb5ad0c4b15d365d02ac66ea2049fd3ca55ce49',
    ('osg-chaos-journal', 'journal/snapshot.json'): 'd66b3f53a3b75ca62c93168ebbe97e0bebb3adc475d287b3fc9efec8f0b324f4',
    ('osg-chaos-journal', 'journal/wal-00000003.jsonl'): 'c6899f57db10ea872df0c0d4d163f65f6071d6f6344b1cba745a1cf79140c638',
    ('osg-crash', 'submit/events.jsonl'): '3bc7fd0b3e401548a9d36e17962cb18626b72101065cf35fec2b8ca51b1ed47b',
    ('osg-crash', 'submit/plan.json'): 'fd723cb9087cf3d88c8ddef098c8883d55f897ae9a6ee2cdacf5d3bc78b421ec',
    ('osg-crash', 'submit/workflow.dag'): '5465a353b30ee2debe56c3a53174008fce43eaea3c19688814a8b4425d9fc5e7',
    ('osg-crash', 'submit/workflow.dax'): '6b509827e1ac74ea825d920317878e7faccc40b320e88694d0909a419e9341ad',
    ('osg-crash', 'journal/records.jsonl'): '351791e510ef845d162e1edd399c3d9dc5aa3d7ab2a23a1423ea9c06a2afda85',
    ('osg-crash', 'journal/snapshot.json'): '481a6776a2c3ce6df34ef1eb6effc886c3d43c988b4955513eee7fd129a0990a',
    ('osg-crash', 'journal/wal-00000003.jsonl'): 'e79b943409a746883e8f281abb902a315584b1603a80de19bae6075749dd565e',
    ('osg-crash-resume', 'submit/blast2cap3-n12-osg.rescue001'): '68f6ee1fe0d7713b95ab31d6d38c1484a1b0d98e9c96a2f343eee73d64879434',
    ('osg-crash-resume', 'submit/blast2cap3-n12-osg.resume.dag'): '55c00044be9e975fb026e8133dd75cf59e9aa55908313690f405d9582f287224',
    ('osg-crash-resume', 'submit/events.jsonl'): '7dcdf299d2e9a911d4334f1d376f4abd3152c7f7c79d8fffb113cb11afd61360',
    ('osg-crash-resume', 'submit/metrics.json'): '6baab09c98dc6bc981800a5f9787b4d779fee1b99dde210d31261e6f57389618',
    ('osg-crash-resume', 'submit/plan.json'): 'fd723cb9087cf3d88c8ddef098c8883d55f897ae9a6ee2cdacf5d3bc78b421ec',
    ('osg-crash-resume', 'submit/trace.chrome.json'): '9d2a250c508b67cd8345d4ddcc6a04dce244703537f0c7a37c0e916ca1f2883e',
    ('osg-crash-resume', 'submit/trace.jsonl'): 'a068a19cfeb2f80c31cd58b561f027333e91ec6d08fb972b9b099188b22613ec',
    ('osg-crash-resume', 'submit/trace.otlp.json'): 'abc999cf1f91105f0e12768389acc6aa6a8ed57b78b970e1d16d61da7be3d145',
    ('osg-crash-resume', 'submit/trace.perfetto.json'): '97cb88a4f15a942569e7c3649c6938d8e3e97348fea4847e6bb387a3780cd7c2',
    ('osg-crash-resume', 'submit/utilization.tsv'): '68e68fa288e8273638b6ebd30b9cb276940059a10db198784fb4134702906b02',
    ('osg-crash-resume', 'submit/workflow.dag'): '5465a353b30ee2debe56c3a53174008fce43eaea3c19688814a8b4425d9fc5e7',
    ('osg-crash-resume', 'submit/workflow.dax'): '6b509827e1ac74ea825d920317878e7faccc40b320e88694d0909a419e9341ad',
    ('osg-crash-resume', 'journal/records.jsonl'): '06ed3a94ace34ee438c02b2d9e96f3f29a97ea7ddb642d8346c8542aa69a92bf',
    ('osg-crash-resume', 'journal/snapshot.json'): 'aec8b05767f06b470542734d8a5b053d72cd2d9d1d67b7cd028b7149ec7dc7c5',
    ('osg-crash-resume', 'journal/wal-00000012.jsonl'): '62f5c04e8093f06e287ff09aa0288288d1a0e141b52961b825c9910113c6f699',
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_exit_code_and_file_set_unchanged(scenario):
    code, digests = _run(scenario)
    assert code == SCENARIOS[scenario][2]
    assert sorted(digests) == sorted(f for s, f in GOLDEN if s == scenario)


@pytest.mark.parametrize("scenario,name", sorted(GOLDEN))
def test_artefact_bytes_unchanged(scenario, name):
    assert _run(scenario)[1][name] == GOLDEN[(scenario, name)]


if __name__ == "__main__":  # regenerate the table
    for scenario in SCENARIOS:
        for name, digest in _run(scenario)[1].items():
            print(f"    {(scenario, name)!r}: {digest!r},")
