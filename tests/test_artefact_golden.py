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
``events.jsonl`` records the rescue file's path as given. The journal's
WAL and snapshot carry the manager's pid and are left out; its
``records.jsonl`` sidecar (terminal records, verbatim log lines) is in.

Regenerate (after convincing yourself the move is intended) with
``PYTHONPATH=src python tests/test_artefact_golden.py``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import os
import tempfile
from pathlib import Path

import pytest

from repro.wms.cli import main_plan, main_run

#: scenario -> (site, extra ``repro-run`` arguments, expected exit code)
SCENARIOS: dict[str, tuple[str, tuple[str, ...], int]] = {
    "sandhills": ("sandhills", (), 0),
    # n=12 seed=0 on the grid exhausts one job's retries: a failed run
    # with 24 retries, a rescue file and unrunnable descendants.
    "osg": ("osg", (), 1),
    "osg-chaos-journal": (
        "osg",
        (
            "--chaos-start-failure", "0.2",
            "--retry-policy", "backoff",
            "--blacklist-threshold", "2",
            "--blacklist-cooldown", "600",
            "--max-rescue-rounds", "2",
            "--journal", "journal",
        ),
        0,
    ),
}


@functools.lru_cache(maxsize=None)
def _run(scenario: str) -> tuple[int, dict[str, str]]:
    """Exit code of ``repro-run`` and sha256 per artefact."""
    site, extra, _ = SCENARIOS[scenario]
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
                code = main_run(["--submit-dir", "submit", "--seed", "0", *extra])
            files = sorted(Path("submit").iterdir())
            sidecar = Path("journal", "records.jsonl")
            if sidecar.exists():
                files.append(sidecar)
            digests = {
                str(p): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in files
            }
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
