"""Replay determinism of the simulators: the same seed on the same
platform gives the same event stream, whatever else the process did.

Each run is fingerprinted with ``trace_fingerprint`` from
``tests/test_platform_golden.py`` (every event's kind, time, job and
attempt, in order). The in-process checks re-run a small paper workflow
after the perturbations that must not matter: a plain repeat (state
leaked from one run into the next), a reseeded global ``random`` (a
simulator drawing from the shared generator) and three drained decoy
``RngStreams`` (stream derivation depending on creation order). The
hash-seed check re-runs both platforms in two child interpreters under
``PYTHONHASHSEED`` 0 and 1. ``test_hash_seed_moves_no_byte`` in
``tests/test_artefact_golden.py`` makes the same claim byte for byte
over every file the command-line runs leave.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.workflow_factory import simulate_paper_run
from repro.observe.bus import EventBus, EventRecorder
from repro.observe.events import EventKind, RunEvent
from repro.sim.rng import RngStreams
from tests.test_platform_golden import trace_fingerprint

PLATFORMS = ("sandhills", "osg")


def run_fingerprint(platform: str, *, n: int = 3, seed: int = 11) -> str:
    """Fingerprint of one simulated paper run's full event stream."""
    bus = EventBus()
    recorder = EventRecorder(bus)
    simulate_paper_run(n, platform, seed=seed, bus=bus)
    return trace_fingerprint(recorder.events)


def _after_global_random(platform: str) -> str:
    state = random.getstate()
    try:
        random.seed(0xBAD5EED)
        random.random()
        return run_fingerprint(platform)
    finally:
        random.setstate(state)


def _after_decoy_streams(platform: str) -> str:
    decoys = RngStreams(11)
    for name in ("decoy-a", "decoy-b", "decoy-c"):
        decoys.stream(name).random()
    return run_fingerprint(platform)


class TestTraceFingerprint:
    def test_stable_and_order_sensitive(self):
        events = [
            RunEvent(kind=EventKind.SUBMIT, time=0.0, job_name="a"),
            RunEvent(kind=EventKind.SUBMIT, time=1.5, job_name="b"),
        ]
        assert trace_fingerprint(events) == trace_fingerprint(list(events))
        assert trace_fingerprint(events) != trace_fingerprint(events[::-1])

    def test_sensitive_to_timing(self):
        a = [RunEvent(kind=EventKind.SUBMIT, time=0.0, job_name="a")]
        b = [RunEvent(kind=EventKind.SUBMIT, time=0.1, job_name="a")]
        assert trace_fingerprint(a) != trace_fingerprint(b)


class TestInProcessAudit:
    @pytest.mark.parametrize("platform", PLATFORMS)
    def test_repeat_is_bit_identical(self, platform):
        assert run_fingerprint(platform) == run_fingerprint(platform)

    def test_different_seeds_differ_on_osg(self):
        # the fingerprint captures the stochastic run
        assert run_fingerprint("osg", seed=1) != run_fingerprint("osg", seed=2)

    def test_full_in_process_audit_passes_both_platforms(self):
        for platform in PLATFORMS:
            baseline = run_fingerprint(platform)
            assert _after_global_random(platform) == baseline, platform
            assert _after_decoy_streams(platform) == baseline, platform


_CHILD = """
import json
from tests.test_lint_determinism import PLATFORMS, run_fingerprint
print(json.dumps({p: run_fingerprint(p, n=2) for p in PLATFORMS}))
"""


class TestHashSeedAudit:
    def test_two_hash_seeds_reproduce_both_platforms(self):
        src = Path(repro.__file__).resolve().parents[1]
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join([str(src), str(src.parent)]),
        }
        children = [
            subprocess.Popen(
                [sys.executable, "-c", _CHILD],
                env={**env, "PYTHONHASHSEED": str(hash_seed)},
                cwd=src.parent,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for hash_seed in (0, 1)
        ]
        outputs = []
        try:
            for child in children:
                stdout, stderr = child.communicate(timeout=300)
                assert child.returncode == 0, stderr
                outputs.append(stdout)
        finally:
            for child in children:
                child.kill()
                child.wait()
        here = {p: run_fingerprint(p, n=2) for p in PLATFORMS}
        assert [json.loads(out) for out in outputs] == [here, here]
