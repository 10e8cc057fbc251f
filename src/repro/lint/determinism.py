"""Determinism audit: scheduler reproducibility as a checked invariant.

PR 3 made the scheduler iterate children in sorted order specifically
so event traces do not depend on ``PYTHONHASHSEED``; this module turns
that property — same seed, same platform, *bit-identical event trace*
— from a hope into a replayable proof. The audit runs a small paper
workflow on the simulators and compares event-trace fingerprints
across perturbations that must not matter:

* ``repeat`` — the same run twice in one process (catches leaked
  mutable global state between runs);
* ``global-random`` — the run with the *global* ``random`` module
  seeded differently beforehand (catches code drawing from the shared
  generator instead of its :class:`~repro.sim.rng.RngStreams` stream);
* ``decoy-streams`` — the run after deriving and draining unrelated
  RNG streams from an equal-seed :class:`RngStreams` (catches
  stream-derivation order dependence — streams are keyed by name
  hash, so creating extras must not shift existing streams);
* ``hash-seed`` — the run re-executed in a subprocess under different
  ``PYTHONHASHSEED`` values (set/dict iteration-order hazards; a hash
  seed cannot change inside a running interpreter, hence the
  subprocess).

A trace fingerprint hashes the ``(kind, time, job_name, attempt)``
signature of every event, so *any* reordering or timing shift
diverges. Rule ``DET001`` (registered in :mod:`repro.lint`, which
imports this module only when the rule runs) exposes the audit to
``lint()`` behind the opt-in ``determinism=`` context (it replays
simulations, so it is not part of the always-on static passes);
``python -m repro.lint.determinism`` is the CI smoke entry point.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

__all__ = [
    "DeterminismOptions",
    "Divergence",
    "trace_fingerprint",
    "run_fingerprint",
    "audit_determinism",
    "main",
]

#: In-process perturbations the audit applies by default.
DEFAULT_PERTURBATIONS = ("repeat", "global-random", "decoy-streams")


@dataclass(frozen=True)
class DeterminismOptions:
    """What the audit replays and how it perturbs the replay."""

    n: int = 6
    platforms: tuple[str, ...] = ("sandhills", "osg")
    seed: int = 7
    perturbations: tuple[str, ...] = DEFAULT_PERTURBATIONS
    #: ``PYTHONHASHSEED`` values re-run in subprocesses; empty = skip
    #: the (slow) subprocess leg.
    hash_seeds: tuple[int, ...] = ()
    #: Test seam: replaces the real simulation. Called as
    #: ``runner(platform, perturbation, options)`` and must return a
    #: fingerprint string.
    runner: "Callable[[str, str, DeterminismOptions], str] | None" = field(
        default=None, compare=False
    )


@dataclass(frozen=True)
class Divergence:
    """One reproducibility violation found by the audit."""

    platform: str
    perturbation: str
    baseline: str
    perturbed: str

    def describe(self) -> str:
        return (
            f"platform {self.platform!r}: event trace under "
            f"{self.perturbation!r} diverged from baseline "
            f"(fingerprint {self.perturbed[:12]} != "
            f"{self.baseline[:12]})"
        )


def trace_fingerprint(events: Sequence[object]) -> str:
    """A stable digest of an event trace's observable shape."""
    signature = [
        (
            getattr(e, "kind").value,
            round(float(getattr(e, "time")), 9),
            getattr(e, "job_name", None),
            getattr(e, "attempt", None),
        )
        for e in events
    ]
    blob = json.dumps(signature, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def run_fingerprint(
    platform: str, *, n: int = 6, seed: int = 7
) -> str:
    """Fingerprint of one simulated paper run's full event stream."""
    from repro.core.workflow_factory import simulate_paper_run
    from repro.observe.bus import EventBus, EventRecorder

    bus = EventBus()
    recorder = EventRecorder(bus)
    simulate_paper_run(n, platform, seed=seed, bus=bus)
    return trace_fingerprint(recorder.events)


def _perturbed_fingerprint(
    platform: str, perturbation: str, opts: DeterminismOptions
) -> str:
    if opts.runner is not None:
        return opts.runner(platform, perturbation, opts)
    if perturbation == "global-random":
        # Disturb the shared generator; simulator code must only draw
        # from its own named streams.
        state = random.getstate()
        try:
            random.seed(0xBAD5EED)
            random.random()
            return run_fingerprint(platform, n=opts.n, seed=opts.seed)
        finally:
            random.setstate(state)
    if perturbation == "decoy-streams":
        from repro.sim.rng import RngStreams

        decoys = RngStreams(opts.seed)
        for name in ("decoy-a", "decoy-b", "decoy-c"):
            decoys.stream(name).random()
        return run_fingerprint(platform, n=opts.n, seed=opts.seed)
    # "repeat", "baseline", and unknown names: a straight re-run.
    return run_fingerprint(platform, n=opts.n, seed=opts.seed)


_CHILD_SNIPPET = (
    "from repro.lint.determinism import run_fingerprint;"
    "print(run_fingerprint({platform!r}, n={n}, seed={seed}))"
)


def _hash_seed_fingerprint(
    platform: str, hash_seed: int, opts: DeterminismOptions
) -> str:
    """Fingerprint from a subprocess pinned to one ``PYTHONHASHSEED``."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    src_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root + os.pathsep + existing if existing else src_root
    )
    code = _CHILD_SNIPPET.format(
        platform=platform, n=opts.n, seed=opts.seed
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=600,
    )
    return out.stdout.strip()


def audit_determinism(opts: DeterminismOptions) -> list[Divergence]:
    """Replay under every perturbation; empty list = reproducible."""
    divergences: list[Divergence] = []
    for platform in opts.platforms:
        if opts.runner is not None:
            baseline = opts.runner(platform, "baseline", opts)
        else:
            baseline = run_fingerprint(
                platform, n=opts.n, seed=opts.seed
            )
        for perturbation in opts.perturbations:
            perturbed = _perturbed_fingerprint(platform, perturbation, opts)
            if perturbed != baseline:
                divergences.append(
                    Divergence(platform, perturbation, baseline, perturbed)
                )
        for hash_seed in opts.hash_seeds:
            perturbed = _hash_seed_fingerprint(platform, hash_seed, opts)
            if perturbed != baseline:
                divergences.append(
                    Divergence(
                        platform,
                        f"hash-seed:{hash_seed}",
                        baseline,
                        perturbed,
                    )
                )
    return divergences


def main(argv: list[str] | None = None) -> int:
    """CI smoke entry point: ``python -m repro.lint.determinism``."""
    parser = argparse.ArgumentParser(
        prog="repro-lint-determinism",
        description="Replay small simulations under perturbed "
        "PYTHONHASHSEED / RNG conditions and fail on trace divergence.",
    )
    parser.add_argument("-n", type=int, default=6)
    parser.add_argument(
        "--platforms", nargs="+", default=["sandhills", "osg"]
    )
    parser.add_argument(
        "--hash-seeds",
        nargs="*",
        type=int,
        default=[0, 1],
        help="PYTHONHASHSEED values for the subprocess leg "
        "(pass none to skip)",
    )
    args = parser.parse_args(argv)
    opts = DeterminismOptions(
        n=args.n,
        platforms=tuple(args.platforms),
        hash_seeds=tuple(args.hash_seeds),
    )
    divergences = audit_determinism(opts)
    for div in divergences:
        print(div.describe(), file=sys.stderr)
    if not divergences:
        legs = len(opts.platforms) * (
            len(opts.perturbations) + len(opts.hash_seeds)
        )
        print(
            f"determinism audit: {legs} replay(s) reproduced the "
            "baseline trace bit-for-bit"
        )
    return 1 if divergences else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
