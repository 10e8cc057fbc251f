"""What the platform kernel guarantees once, for every platform.

``repro.sim.platform.SimPlatform`` owns the queue, the dispatch loop,
event emission and the attempt lifecycle of the cluster, grid and cloud
models; these are its contract, checked over all three instead of per
platform. (Byte-level behaviour is pinned by
``tests/test_platform_golden.py``; this file states the *rules*.)
"""

from __future__ import annotations

import re
from collections import defaultdict

import pytest

from repro.dagman.dag import Dag, DagJob
from repro.dagman.scheduler import DagmanScheduler
from repro.observe.bus import EventBus, EventRecorder
from repro.observe.events import EventKind
from repro.resilience import (
    Blacklist,
    BlacklistPolicy,
    Eviction,
    FaultInjector,
    FaultPlan,
    Hang,
    Slowdown,
    StartFailure,
)
from repro.sim import PLATFORMS, RngStreams, Simulator
from repro.sim import platform as kernel
from repro.sim.cloud import CloudConfig
from repro.sim.cluster import CampusClusterConfig
from repro.sim.grid import GridConfig, GridSiteConfig

#: Small pools, so queues form and slots are reused.
CONFIGS = {
    "sandhills": CampusClusterConfig(nodes=3, group_slots=4),
    "osg": GridConfig(sites=(GridSiteConfig("s", 6, software_prob=1.0),)),
    "cloud": CloudConfig(max_instances=4),
}

CHAOS = FaultPlan((
    StartFailure(0.2), Eviction(1 / 4000.0), Slowdown(0.3, 3.0), Hang(0.15),
))

platforms = pytest.mark.parametrize("name", sorted(CONFIGS))


def _run(name, *, bus=None, seed=5):
    simulator = Simulator()
    streams = RngStreams(seed=seed)
    env = PLATFORMS[name](
        simulator, CONFIGS[name], streams=streams, bus=bus,
        injector=FaultInjector(CHAOS, rng=streams.stream("faults")),
    )
    dag = Dag()
    for i in range(30):
        dag.add_job(DagJob(
            f"j{i:02d}", "run_cap3", runtime=200.0 + 90 * i,
            needs_setup=i % 2 == 0, retries=50, timeout_s=3000.0,
        ))
    result = DagmanScheduler(dag, env, bus=bus).run()
    assert result.success
    return env, simulator, result


_LETTER = {
    EventKind.MATCH: "M",
    EventKind.SETUP_START: "S",
    EventKind.EXEC_START: "X",
    EventKind.TIMEOUT: "T",
    EventKind.FINISH: "F",
    EventKind.EVICT: "E",
}

#: match, [setup], exec, [timeout], finish|evict — or dead on arrival:
#: matched, then finished (failed) without ever starting.
_GRAMMAR = re.compile(r"M(S?XT?[FE]|F)")


@platforms
def test_attempt_event_grammar(name):
    bus = EventBus()
    recorder = EventRecorder(bus)
    env, _, result = _run(name, bus=bus)
    per_attempt = defaultdict(str)
    for event in recorder.events:
        if event.kind in _LETTER:
            per_attempt[(event.job_name, event.attempt)] += _LETTER[event.kind]
    assert len(per_attempt) == len(result.trace)
    for key, shape in per_attempt.items():
        assert _GRAMMAR.fullmatch(shape), (key, shape)
    shapes = set(per_attempt.values())
    # The chaos plan reached every branch of the grammar…
    assert {"MF"} < shapes
    assert any("T" in s for s in shapes) and any("E" in s for s in shapes)
    # …and the setup phase exists on the grid only, for every attempt
    # that got past arrival there.
    with_setup = {s for s in shapes if "S" in s}
    assert with_setup == ({s for s in shapes if "X" in s} if name == "osg"
                          else set())
    assert env.start_failure_count == sum(
        1 for s in per_attempt.values() if s == "MF"
    )


@platforms
def test_slots_return_to_zero_after_drain(name):
    env, simulator, _ = _run(name)
    assert env.queue_status() == {"idle": 0, "running": 0}
    assert env.peak_busy > 0
    assert simulator.pending == 0
    if name == "cloud":
        assert env.running_instances == 0  # warm pool idled out
    else:
        assert env.busy_slots == 0


@platforms
def test_deaf_bus_constructs_no_event(name, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("RunEvent built for a bus nobody listens to")

    monkeypatch.setattr(kernel, "RunEvent", refuse)
    _run(name, bus=EventBus())  # no subscribers
    _run(name, bus=None)


@platforms
def test_redispatch_guard_schedules_one_timer(name):
    simulator = Simulator()
    blacklist = Blacklist(BlacklistPolicy(threshold=1, cooldown_s=500.0))
    env = PLATFORMS[name](
        simulator, CONFIGS[name], streams=RngStreams(seed=3),
        blacklist=blacklist,
    )
    blacklist.record_start_failure("x", "s", now=0.0)
    before = simulator.pending
    env._schedule_redispatch()
    assert env._redispatch_pending
    env._schedule_redispatch()  # second caller: guarded no-op
    assert simulator.pending == before + 1
    simulator.run()
    assert not env._redispatch_pending
