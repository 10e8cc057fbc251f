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
from repro.dagman.condor import ClassAd
from repro.dagman.events import JobStatus
from repro.resilience import (
    Blacklist,
    BlacklistPolicy,
    Eviction,
    FaultInjector,
    FaultPlan,
    Hang,
    SiteOutage,
    Slowdown,
    StartFailure,
)
from repro.sim import PLATFORMS, RngStreams, Simulator
from repro.sim import grid as grid_module
from repro.sim import platform as kernel
from repro.sim.cloud import CloudConfig
from repro.sim.cluster import CampusClusterConfig
from repro.sim.failures import NO_FAILURES
from repro.sim.grid import GridConfig, GridSiteConfig, OpportunisticGrid
from repro.sim.machine import SOFTWARE_ATTRS, MachineSpec

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


@platforms
def test_submit_from_a_match_subscriber_is_dispatched_once(name):
    """The nested pass a MATCH subscriber's submit runs sees a settled
    index: nothing is lost, nothing goes out twice."""
    bus = EventBus()
    recorder = EventRecorder(bus)
    simulator = Simulator()
    env = PLATFORMS[name](
        simulator, CONFIGS[name], streams=RngStreams(seed=2), bus=bus
    )
    finished = []
    extra = [DagJob(f"extra{i}", "run_cap3", runtime=50.0) for i in range(3)]

    def on_match(event):
        if event.kind is EventKind.MATCH and event.job_name == "first":
            while extra:
                env.submit(extra.pop(), finished.append)

    bus.subscribe(on_match)
    for job_name in ("first", "second"):
        env.submit(DagJob(job_name, "run_cap3", runtime=80.0), finished.append)
    env.run_until_complete()
    names = ["extra0", "extra1", "extra2", "first", "second"]
    assert sorted(a.job_name for a in finished) == names
    assert sorted(
        e.job_name for e in recorder.events if e.kind is EventKind.MATCH
    ) == names
    assert env.queue_status() == {"idle": 0, "running": 0}


# -- the grid's wake rules ------------------------------------------------

SOFTWARE = " and ".join(SOFTWARE_ATTRS)


def _rich_and_bare(bus=None, *, bare=3, **kwargs):
    """One slot that has the software, ``bare`` that have nothing: jobs
    requiring software serialize on the rich slot while the rest of the
    pool sits free."""
    simulator = Simulator()
    config = GridConfig(
        sites=(GridSiteConfig("rich", 1, software_prob=1.0),
               GridSiteConfig("bare", bare, software_prob=0.0)),
        wait_spike_prob=0.0, failures=NO_FAILURES,
    )
    env = OpportunisticGrid(
        simulator, config, streams=RngStreams(seed=7), bus=bus, **kwargs
    )
    return simulator, env


def _job(name, runtime, requirements=SOFTWARE):
    return DagJob(name, "run_cap3", runtime=runtime, requirements=requirements)


def test_only_a_release_that_can_matter_asks_the_matchmaker():
    bus = EventBus()
    simulator, env = _rich_and_bare(bus)
    finds = env.matchmaker.stats
    asked = []  # (kind, job, finds so far) per event
    bus.subscribe(
        lambda e: asked.append((e.kind, e.job_name, finds.finds))
    )
    done = []
    env.submit(_job("sw1", 9000.0), done.append)
    env.submit(_job("sw2", 100.0), done.append)  # asks once, then sleeps
    env.submit(_job("sw3", 100.0), done.append)  # its class is asleep
    assert finds.finds == 2
    env.submit(_job("plain", 100.0, None), done.append)
    assert finds.finds == 3
    # Parked attempts are idle attempts (with the two riding out their
    # opportunistic wait).
    assert env.queue_status() == {"idle": 4, "running": 0}
    env.run_until_complete()
    assert [a.job_name for a in done] == ["plain", "sw1", "sw2", "sw3"]

    def finds_spent_on(job_name):
        """Finds by the pass that ``job_name``'s release triggered (on
        the grid the terminal event follows that pass)."""
        at = next(i for i, (kind, job, _) in enumerate(asked)
                  if kind is EventKind.FINISH and job == job_name)
        before = at - 1
        while asked[before][0] is EventKind.MATCH:  # emitted by the pass
            before -= 1
        return asked[at][2] - asked[before][2]

    # The bare machine "plain" gave back satisfies nobody who waits.
    assert finds_spent_on("plain") == 0
    # The rich one goes to the *oldest* parked attempt of its class;
    # the next one asks once and parks again.
    assert finds_spent_on("sw1") == 2
    matches = [job for kind, job, _ in asked if kind is EventKind.MATCH]
    assert matches == ["sw1", "plain", "sw2", "sw3"]
    assert {a.machine for a in done if a.job_name != "plain"} == {"rich-0000"}


def test_machine_added_at_runtime_wakes_parked_work():
    simulator, env = _rich_and_bare()
    done = []
    env.submit(_job("sw1", 9000.0), done.append)
    env.submit(_job("sw2", 100.0), done.append)  # parks: the rich slot is taken
    env.submit(_job("plain", 2000.0, None), done.append)
    env.call_later(500.0, lambda: env.matchmaker.add_machines([MachineSpec(
        "late-0000", "late", speed=1.0, software=frozenset(SOFTWARE_ATTRS),
    )]))
    env.run_until_complete()
    # The pass "plain"'s release runs sees a changed pool and wakes
    # sw2, although the machine released is no use to it.
    by_name = {a.job_name: a for a in done}
    assert by_name["sw2"].machine == "late-0000"
    assert by_name["sw2"].exec_end < by_name["sw1"].exec_end
    assert env.queue_status() == {"idle": 0, "running": 0}


def test_blacklist_expiry_wakes_parked_work():
    """Every machine blocked, every queued attempt asleep, nothing
    running: only the cooldown timer can restart dispatch."""
    bus = EventBus()
    streams = RngStreams(seed=4)
    simulator, env = _rich_and_bare(
        bus, bare=1,
        injector=FaultInjector(
            FaultPlan((SiteOutage("rich", 0.0, 600.0),
                       SiteOutage("bare", 0.0, 600.0))),
            rng=streams.stream("faults"),
        ),
        blacklist=Blacklist(
            BlacklistPolicy(threshold=1, cooldown_s=4000.0), bus=bus
        ),
    )
    dag = Dag()
    for i in range(4):
        dag.add_job(DagJob(f"j{i}", "run_cap3", runtime=100.0, retries=5,
                           requirements=SOFTWARE if i % 2 else None))
    scheduler = DagmanScheduler(dag, env, bus=bus)
    scheduler.start()
    simulator.run(until=3000.0)
    assert env.queue_status() == {"idle": 4, "running": 0}
    env.run_until_complete()
    assert scheduler.finish().success
    assert env.queue_status() == {"idle": 0, "running": 0}


def test_clean_run_never_asks_an_empty_blacklist(monkeypatch):
    calls = []
    is_blocked = Blacklist.is_blocked
    monkeypatch.setattr(
        Blacklist, "is_blocked",
        lambda self, *a, **kw: calls.append(a) or is_blocked(self, *a, **kw),
    )
    simulator, env = _rich_and_bare(blacklist=Blacklist())
    done = []
    for i in range(8):
        env.submit(_job(f"j{i}", 100.0, SOFTWARE if i % 2 else None),
                   done.append)
    env.run_until_complete()
    assert len(done) == 8 and calls == []
    # One recorded block and the per-pass scan is back.
    env.blacklist.restore_block("machine", "bare-0000", until=None)
    env.submit(_job("after", 100.0, None), done.append)
    assert calls


def test_unhashable_ticket_attributes_still_dispatch(monkeypatch):
    """An ad without a match key is a wait class of its own, woken by
    every release."""
    def ad_with_a_list(**kwargs):
        kwargs["attributes"] = {**kwargs["attributes"], "inputs": ["a", "b"]}
        return ClassAd(**kwargs)

    monkeypatch.setattr(grid_module, "ClassAd", ad_with_a_list)
    simulator, env = _rich_and_bare()
    done = []
    for i in range(3):
        env.submit(_job(f"sw{i}", 100.0), done.append)
    env.submit(_job("plain", 100.0, None), done.append)
    env.run_until_complete()
    assert sorted(a.job_name for a in done) == ["plain", "sw0", "sw1", "sw2"]
    assert all(a.status is JobStatus.SUCCEEDED for a in done)
    assert [a.job_name for a in done if a.machine == "rich-0000"] == [
        "sw0", "sw1", "sw2"
    ]
    assert not env._wait_classes  # nothing hashable to share a class by
