"""Golden traces: the platform models' observable behaviour, pinned
*across commits*.

A run compared only with itself under another hash seed cannot see a
refactor that changes event order, RNG draw order or engine-event
counts on every run. This table pins, per platform × scenario × seed,
one sha256 over

* ``trace_fingerprint`` of the bus stream (kind, time, job, attempt),
* every event flattened as ``events.jsonl`` writes it (site, machine,
  detail, terminal record and profile included),
* the scheduler's ``JobAttempt`` trace, and
* the platform's counters plus the engine's fired-event count.

The digests were recorded before the three simulators were folded onto
one kernel; a change here means behaviour moved, not just code.
Regenerate (after convincing yourself the move is intended) with
``PYTHONPATH=src:. python tests/test_platform_golden.py``.

The matchmaker's ``find`` count is *work*, not behaviour: it is pinned
per OSG row in ``FINDS``, outside the digest, so a dispatch-path change
that asks the matchmaker less moves ``FINDS`` and nothing else.

The scheduler here is untagged, so it leaves the state changes that
``job.submit``, the terminal record and ``job.retry`` / ``job.held``
state to those events. ``GOLDEN`` hashes the stream with them put back
(``tests/oracles/implied_transitions.py``) and still holds the digests
recorded before; ``THINNED`` hashes the stream as emitted.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random

import pytest

from repro.dagman.dag import Dag, DagJob
from repro.dagman.scheduler import DagmanScheduler
from repro.observe.bus import EventBus, EventRecorder
from repro.observe.log import event_to_json
from repro.observe.sampler import UtilizationSampler
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
from repro.sim.cloud import CloudConfig, CloudPlatform
from repro.sim.cluster import CampusCluster, CampusClusterConfig
from repro.sim.engine import Simulator
from repro.sim.failures import FailureModel
from repro.sim.grid import GridConfig, GridSiteConfig, OpportunisticGrid
from repro.sim.rng import RngStreams
from tests.oracles.implied_transitions import expand

SEEDS = (3, 11)

SOFTWARE = "has_python and has_biopython and has_cap3"


def _dag(seed: int, *, unsatisfiable: bool = False,
         rooted: bool = True) -> Dag:
    """split → 18 cap3 jobs (half requiring software) → merge, with
    timeouts everywhere so injected hangs end. ``rooted=False`` drops
    the split → cap3 edges so the whole fan is ready at t=0 and fills
    every slot at once."""
    rng = random.Random(seed)
    dag = Dag()
    dag.add_job(DagJob("split", "split_alignments", runtime=300.0,
                       retries=40, timeout_s=6000.0))
    dag.add_job(DagJob("merge", "merge_joined", runtime=200.0,
                       retries=40, timeout_s=6000.0))
    for i in range(18):
        name = f"run_cap3_{i:03d}"
        dag.add_job(DagJob(
            name, "run_cap3",
            runtime=rng.uniform(200.0, 2500.0),
            needs_setup=i % 3 != 0,
            retries=40,
            requirements=SOFTWARE if i % 2 else None,
            timeout_s=6000.0,
        ))
        if rooted:
            dag.add_edge("split", name)
        dag.add_edge(name, "merge")
    if unsatisfiable:
        dag.add_job(DagJob("needs_fpga", "run_cap3", runtime=100.0,
                           retries=1,
                           requirements="has_python and has_fpga"))
        dag.add_edge("split", "needs_fpga")
    return dag


_GRID = GridConfig(sites=(
    GridSiteConfig("site-a", 5, speed_mean=1.2, software_prob=0.9),
    GridSiteConfig("site-b", 3, speed_mean=1.4, software_prob=0.4),
))

#: platform → (class, small config so queues form and slots recycle)
PLATFORMS = {
    "sandhills": (CampusCluster, CampusClusterConfig(
        nodes=3, cores_per_node=2, group_slots=5)),
    "osg": (OpportunisticGrid, _GRID),
    "cloud": (CloudPlatform, CloudConfig(max_instances=5)),
    "cloud-spot": (CloudPlatform, CloudConfig(
        max_instances=5, spot_discount=0.3,
        failures=FailureModel(eviction_rate_per_s=1 / 4000.0))),
}

CHAOS = FaultPlan((
    StartFailure(0.15),
    Eviction(1 / 5000.0),
    Slowdown(0.3, 2.5),
    Hang(0.1),
))


def _blackout(platform: str) -> FaultPlan:
    """Every arrival in the first 1500 s dies, so with threshold 1
    every node/slot ends up blocked and dispatch parks on the cooldown."""
    sites = ("site-a", "site-b") if platform == "osg" else (platform,)
    return FaultPlan(tuple(SiteOutage(s, 0.0, 1500.0) for s in sites))


def trace_fingerprint(events: list) -> str:
    """sha256 of each event's ``(kind, time, job, attempt)``, in order."""
    signature = [
        (e.kind.value, round(float(e.time), 9), e.job_name, e.attempt)
        for e in events
    ]
    blob = json.dumps(signature, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


@functools.cache
def _run(
    platform: str, scenario: str, seed: int
) -> tuple[str, int | None, str]:
    """(digest of the expanded stream, matchmaker finds — ``None`` off
    the grid, digest of the stream as emitted)."""
    cls, config = PLATFORMS[platform]
    simulator = Simulator()
    streams = RngStreams(seed=seed)
    bus = EventBus()
    recorder = EventRecorder(bus)
    kwargs: dict = {}
    plan = {"chaos": CHAOS, "blacklist": _blackout(platform)}.get(scenario)
    if plan is not None:
        kwargs["injector"] = FaultInjector(
            plan, rng=streams.stream("faults"), bus=bus
        )
    if scenario == "blacklist":
        kwargs["blacklist"] = Blacklist(
            BlacklistPolicy(threshold=1, cooldown_s=400.0), bus=bus
        )
    env = cls(simulator, config, streams=streams, bus=bus, **kwargs)
    dag = _dag(seed, unsatisfiable=scenario == "unsatisfiable",
               rooted=scenario != "blacklist")
    scheduler = DagmanScheduler(dag, env, bus=bus)
    scheduler.start()
    UtilizationSampler(simulator, env, interval_s=500.0, bus=bus).start()
    env.run_until_complete()
    result = scheduler.finish()
    counters = {
        "start_failure_count": env.start_failure_count,
        "timeout_count": env.timeout_count,
        "engine_events": simulator.processed,
        "queue_status": env.queue_status(),
    }
    if isinstance(env, CloudPlatform):
        counters["reclaim_count"] = env.reclaim_count
        counters["peak_instances"] = env.peak_instances
        counters["running_instances"] = env.running_instances
        counters["billed_cost"] = round(env.billed_cost(), 6)
    else:
        counters["peak_busy"] = env.peak_busy
        counters["eviction_count"] = env.eviction_count
        counters["busy_slots"] = env.busy_slots
    finds = None
    if isinstance(env, OpportunisticGrid):
        finds = env.matchmaker.stats.finds
        counters["occupied_slots"] = env.occupied_slots
    attempts = [
        {
            **{f: getattr(a, f) for f in (
                "job_name", "transformation", "site", "machine", "attempt",
                "submit_time", "setup_start", "exec_start", "exec_end",
                "error")},
            "status": a.status.value,
            "profile": a.profile.to_json() if a.profile else None,
        }
        for a in result.trace
    ]

    def digest(events: list) -> str:
        blob = json.dumps(
            [
                trace_fingerprint(events),
                [event_to_json(e) for e in events],
                attempts,
                counters,
                result.success,
            ],
            sort_keys=True, separators=(",", ":"),
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    return digest(expand(recorder.events)), finds, digest(recorder.events)


def _rows() -> list[tuple[str, str, int]]:
    rows = []
    for platform in PLATFORMS:
        scenarios = ["clean", "chaos"]
        if platform in ("sandhills", "osg"):
            # (the cloud has no nodes that outlive a start failure)
            scenarios.append("blacklist")
        if platform == "osg":
            scenarios.append("unsatisfiable")
        rows += [(platform, s, seed) for s in scenarios for seed in SEEDS]
    return rows


GOLDEN: dict[tuple[str, str, int], str] = {
    ('sandhills', 'clean', 3): 'b6a2a0fcf384e43f8caf3c07bc9a3f5687b5a03e0ff03f1b4aa09810cb0e3b4e',
    ('sandhills', 'clean', 11): '504d25c58601b5b6947e11bc832e6a37b8418b24331173d47d3b67d2a5de48be',
    ('sandhills', 'chaos', 3): '80de77c984d50fb557286a7dbaac5907d992bca8b28cb6e2e408cdaf0477ab67',
    ('sandhills', 'chaos', 11): '4acaf4d2303b240670db08eb6cbf328db6e509dfdd9f98af7d774093daf9fc9f',
    ('sandhills', 'blacklist', 3): '842083bc348edf5dab7ac3b9552c7e011948c3219a3b60c3dd8dd59ea1027a12',
    ('sandhills', 'blacklist', 11): '8dbccfe6b09c77d5a027d7aa7f25ae8ef97bf5d3fec666ec4a7aaed3386daac2',
    ('osg', 'clean', 3): 'bdc8874d2e0b2c5ca1f045e8310201a32282ff959597831fe41718eda892d345',
    ('osg', 'clean', 11): '0ac349a17d4d603f9b0736def8ba9d27917adf3ac3faf81fb8b25010854120df',
    ('osg', 'chaos', 3): '6b1fb59e51def30ba85d92f8346635b0e02ddab54f2813d83f8d5ecaebbfe858',
    ('osg', 'chaos', 11): 'a51a1c19905c663f56ff1578cc3fbca0715ee8123ebfd42946d6ea5e9de0b991',
    ('osg', 'blacklist', 3): '89090e944e55b241302fcdd3487b1b80b21978c6683327e5fc15a3cd871becc8',
    ('osg', 'blacklist', 11): '73bedd21efbcb1259ae28e36450c667c8ee97f372137f09a6fb680f372ef6ec1',
    ('osg', 'unsatisfiable', 3): 'cbc2daebdf644a33d34c46515abbacd7ad3ede12671c49533626d32f954fbda5',
    ('osg', 'unsatisfiable', 11): '01583676bbcfc2744c4469e365efd859f024715848f8b92fa7fe446ada568699',
    ('cloud', 'clean', 3): '4542eac54f12ba96e00f39f93b0f23819bcd0faf2cd1c8f74c65996fa0887450',
    ('cloud', 'clean', 11): '27e44aeb1eef6c6395d2b9f98b1327f5e19ec152626632b80710514bb7d9c918',
    ('cloud', 'chaos', 3): '1ece28d75316dba0c39f1f8c540f340c62759fa3070be0f1ace41a1d08535aee',
    ('cloud', 'chaos', 11): '97eb640df66a9cd326d69b89803752dd76a880713f7d245256ba79cf814f18a5',
    ('cloud-spot', 'clean', 3): 'bf903c8740d339d8c905b89443c4a630f47848dc014340259924012913aa4024',
    ('cloud-spot', 'clean', 11): '02ee2023bdc716691fabefc62fb321b5bdaa4268f86e30b5e8aef67ca29af522',
    ('cloud-spot', 'chaos', 3): '284531ce3e12f1d9b18722a66d18a6e64bedabcf1333118bb7e028050484e712',
    ('cloud-spot', 'chaos', 11): '6ccb76b4f9ed65d07d2a2c45f61db3aa0a070521f1b9956dbd40ab580e2685ce',
}


#: The digest of the stream as the untagged scheduler emits it.
THINNED: dict[tuple[str, str, int], str] = {
    ('sandhills', 'clean', 3): '54bf77e542c8db4d6879cd6ca6b1ba46f5a339c9ce1330be119af0d006be2aba',
    ('sandhills', 'clean', 11): 'b9f6c7a7ca156d5194cdacee4ef5e38f460e8d7fd129123630082ee7005fbc9c',
    ('sandhills', 'chaos', 3): '4cf22bc557abe5d0374f1570d63315372f7c68536c09093d31b940074d9d1c7f',
    ('sandhills', 'chaos', 11): '0a20d5062cb0aa50bb68dc7f8365d28d6f2bdb29565a6b876859cb473533d612',
    ('sandhills', 'blacklist', 3): 'd95bc45cbeaf4c071ec5bee0fb4c709a024c25be16890ac1b5697dc5f5209956',
    ('sandhills', 'blacklist', 11): 'd35f0685f2c8b9bffc68c07580033f363f1db04b76664a3dd4b1fde5bf1f8842',
    ('osg', 'clean', 3): 'acd4fd11d3c929e2a8d58c705a45e445c8aa85c15e0c9c733ea60c2183dfb2c8',
    ('osg', 'clean', 11): 'debc36e5d3bee16afe4f73dbd15b87e14d4f9ad83088200a38de7f8f8b7e164b',
    ('osg', 'chaos', 3): 'fab7f019d00acaa4c7a02ec89a65f9a5053e36ddea197fe2e9699f4bdda16035',
    ('osg', 'chaos', 11): '20430b4510690f96e254ce0535e52ff6693300815b5d9f7cd3177aa07e2cd732',
    ('osg', 'blacklist', 3): 'f2c53ca56a87177c0dd01390df7d02621edaca48075b5f8a02a779495aeed03c',
    ('osg', 'blacklist', 11): '536cec0186561bdd7902390af74c63a47a19fa6a2a6b7290437807561d2d2815',
    ('osg', 'unsatisfiable', 3): '1b423575353815ca2f5a49bdc59f6a6d094b2192bdb5def41194b70965e00f21',
    ('osg', 'unsatisfiable', 11): 'b69df48ea85c0a1bb309da44eb381daae97bdc9d8c7cb7723f9ba37031375b2a',
    ('cloud', 'clean', 3): '30c93ccd6a2d705a0b070655eb1c0e3214d207805fb4a315048331b6e2ad8e2b',
    ('cloud', 'clean', 11): '8aa5b88e1b961e10e327c316c77dda60b1869766370b487c7d6fa89d110f6e55',
    ('cloud', 'chaos', 3): '3c406381af48baa670773d6c71f8d22dda1ec1bad63cdef6e35c73626dfe407c',
    ('cloud', 'chaos', 11): '87d8aa6f21f869e2447ea370bfce4950ddecb594acc609b65fafa0e049890a34',
    ('cloud-spot', 'clean', 3): 'ee1a37ab6ea82b337b9bd6e8917ffac1d35b30a17ab45966e32394c8c6a5a91b',
    ('cloud-spot', 'clean', 11): '82045da007c3e03506dd0ed94194e6fabdadd72be18770e2e320750842fa2435',
    ('cloud-spot', 'chaos', 3): '5a4d297c506d931671c31923a4aa000910cc9bdd162eb89c8f481d1786d07239',
    ('cloud-spot', 'chaos', 11): '1c8ec949038f6b42e6b2965ad3f470e972fef8fb565160a923e4ae38072dc7b2',
}


#: ``matchmaker.stats.finds`` per OSG row (see the module docstring).
FINDS: dict[tuple[str, str, int], int] = {
    ('osg', 'clean', 3): 31,
    ('osg', 'clean', 11): 21,
    ('osg', 'chaos', 3): 67,
    ('osg', 'chaos', 11): 34,
    ('osg', 'blacklist', 3): 225,
    ('osg', 'blacklist', 11): 213,
    ('osg', 'unsatisfiable', 3): 31,
    ('osg', 'unsatisfiable', 11): 21,
}


@pytest.mark.parametrize("platform,scenario,seed", _rows())
def test_trace_digest_unchanged(platform, scenario, seed):
    digest, _, _ = _run(platform, scenario, seed)
    assert digest == GOLDEN[(platform, scenario, seed)]


@pytest.mark.parametrize("platform,scenario,seed", _rows())
def test_thinned_digest_unchanged(platform, scenario, seed):
    _, _, digest = _run(platform, scenario, seed)
    assert digest == THINNED[(platform, scenario, seed)]


@pytest.mark.parametrize("platform,scenario,seed", sorted(FINDS))
def test_find_count_unchanged(platform, scenario, seed):
    _, finds, _ = _run(platform, scenario, seed)
    assert finds == FINDS[(platform, scenario, seed)]


if __name__ == "__main__":  # regenerate the three tables
    for column in (0, 2, 1):
        for row in _rows():
            value = _run(*row)[column]
            if value is not None:
                print(f"    {row!r}: {value!r},")
        print()
