"""The wait index changes how often the grid asks, never what happens.

``tests/oracles/rescan_grid.py`` is the historical pass — walk every
idle attempt in submit order, ``find`` each. The property drives it and
the real grid through the same pool × workflow × fault plan × blacklist
policy × seed and demands the same bus stream, ``JobAttempt`` trace,
counters and engine-event count, with no more finds than the oracle.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.dagman.dag import Dag, DagJob
from repro.dagman.scheduler import DagmanScheduler
from repro.observe.bus import EventBus, EventRecorder
from repro.observe.log import event_to_json
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
from repro.sim.engine import Simulator
from repro.sim.grid import GridConfig, GridSiteConfig, OpportunisticGrid
from repro.sim.rng import RngStreams
from tests.oracles.rescan_grid import RescanGrid

SOFTWARE = "has_python and has_biopython and has_cap3"

#: Indexable shapes, a ``speed``-referencing one (woken by every
#: release) and one nothing in any pool satisfies (the hold path).
REQUIREMENTS = (
    None,
    "has_python",
    SOFTWARE,
    "has_cap3 or has_biopython",
    "site == 'site-a'",
    "speed > 1.2 and has_python",
    "has_python and has_fpga",
)

FAULT_PLANS = (
    None,
    FaultPlan((StartFailure(0.2), Eviction(1 / 4000.0),
               Slowdown(0.3, 2.5), Hang(0.1))),
    # Every early arrival dies: with a low threshold the whole pool is
    # blocked and dispatch parks on the cooldown timer.
    FaultPlan((SiteOutage("site-a", 0.0, 1200.0),
               SiteOutage("site-b", 0.0, 1200.0))),
)

BLACKLISTS = (
    None,
    BlacklistPolicy(threshold=1, cooldown_s=400.0),
    BlacklistPolicy(threshold=3, cooldown_s=900.0, site_threshold=6),
)


@st.composite
def scenarios(draw):
    sites = (
        GridSiteConfig(
            "site-a", draw(st.integers(1, 5)),
            software_prob=draw(st.sampled_from([0.3, 0.6, 0.9])),
        ),
        GridSiteConfig(
            "site-b", draw(st.integers(0, 4)), speed_mean=1.4,
            software_prob=draw(st.sampled_from([0.0, 0.5, 1.0])),
        ),
    )
    jobs = draw(st.lists(
        st.tuples(
            st.sampled_from(REQUIREMENTS),
            st.sampled_from(["run_cap3", "merge_joined"]),
            st.floats(50.0, 2500.0),
        ),
        min_size=2, max_size=24,
    ))
    return {
        "sites": sites,
        "jobs": jobs,
        "chained": draw(st.booleans()),
        "plan": draw(st.sampled_from(FAULT_PLANS)),
        "policy": draw(st.sampled_from(BLACKLISTS)),
        "seed": draw(st.integers(0, 10_000)),
    }


def _run(grid_cls, scenario):
    simulator = Simulator()
    streams = RngStreams(seed=scenario["seed"])
    bus = EventBus()
    recorder = EventRecorder(bus)
    kwargs = {}
    if scenario["plan"] is not None:
        kwargs["injector"] = FaultInjector(
            scenario["plan"], rng=streams.stream("faults"), bus=bus
        )
    if scenario["policy"] is not None:
        kwargs["blacklist"] = Blacklist(scenario["policy"], bus=bus)
    env = grid_cls(
        simulator, GridConfig(sites=scenario["sites"]),
        streams=streams, bus=bus, **kwargs,
    )
    dag = Dag()
    for i, (requirements, transformation, runtime) in enumerate(
        scenario["jobs"]
    ):
        dag.add_job(DagJob(
            f"j{i:02d}", transformation, runtime=runtime,
            needs_setup=i % 3 != 0, retries=25,
            requirements=requirements, timeout_s=6000.0,
        ))
        if scenario["chained"] and i >= 4 and i % 4 == 0:
            dag.add_edge(f"j{i - 4:02d}", f"j{i:02d}")
    scheduler = DagmanScheduler(dag, env, bus=bus)
    scheduler.start()
    env.run_until_complete()
    result = scheduler.finish()
    observed = {
        "events": [event_to_json(e) for e in recorder.events],
        "trace": [
            (a.job_name, a.machine, a.attempt, a.submit_time, a.setup_start,
             a.exec_start, a.exec_end, a.status, a.error)
            for a in result.trace
        ],
        "success": result.success,
        "counters": (
            env.start_failure_count, env.eviction_count, env.timeout_count,
            env.peak_busy, env.busy_slots, env.occupied_slots,
            env.queue_status(), env.matchmaker.free_names(),
        ),
        "engine_events": simulator.processed,
    }
    return observed, env.matchmaker.stats.finds


@given(scenarios())
@settings(max_examples=60, deadline=None)
def test_wait_index_matches_the_every_attempt_walk(scenario):
    want, oracle_finds = _run(RescanGrid, scenario)
    got, finds = _run(OpportunisticGrid, scenario)
    assert got == want
    assert finds <= oracle_finds
