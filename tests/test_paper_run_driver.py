"""A simulated paper run has one driver.

``simulate_paper_run`` plans the workflow and hands it to
``repro.resilience.recovery.run_simulated``, the assembly ``repro-run``
uses too; one round of its recovery loop must be the hand-driven
DAGMan round kept in ``tests/oracles/plain_paper_run.py`` — event for
event, field for field, attempt for attempt.
"""

import pytest

from repro.core.workflow_factory import simulate_paper_run
from repro.observe.bus import EventBus, EventRecorder
from repro.observe.events import EventKind
from repro.resilience.faults import FaultPlan, StartFailure
from repro.sim import CampusClusterConfig, CloudConfig, GridConfig
from repro.wms.planner import PlannerOptions
from tests.oracles.plain_paper_run import plain_paper_run
from tests.test_service_tags import fields

N = 12


def run(driver, platform, seed, **kwargs):
    bus = EventBus()
    recorder = EventRecorder(bus)
    result, planned = driver(N, platform, seed=seed, bus=bus, **kwargs)
    return result, planned, [fields(e) for e in recorder.events]


def assert_same_round(outcome, result):
    assert outcome.success == result.success
    assert len(outcome.rounds) == 1
    assert outcome.final.states == result.states
    assert [a.to_json() for a in outcome.trace] == [
        a.to_json() for a in result.trace
    ]
    assert outcome.trace.retry_count == result.trace.retry_count
    assert outcome.trace.wall_time() == result.trace.wall_time()


@pytest.mark.parametrize("sample_interval_s", [None, 300.0],
                         ids=["no-sampler", "sampler"])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("platform", ["sandhills", "osg", "cloud"])
def test_one_round_is_the_plain_driver(platform, seed, sample_interval_s):
    outcome, planned, events = run(
        simulate_paper_run, platform, seed,
        sample_interval_s=sample_interval_s, max_rounds=1,
    )
    result, oracle_planned, oracle_events = run(
        plain_paper_run, platform, seed, sample_interval_s=sample_interval_s
    )
    assert outcome.success
    assert events == oracle_events
    assert_same_round(outcome, result)
    assert planned.dag.to_json() == oracle_planned.dag.to_json()
    sampled = any(e[0] is EventKind.SAMPLE for e in events)
    assert sampled == (sample_interval_s is not None)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_a_failed_round_adds_only_the_closing_rescue_event(seed):
    chaos = dict(fault_plan=FaultPlan((StartFailure(0.6),)),
                 planner_options=PlannerOptions(retries=1))
    outcome, _, events = run(simulate_paper_run, "osg", seed,
                             max_rounds=1, **chaos)
    result, _, oracle_events = run(plain_paper_run, "osg", seed, **chaos)
    assert not outcome.success
    assert events[:-1] == oracle_events
    kind, *_, detail, record = events[-1]
    assert kind is EventKind.RESCUE and record is None
    assert dict(detail)["resubmitting"] is False
    assert_same_round(outcome, result)


def test_a_config_replaces_the_calibrated_defaults():
    config = CampusClusterConfig(group_slots=3)
    outcome, _, events = run(simulate_paper_run, "sandhills", 0,
                             config=config, max_rounds=1)
    result, _, oracle_events = run(plain_paper_run, "sandhills", 0,
                                   config=config)
    assert events == oracle_events
    assert_same_round(outcome, result)
    assert outcome.final.environment.config is config


@pytest.mark.parametrize("platform, config", [
    ("sandhills", GridConfig()),
    ("osg", CloudConfig()),
    ("cloud", CampusClusterConfig()),
])
def test_a_config_of_another_platform_is_refused(platform, config):
    with pytest.raises(ValueError, match=f"site {platform!r} takes a "):
        simulate_paper_run(N, platform, config=config)
