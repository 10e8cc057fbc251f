"""The indexed matchmaker, pinned to the linear-scan oracle.

Same pattern as the scheduler rewrite (LegacyRescanScheduler): the
historical O(pool) scan stays in ``tests/oracles/`` as
``LinearMatchmaker``, the per-bucket heaps the index replaced as
``BucketHeapMatchmaker``, and property tests drive all three
implementations through identical claim/release/find histories,
asserting machine-for-machine agreement
— plus the dispatch-path bugfix regressions from PR 9 (memoized job
ads, shared blocked set, cached matchability, in-method redispatch
guard)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dagman.condor import ClassAd
from repro.dagman.dag import Dag, DagJob
from repro.dagman.scheduler import DagmanScheduler
from repro.observe.bus import EventBus, EventRecorder
from repro.resilience.blacklist import Blacklist, BlacklistPolicy
from repro.sim.engine import Simulator
from repro.sim.failures import NO_FAILURES
from repro.sim.grid import GridConfig, GridSiteConfig, OpportunisticGrid
from repro.sim.machine import MachineSpec
from repro.sim.matchmaker import IndexedMatchmaker, Matchmaker
from repro.sim.rng import RngStreams
from tests.oracles.bucket_heap_matchmaker import BucketHeapMatchmaker
from tests.oracles.linear_matchmaker import LinearMatchmaker


def _machine(name, site="s1", speed=1.0, software=frozenset()):
    return MachineSpec(name=name, site=site, speed=speed,
                       software=frozenset(software))


def _job_ad(name="job", requirements=None, rank="speed"):
    return ClassAd(
        name=name,
        attributes={"transformation": "blast2cap3"},
        requirements=requirements,
        rank=rank,
    )


SOFTWARE = ("has_python", "has_biopython", "has_cap3")

#: Requirement expressions that cover the indexable shapes (software
#: predicates, site equality) and the fallback shapes (speed bounds).
REQUIREMENTS = st.sampled_from([
    None,
    "has_python",
    "has_python and has_biopython",
    "has_python and has_biopython and has_cap3",
    "has_cap3 or has_biopython",
    "not has_python",
    "site == 's1'",
    "site == 's2' and has_python",
    "speed > 1.0",          # references speed: indexed must fall back
    "speed >= 0.5 and has_python",
])


@st.composite
def pools(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    machines = []
    for i in range(n):
        machines.append(_machine(
            f"m{i:02d}",
            site=draw(st.sampled_from(["s1", "s2"])),
            speed=draw(st.sampled_from([0.5, 1.0, 1.0, 1.5, 2.0])),
            software=draw(st.frozensets(st.sampled_from(SOFTWARE))),
        ))
    return machines


#: Indexable classes whose accepting sets overlap on every pool: each
#: one's buckets are a subset of ``None``'s, and the two software sets
#: share every bucket with both packages.
OVERLAPPING = ("has_python", "has_python and has_biopython", None)


@st.composite
def histories(draw):
    """Long claim/release churn: find(+claim), blocked find(+claim) —
    the linear pass, which claims under every heap's feet — release of
    any claimed machine, and matchable; at least the three overlapping
    classes of :data:`OVERLAPPING` besides whatever else is drawn."""
    classes = draw(st.lists(REQUIREMENTS, max_size=3)) + list(OVERLAPPING)
    return draw(st.lists(
        st.tuples(
            st.sampled_from(["find", "find", "blocked", "release",
                             "release", "matchable"]),
            st.sampled_from(classes),
            st.integers(min_value=0, max_value=255),
        ),
        min_size=1, max_size=200,
    ))


def _assert_heaps_bounded(indexed):
    for heap in indexed._heaps.values():
        assert len(heap.entries) <= heap.bound


def _run_history(machines, ops, *, check_heaps=True):
    """Drive the index and both oracles through ``ops``, asserting the
    same pick from all three at every find."""
    linear = LinearMatchmaker(machines)
    buckets = BucketHeapMatchmaker(machines)
    indexed = IndexedMatchmaker(machines)
    sides = (linear, buckets, indexed)
    claimed: list[str] = []
    for op, req, k in ops:
        ad = _job_ad(requirements=req)
        if op in ("find", "blocked"):
            blocked = frozenset()
            if op == "blocked":
                blocked = frozenset(
                    name for i, name in enumerate(linear.free_names())
                    if k >> (i % 8) & 1
                )
            want = linear.find(ad, blocked=blocked)
            assert buckets.find(ad, blocked=blocked) == want
            assert indexed.find(ad, blocked=blocked) == want
            if want is not None:
                for mm in sides:
                    mm.claim(want)
                claimed.append(want)
        elif op == "release" and claimed:
            name = claimed.pop(k % len(claimed))
            for mm in sides:
                mm.release(name)
        elif op == "matchable":
            assert indexed.matchable(ad) == linear.matchable(ad)
        assert indexed.free_names() == linear.free_names()
        if check_heaps:
            _assert_heaps_bounded(indexed)
    return indexed


class TestOracleEquivalence:
    @given(pools(), histories())
    @settings(max_examples=120, deadline=None)
    def test_indexed_matches_linear_machine_for_machine(self, machines, ops):
        # Both oracles, machine for machine, and every shared heap
        # within its compaction bound after every step.
        _run_history(machines, ops)

    def test_compaction_bounds_heaps_under_overlapping_churn(
        self, monkeypatch
    ):
        # The adversarial history: the all-bucket class builds its heap
        # once and is never asked again, while a narrower class and
        # blocked passes claim and release underneath it. Every release
        # pushes onto the idle heap; nothing pops it.
        machines = [
            _machine(f"m{i}", speed=1.0 + i, software={"has_python"})
            for i in range(3)
        ] + [_machine("bare", speed=9.0)]
        ops = [("find", None, 0), ("release", None, 0)]
        for k in range(40):
            ops += [("find" if k % 2 else "blocked", "has_python", 1),
                    ("release", None, k)]
        indexed = _run_history(machines, ops)
        assert indexed.stats.bucket_probes > 0
        monkeypatch.setattr(IndexedMatchmaker, "_compact", lambda *_: None)
        with pytest.raises(AssertionError):
            _run_history(machines, ops)
        unbounded = _run_history(machines, ops, check_heaps=False)
        assert max(len(h.entries) for h in unbounded._heaps.values()) > 40

    @given(pools())
    @settings(max_examples=50, deadline=None)
    def test_blocked_set_equivalence(self, machines):
        linear = LinearMatchmaker(machines)
        indexed = IndexedMatchmaker(machines)
        blocked = frozenset(m.name for m in machines[::2])
        for req in (None, "has_python", "site == 's1'"):
            ad = _job_ad(requirements=req)
            assert indexed.find(ad, blocked=blocked) == linear.find(
                ad, blocked=blocked
            )

    def test_rank_ties_break_by_free_order(self):
        # Equal speeds: the oracle keeps the earliest free machine.
        machines = [_machine(f"m{i}", speed=1.0) for i in range(4)]
        linear = LinearMatchmaker(machines)
        indexed = IndexedMatchmaker(machines)
        ad = _job_ad()
        assert linear.find(ad) == indexed.find(ad) == "m0"
        for mm in (linear, indexed):
            mm.claim("m0")
            mm.release("m0")  # now youngest: goes behind m1..m3
        assert linear.find(ad) == indexed.find(ad) == "m1"

    def test_non_speed_rank_falls_back_identically(self):
        machines = [
            _machine("a", speed=2.0),
            _machine("b", speed=1.0, software={"has_python"}),
        ]
        linear = LinearMatchmaker(machines)
        indexed = IndexedMatchmaker(machines)
        # rank=None scores every machine 0: earliest free wins, not
        # the fastest.
        ad = _job_ad(rank=None)
        assert linear.find(ad) == indexed.find(ad) == "a"
        assert indexed.stats.linear_fallbacks == 1

    def test_malformed_requirements_raise_on_both(self):
        machines = [_machine("a")]
        for mm in (LinearMatchmaker(machines), IndexedMatchmaker(machines)):
            for _ in range(2):  # every call: a failure is never cached
                with pytest.raises(SyntaxError):
                    mm.find(_job_ad(requirements="has_python and"))
                with pytest.raises(ValueError, match="disallowed"):
                    mm.find(_job_ad(requirements="has_python.real"))
                with pytest.raises(SyntaxError):
                    mm.matchable(_job_ad(requirements="has_python and"))
            # Nothing free, nothing to evaluate: neither side raises.
            mm.claim("a")
            assert mm.find(_job_ad(requirements="has_python and")) is None


class TestCaching:
    def test_matchable_verdict_cached_until_pool_changes(self):
        machines = [_machine("a", software={"has_python"})]
        indexed = IndexedMatchmaker(machines)
        ad = _job_ad(requirements="has_cap3")
        assert not indexed.matchable(ad)
        # The verdict is memoized: repeated admission checks hit the
        # cache (we poison it to prove subsequent calls never
        # re-evaluate), and stay off the O(pool) scan path entirely.
        key = next(iter(indexed._matchable_cache))
        indexed._matchable_cache[key] = True
        assert indexed.matchable(ad) is True
        indexed._matchable_cache[key] = False
        assert indexed.stats.matchable_scans == 0

    def test_linear_oracle_keeps_uncached_scans(self):
        machines = [_machine(f"m{i}") for i in range(10)]
        linear = LinearMatchmaker(machines)
        ad = _job_ad(requirements="has_cap3")
        for _ in range(3):
            linear.matchable(ad)
        assert linear.stats.matchable_scans == 3

    def test_duplicate_machine_refused(self):
        with pytest.raises(ValueError):
            LinearMatchmaker([_machine("a"), _machine("a")])

    def test_grid_builds_one_ticket_per_job_class(self):
        # 30 attempts of three (requirements, transformation) classes:
        # three ads, one admission check (the only class with
        # requirements), and one heap per distinct accepting set.
        grid = OpportunisticGrid(
            Simulator(), GridConfig(wait_spike_prob=0.0, failures=NO_FAILURES),
            streams=RngStreams(seed=2),
        )
        done = []
        for i in range(30):
            grid.submit(DagJob(
                name=f"j{i}", transformation="merge" if i % 3 else "split",
                runtime=10.0,
                requirements=(
                    "has_python and has_biopython and has_cap3"
                    if i % 3 == 2 else None
                ),
            ), done.append)
        grid.run_until_complete()
        assert len(done) == 30
        assert sorted(ad.name for ad, _, _ in grid._wait_classes.values()) == [
            "merge[]", "merge[has_python and has_biopython and has_cap3]",
            "split[]",
        ]
        stats = grid.matchmaker.stats
        assert stats.matchable_calls == 1 and stats.matchable_scans == 0
        assert len(grid.matchmaker._heaps) == 2


class TestDispatchCostRegression:
    """Satellite 1: a non-matching head-of-line job must not cost
    O(pool) per queued neighbor per pass."""

    def test_indexed_find_scans_no_ads(self):
        # 200 machines, 2 capability buckets. A job nothing free
        # matches probes 2 buckets, not 200 ads.
        machines = [
            _machine(f"m{i:03d}",
                     software={"has_python"} if i % 2 else frozenset())
            for i in range(200)
        ]
        indexed = IndexedMatchmaker(machines)
        ad = _job_ad(requirements="has_cap3")
        for _ in range(100):
            assert indexed.find(ad) is None
        assert indexed.stats.ads_scanned == 0
        assert indexed.stats.bucket_probes <= 100 * 2

        linear = LinearMatchmaker(machines)
        for _ in range(100):
            assert linear.find(ad) is None
        assert linear.stats.ads_scanned == 100 * 200

    def test_grid_dispatch_passes_do_not_rescan_pool(self):
        # One software-rich slot, many bare slots. Jobs requiring the
        # software serialize on that slot: every completion re-runs
        # _dispatch over the whole waiting queue. Indexed matchmaking
        # must do that without any per-ad scans.
        sites = (GridSiteConfig("rich", 1, software_prob=1.0),
                 GridSiteConfig("bare", 80, software_prob=0.0))
        config = GridConfig(sites=sites, wait_spike_prob=0.0,
                            failures=NO_FAILURES)
        simulator = Simulator()
        grid = OpportunisticGrid(
            simulator, config, streams=RngStreams(seed=7)
        )
        dag = Dag()
        for i in range(20):
            dag.add_job(DagJob(
                name=f"j{i}", transformation="blast2cap3", runtime=50.0,
                retries=3,
                requirements="has_python and has_biopython and has_cap3",
            ))
        result = DagmanScheduler(dag, grid).run()
        assert result.success
        stats = grid.matchmaker.stats
        assert stats.ads_scanned == 0
        assert stats.linear_fallbacks == 0
        # Queue of ~20 entries, ~3 buckets (rich + bare speeds bucket by
        # identical non-speed attrs; sites differ → at most a handful),
        # ~20 passes: probes stay far below queue × pool.
        assert stats.bucket_probes < 20 * 20 * 10


class TestRedispatchGuard:
    """Satellite 3: the redispatch timer guard lives in the method (the
    guard itself is one row of ``tests/test_platform_kernel.py``)."""

    def _grid_with_blacklist(self):
        simulator = Simulator()
        blacklist = Blacklist(
            BlacklistPolicy(threshold=1, cooldown_s=500.0)
        )
        config = GridConfig(
            sites=(GridSiteConfig("s", 4, software_prob=1.0),)
        )
        grid = OpportunisticGrid(
            simulator, config, streams=RngStreams(seed=3),
            blacklist=blacklist,
        )
        return simulator, grid, blacklist

    def test_redispatch_after_queue_drained_is_noop(self):
        simulator, grid, blacklist = self._grid_with_blacklist()
        blacklist.record_start_failure("x", "s", now=0.0)
        grid._schedule_redispatch()  # queue is empty the whole time
        free_before = grid.matchmaker.free_names()
        simulator.run()
        assert not grid._redispatch_pending
        assert grid.matchmaker.free_names() == free_before
        assert grid.busy_slots == 0


def _run_grid_trace(matchmaker: type[Matchmaker], *, seed: int = 11):
    simulator = Simulator()
    bus = EventBus()
    recorder = EventRecorder(bus)
    grid = OpportunisticGrid(
        simulator, GridConfig(), streams=RngStreams(seed=seed), bus=bus
    )
    # Swapped in before the first submit: the pool is untouched so far.
    grid.matchmaker = matchmaker(grid._machines)
    dag = Dag()
    for i in range(60):
        req = (
            "has_python and has_biopython and has_cap3"
            if i % 3 == 0
            else None
        )
        dag.add_job(DagJob(
            name=f"j{i:02d}", transformation="blast2cap3",
            runtime=100.0 + 7 * i, retries=8, needs_setup=(i % 3 != 0),
            requirements=req,
        ))
    for i in range(0, 50, 5):
        dag.add_edge(f"j{i:02d}", f"j{i + 5:02d}")
    result = DagmanScheduler(dag, grid).run()
    return result, recorder.sequence(), grid


class TestGridTraceParity:
    def test_indexed_grid_run_identical_to_linear(self):
        r_lin, seq_lin, g_lin = _run_grid_trace(LinearMatchmaker)
        r_idx, seq_idx, g_idx = _run_grid_trace(IndexedMatchmaker)
        assert r_lin.success and r_idx.success
        assert seq_idx == seq_lin
        assert r_idx.wall_time == r_lin.wall_time
        assert [
            (a.job_name, a.machine, a.attempt, a.exec_end)
            for a in r_idx.trace
        ] == [
            (a.job_name, a.machine, a.attempt, a.exec_end)
            for a in r_lin.trace
        ]
        # And the rewrite actually changed the work profile.
        assert g_lin.matchmaker.stats.ads_scanned > 0
        assert g_idx.matchmaker.stats.ads_scanned == 0

    @given(st.integers(min_value=0, max_value=30))
    @settings(max_examples=10, deadline=None)
    def test_parity_across_seeds(self, seed):
        r_lin, seq_lin, _ = _run_grid_trace(LinearMatchmaker, seed=seed)
        r_idx, seq_idx, _ = _run_grid_trace(IndexedMatchmaker, seed=seed)
        assert seq_idx == seq_lin
        assert r_idx.wall_time == r_lin.wall_time
