"""Unit tests for the resource-feasibility pass.

Covers the pool descriptors (derived from the simulator configs, so a
config change shows up here), the symbolic ClassAd matching, the
closest-missing-capability search, and the failure-model arithmetic
that RES003's proofs rest on.
"""

from __future__ import annotations

import math

import pytest

from repro.lint.feasibility import (
    EXHAUSTION_THRESHOLD,
    SitePool,
    attempt_failure_probability,
    closest_missing_capability,
    default_pools,
    never_matchable,
    pools_from_mapping,
    retry_exhaustion_probability,
)
from repro.sim.failures import NO_FAILURES, FailureModel
from repro.sim.machine import SOFTWARE_ATTRS


class TestDefaultPools:
    def test_modeled_platforms_present(self):
        pools = default_pools()
        assert set(pools) >= {"sandhills", "osg", "cloud", "local"}

    def test_sandhills_matches_campus_config(self):
        from repro.sim.cluster import CampusClusterConfig

        cfg = CampusClusterConfig()
        pool = default_pools()["sandhills"]
        assert pool.slots == cfg.group_slots
        assert pool.speed_min == pytest.approx(
            cfg.speed_mean * (1 - cfg.speed_spread)
        )
        assert pool.failures is NO_FAILURES
        assert pool.software == SOFTWARE_ATTRS

    def test_osg_matches_the_grid_defaults(self):
        from repro.sim.grid import GridConfig

        grid = GridConfig().with_sites()
        pool = default_pools()["osg"]
        assert pool.slots == sum(s.slots for s in grid.sites)
        assert pool.failures == grid.failures
        # every software attribute is *possible* somewhere on the grid
        assert pool.software == SOFTWARE_ATTRS

    def test_unknown_site_synthesized_fail_open(self):
        from repro.wms.catalogs import CAMPUS_SHARED_FS, SiteCatalog, SiteEntry

        sites = SiteCatalog()
        sites.add(
            SiteEntry(
                name="mystery", shared_filesystem=False,
                software_preinstalled=False, network=CAMPUS_SHARED_FS,
            )
        )
        pools = default_pools(sites)
        pool = pools["mystery"]
        assert pool.source == "synthesized"
        assert pool.slots is None  # elastic: RES002 stays quiet
        assert pool.software == SOFTWARE_ATTRS

    def test_pool_validation(self):
        with pytest.raises(ValueError, match="speed_min"):
            SitePool(site="x", slots=1, speed_min=0.0, speed_max=1.0,
                     software=())
        with pytest.raises(ValueError, match="slots"):
            SitePool(site="x", slots=0, speed_min=1.0, speed_max=1.0,
                     software=())


class TestPoolOverrides:
    def test_doctoring_removes_software(self):
        pools = pools_from_mapping(
            {"osg": {"software": ["has_python", "has_biopython"]}}
        )
        assert "has_cap3" not in pools["osg"].software
        assert pools["osg"].source == "override"
        # untouched fields keep their simulator-derived values
        assert pools["osg"].slots == default_pools()["osg"].slots

    def test_failure_model_override(self):
        pools = pools_from_mapping(
            {"osg": {"start_failure_prob": 0.5}}
        )
        base = default_pools()["osg"].failures
        assert pools["osg"].failures == FailureModel(
            start_failure_prob=0.5,
            eviction_rate_per_s=base.eviction_rate_per_s,
        )

    def test_brand_new_pool(self):
        pools = pools_from_mapping(
            {"campus2": {"slots": 64, "speed_min": 0.9, "speed_max": 1.1}}
        )
        assert pools["campus2"].slots == 64
        assert pools["campus2"].software == SOFTWARE_ATTRS


SOFTWARE_REQ = "has_python and has_biopython and has_cap3"


class TestSymbolicMatching:
    def test_full_pool_matches(self):
        assert not never_matchable(SOFTWARE_REQ, default_pools())

    def test_doctored_pool_never_matches(self):
        pools = pools_from_mapping(
            {"osg": {"software": ["has_python", "has_biopython"]}},
            base={"osg": default_pools()["osg"]},
        )
        assert never_matchable(SOFTWARE_REQ, pools)

    def test_closest_missing_capability_named(self):
        pools = pools_from_mapping(
            {"osg": {"software": ["has_python", "has_biopython"]}},
            base={"osg": default_pools()["osg"]},
        )
        assert closest_missing_capability(SOFTWARE_REQ, pools) == "has_cap3"

    def test_no_single_grant_helps(self):
        pools = pools_from_mapping(
            {"osg": {"software": []}},
            base={"osg": default_pools()["osg"]},
        )
        # two capabilities short: no single grant satisfies the expr
        assert closest_missing_capability(SOFTWARE_REQ, pools) is None

    def test_unparseable_expression_fails_closed(self):
        pools = {"p": default_pools()["local"]}
        assert never_matchable("has_python and and", pools)
        assert closest_missing_capability("has_python and and", pools) is None


class TestFailureArithmetic:
    def _pool(self, **kw):
        defaults = dict(
            site="osg", slots=600, speed_min=0.77, speed_max=1.885,
            software=SOFTWARE_ATTRS,
            failures=FailureModel(
                start_failure_prob=0.04, eviction_rate_per_s=1 / 20000
            ),
        )
        defaults.update(kw)
        return SitePool(**defaults)

    def test_attempt_probability_formula(self):
        pool = self._pool()
        p = attempt_failure_probability(5000.0, pool)
        effective = 5000.0 / 0.77
        expected = 0.04 + 0.96 * (1 - math.exp(-effective / 20000))
        assert p == pytest.approx(expected)

    def test_zero_runtime_is_start_failure_only(self):
        pool = self._pool()
        assert attempt_failure_probability(0.0, pool) == pytest.approx(0.04)

    def test_no_failures_pool_never_exhausts(self):
        pool = self._pool(failures=NO_FAILURES)
        assert retry_exhaustion_probability(1e6, 0, pool) == 0.0

    def test_exhaustion_decreases_with_retries(self):
        pool = self._pool()
        ps = [
            retry_exhaustion_probability(5000.0, r, pool)
            for r in range(5)
        ]
        assert ps == sorted(ps, reverse=True)
        assert ps[0] > EXHAUSTION_THRESHOLD > ps[4]

    def test_monotone_in_runtime(self):
        pool = self._pool()
        assert attempt_failure_probability(
            10_000.0, pool
        ) > attempt_failure_probability(1_000.0, pool)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
