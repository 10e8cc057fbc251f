"""Resource-feasibility pass: can the pools actually run this plan?

The catalog pass (CAT002) checks requirements against what a site
*guarantees*; this pass checks them against what a site can *possibly*
provide. A :class:`SitePool` is a static descriptor of one execution
pool — slot count, speed range, which software attributes at least one
slot may advertise, and the site's failure model — derived from the
same simulator configurations that later execute the plan
(:class:`~repro.sim.cluster.CampusClusterConfig`,
:class:`~repro.sim.grid.GridConfig`,
:class:`~repro.sim.cloud.CloudConfig`), so the linter and the
simulators cannot drift apart.

Four rules:

* **RES001** (error) — a job's ClassAd requirements match no machine in
  *any* pool, even under the most optimistic assignment of attributes;
  the finding names the job and the closest missing capability (the
  single attribute that, if provided, would make the job matchable).
  On the real OSG such a job idles for the unmatched timeout and fails.
* **RES002** (warning) — the workflow's peak parallelism exceeds the
  target pool's slot count: the widest wave executes in serial waves.
* **RES003** (warning) — under the pool's failure model (Bernoulli
  dead-on-arrival + exponential eviction, PR 3), the probability that a
  job exhausts its whole retry budget is above threshold; the finding
  proves the budget insufficient and states the needed one.
* **RES004** (error) — a job's timeout is below its runtime on the
  *fastest* modeled slot: every attempt is provably killed.

Pools can be overridden (``lint(pools=...)``) or doctored from a JSON
file (``repro-lint --pools doctored.json``) to ask "what if the pool
had no CAP3?" without touching the simulators.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Mapping

from repro.dagman.condor import ClassAd, evaluate_requirements
from repro.lint.findings import Finding, Severity
from repro.lint.registry import LintContext, finding, rule
from repro.sim.failures import NO_FAILURES, FailureModel
from repro.sim.machine import SOFTWARE_ATTRS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.wms.catalogs import SiteCatalog, SiteEntry

__all__ = [
    "SitePool",
    "default_pools",
    "pools_from_mapping",
    "never_matchable",
    "closest_missing_capability",
    "attempt_failure_probability",
    "retry_exhaustion_probability",
]

#: A job whose probability of exhausting every retry exceeds this is
#: flagged by RES003.
EXHAUSTION_THRESHOLD = 0.01


@dataclass(frozen=True)
class SitePool:
    """Static description of one execution pool for feasibility proofs."""

    site: str
    #: concurrent slots; None = elastic/unknown (RES002 stays quiet)
    slots: int | None
    speed_min: float
    speed_max: float
    #: software attributes at least one slot may advertise True
    software: tuple[str, ...]
    failures: FailureModel = NO_FAILURES
    #: where the descriptor came from ("simulator", "synthesized", "override")
    source: str = "simulator"

    def __post_init__(self) -> None:
        if self.speed_min <= 0 or self.speed_max < self.speed_min:
            raise ValueError("need 0 < speed_min <= speed_max")
        if self.slots is not None and self.slots < 1:
            raise ValueError("slots must be >= 1 (or None)")

    def optimistic_ad(self) -> ClassAd:
        """The best machine this pool could possibly offer: top speed,
        every possibly-available software attribute present."""
        attrs: dict[str, object] = {
            "site": self.site,
            "speed": self.speed_max,
        }
        for attr in SOFTWARE_ATTRS:
            attrs[attr] = attr in self.software
        for attr in self.software:
            attrs.setdefault(attr, True)
        return ClassAd(name=f"{self.site}-optimistic", attributes=attrs)


def default_pools(
    sites: "SiteCatalog | None" = None,
) -> dict[str, SitePool]:
    """Pools for the modeled platforms, from the simulator configs.

    Unknown sites in ``sites`` get a synthesized fail-open descriptor
    (all software possible, unbounded slots) so feasibility errors are
    only raised about pools we actually model.
    """
    from repro.sim.cloud import CloudConfig
    from repro.sim.cluster import CampusClusterConfig
    from repro.sim.grid import GridConfig

    campus = CampusClusterConfig()
    pools: dict[str, SitePool] = {
        campus.name: SitePool(
            site=campus.name,
            slots=campus.group_slots,
            speed_min=campus.speed_mean * (1 - campus.speed_spread),
            speed_max=campus.speed_mean * (1 + campus.speed_spread),
            software=SOFTWARE_ATTRS,
            failures=NO_FAILURES,
        )
    }
    grid = GridConfig().with_sites()
    pools[grid.name] = SitePool(
        site=grid.name,
        slots=sum(s.slots for s in grid.sites),
        speed_min=min(
            s.speed_mean * (1 - s.speed_spread) for s in grid.sites
        ),
        speed_max=max(
            s.speed_mean * (1 + s.speed_spread) for s in grid.sites
        ),
        software=tuple(
            attr
            for attr in SOFTWARE_ATTRS
            if any(s.software_prob > 0 for s in grid.sites)
        ),
        failures=grid.failures,
    )
    cloud = CloudConfig()
    pools[cloud.name] = SitePool(
        site=cloud.name,
        slots=cloud.max_instances,
        speed_min=cloud.instance_type.speed,
        speed_max=cloud.instance_type.speed,
        software=SOFTWARE_ATTRS,  # baked into the machine image
        failures=cloud.failures,
    )
    pools["local"] = SitePool(
        site="local",
        slots=None,
        speed_min=1.0,
        speed_max=1.0,
        software=SOFTWARE_ATTRS,
        failures=NO_FAILURES,
    )
    if sites is not None:
        for _lfn_site in _site_entries(sites):
            if _lfn_site.name not in pools:
                pools[_lfn_site.name] = _synthesize(_lfn_site)
    return pools


def _site_entries(sites: "SiteCatalog") -> list["SiteEntry"]:
    return list(sites)


def _synthesize(site: "SiteEntry") -> SitePool:
    """Fail-open descriptor for a site with no simulator model."""
    from repro.sim.grid import GridConfig

    preemptible = not site.shared_filesystem and not site.software_preinstalled
    return SitePool(
        site=site.name,
        slots=None,
        speed_min=0.5,
        speed_max=2.0,
        software=SOFTWARE_ATTRS,
        failures=GridConfig().failures if preemptible else NO_FAILURES,
        source="synthesized",
    )


#: The fields a pool override may set.
_POOL_KEYS = ("slots", "speed_min", "speed_max", "software",
             "start_failure_prob", "eviction_rate_per_s")


def pools_from_mapping(
    overrides: Mapping[str, Mapping[str, Any]],
    *,
    base: Mapping[str, SitePool] | None = None,
) -> dict[str, SitePool]:
    """Merge JSON-style pool overrides over the defaults.

    ``{"osg": {"software": ["has_python", "has_biopython"]}}`` doctors
    the OSG pool into one where no slot has CAP3; unspecified fields
    keep their default values. Failure models are overridden via
    ``start_failure_prob`` / ``eviction_rate_per_s`` keys. A value of
    the wrong shape — not an object, an unknown key, ``software`` that
    is not a list of names, non-integer ``slots``, a non-numeric speed
    or probability — is a ``ValueError`` naming the site and the key.
    """
    if not isinstance(overrides, Mapping):
        raise ValueError("pools must be an object of site -> pool fields, "
                         f"got {type(overrides).__name__}")
    pools = dict(base if base is not None else default_pools())
    for site, fields in overrides.items():
        if not isinstance(fields, Mapping):
            raise ValueError(f"pool {site!r}: want an object of pool fields, "
                             f"got {type(fields).__name__}")
        for key in fields:
            if key not in _POOL_KEYS:
                raise ValueError(f"pool {site!r}: unknown key {key!r} "
                                 f"(known: {', '.join(_POOL_KEYS)})")
        old = pools.get(site)
        failures = old.failures if old is not None else NO_FAILURES
        slots = _pool_slots(site, fields, old.slots if old else None)
        speed_min = _pool_number(site, fields, "speed_min",
                                 old.speed_min if old else 1.0)
        speed_max = _pool_number(site, fields, "speed_max",
                                 old.speed_max if old else 1.0)
        software = _pool_software(site, fields,
                                  old.software if old else SOFTWARE_ATTRS)
        start_failure_prob = _pool_number(site, fields, "start_failure_prob",
                                          failures.start_failure_prob)
        eviction_rate_per_s = _pool_number(site, fields, "eviction_rate_per_s",
                                           failures.eviction_rate_per_s)
        try:
            pools[site] = SitePool(
                site=site,
                slots=slots,
                speed_min=speed_min,
                speed_max=speed_max,
                software=software,
                failures=FailureModel(start_failure_prob, eviction_rate_per_s),
                source="override",
            )
        except ValueError as exc:  # a value out of its range
            raise ValueError(f"pool {site!r}: {exc}") from None
    return pools


def _pool_number(site: str, fields: Mapping[str, Any], key: str,
                 default: float) -> float:
    value = fields.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"pool {site!r}: {key!r} must be a number, "
                         f"got {value!r}")
    return float(value)


def _pool_slots(site: str, fields: Mapping[str, Any],
                default: int | None) -> int | None:
    value = fields.get("slots", default)
    if value is not None and (isinstance(value, bool)
                              or not isinstance(value, int)):
        raise ValueError(f"pool {site!r}: 'slots' must be an integer or "
                         f"null, got {value!r}")
    return value


def _pool_software(site: str, fields: Mapping[str, Any],
                   default: tuple[str, ...]) -> tuple[str, ...]:
    value = fields.get("software", default)
    if not isinstance(value, (list, tuple)) or not all(
            isinstance(name, str) for name in value):
        raise ValueError(f"pool {site!r}: 'software' must be a list of "
                         f"capability names, got {value!r}")
    return tuple(value)


# -- symbolic matching --------------------------------------------------


def _matches(expr: str, ad: ClassAd) -> bool:
    """``evaluate_requirements`` that fails closed on malformed
    expressions (an unparseable requirement matches nothing)."""
    try:
        return evaluate_requirements(expr, ad)
    except (SyntaxError, ValueError, TypeError):
        return False


def never_matchable(
    expr: str, pools: Mapping[str, SitePool]
) -> bool:
    """True when no pool's most optimistic machine satisfies ``expr``."""
    return not any(
        _matches(expr, pool.optimistic_ad()) for pool in pools.values()
    )


def _referenced_names(expr: str) -> list[str]:
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError:
        return []
    return sorted(
        {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name)
        }
    )


def closest_missing_capability(
    expr: str, pools: Mapping[str, SitePool]
) -> str | None:
    """The single attribute that would make ``expr`` matchable.

    Tries granting each referenced attribute (set True) on each pool's
    optimistic ad; the first grant that satisfies the expression is the
    closest missing capability. Returns None when no single grant
    suffices (the requirements are off by more than one capability).
    """
    for name in _referenced_names(expr):
        for pool in pools.values():
            ad = pool.optimistic_ad()
            granted = ClassAd(
                name=ad.name, attributes={**ad.attributes, name: True}
            )
            if _matches(expr, granted):
                return name
    return None


# -- failure-model arithmetic -------------------------------------------


def attempt_failure_probability(
    runtime_s: float, pool: SitePool
) -> float:
    """P(one attempt fails) on the pool's *slowest* slot: dead-on-arrival
    or evicted before the (speed-scaled) payload completes."""
    model = pool.failures
    if runtime_s <= 0:
        return model.start_failure_prob
    effective = runtime_s / pool.speed_min
    p_evict = 1.0 - math.exp(-model.eviction_rate_per_s * effective)
    return model.start_failure_prob + (
        1.0 - model.start_failure_prob
    ) * p_evict


def retry_exhaustion_probability(
    runtime_s: float, retries: int, pool: SitePool
) -> float:
    """P(all ``retries + 1`` attempts fail) for one job."""
    return attempt_failure_probability(runtime_s, pool) ** (retries + 1)


def _needed_retries(
    runtime_s: float, pool: SitePool, threshold: float
) -> int | None:
    """Smallest retry budget keeping exhaustion below ``threshold``."""
    p = attempt_failure_probability(runtime_s, pool)
    if p <= 0:
        return 0
    if p >= 1:
        return None
    attempts = math.ceil(math.log(threshold) / math.log(p))
    return max(0, attempts - 1)


# -- rules ---------------------------------------------------------------


@rule(
    "RES001",
    Severity.ERROR,
    "requirements match no machine in any pool",
    requires=("planned", "pools"),
)
def _never_matchable_job(ctx: LintContext) -> Iterator[Finding]:
    assert ctx.planned is not None and ctx.pools is not None
    # With a known target site, only its pool can run the plan; the
    # cross-pool check is the fallback when the target is unspecified.
    pools = ctx.pools
    if ctx.site is not None and ctx.site.name in pools:
        pools = {ctx.site.name: pools[ctx.site.name]}
    by_expr: dict[str, list[str]] = {}
    for name in sorted(ctx.planned.dag.jobs):
        req = ctx.planned.dag.jobs[name].requirements
        if req and never_matchable(req, pools):
            by_expr.setdefault(req, []).append(name)
    pool_names = ", ".join(sorted(pools))
    for expr in sorted(by_expr):
        jobs = by_expr[expr]
        shown = ", ".join(repr(j) for j in jobs[:3])
        if len(jobs) > 3:
            shown += f" (+{len(jobs) - 3} more)"
        missing = closest_missing_capability(expr, pools)
        if missing is not None:
            detail = (
                f"closest missing capability: {missing!r} (no modeled "
                "slot can provide it)"
            )
        else:
            unmet = ", ".join(repr(n) for n in _referenced_names(expr))
            detail = f"no single capability grant helps (refers to {unmet})"
        yield finding(
            f"job:{jobs[0]}",
            f"requirements {expr!r} of job(s) {shown} match no machine "
            f"in any modeled pool (checked: {pool_names}); {detail}. "
            "On a real pool these jobs idle until the unmatched timeout "
            "and fail",
            "relax the requirements, extend the pool, or plan with "
            'setup_mode="auto" so jobs install their own software',
        )


@rule(
    "RES002",
    Severity.WARNING,
    "peak parallelism oversubscribes the pool",
    requires=("planned", "site", "pools"),
)
def _oversubscription(ctx: LintContext) -> Iterator[Finding]:
    assert (
        ctx.planned is not None
        and ctx.site is not None
        and ctx.pools is not None
    )
    pool = ctx.pools.get(ctx.site.name)
    if pool is None or pool.slots is None:
        return
    levels = ctx.planned.dag.levels()
    width: dict[int, int] = {}
    for lvl in levels.values():
        width[lvl] = width.get(lvl, 0) + 1
    peak = max(width.values(), default=0)
    if peak > pool.slots:
        waves = math.ceil(peak / pool.slots)
        yield finding(
            f"pool:{pool.site}",
            f"peak parallelism {peak} exceeds the {pool.slots} slots of "
            f"pool {pool.site!r}: the widest wave runs in {waves} "
            "serial waves, stretching the makespan accordingly",
            "reduce the partition count, enable horizontal clustering, "
            "or target a larger pool",
        )


@rule(
    "RES003",
    Severity.WARNING,
    "retry budget provably insufficient under the failure model",
    requires=("planned", "site", "pools"),
)
def _insufficient_retries(ctx: LintContext) -> Iterator[Finding]:
    assert (
        ctx.planned is not None
        and ctx.site is not None
        and ctx.pools is not None
    )
    pool = ctx.pools.get(ctx.site.name)
    if pool is None or pool.failures is NO_FAILURES:
        return
    if (
        pool.failures.start_failure_prob <= 0
        and pool.failures.eviction_rate_per_s <= 0
    ):
        return
    at_risk: list[tuple[float, str, int]] = []
    for name in sorted(set(ctx.planned.job_map.values())):
        job = ctx.planned.dag.jobs[name]
        if job.retries < 1:
            continue  # PLAN002's case: zero retries on a preemptible site
        p_exhaust = retry_exhaustion_probability(
            job.runtime, job.retries, pool
        )
        if p_exhaust > EXHAUSTION_THRESHOLD:
            at_risk.append((p_exhaust, name, job.retries))
    if not at_risk:
        return
    worst_p, worst_name, worst_retries = max(at_risk)
    worst_job = ctx.planned.dag.jobs[worst_name]
    needed = _needed_retries(
        worst_job.runtime, pool, EXHAUSTION_THRESHOLD
    )
    needed_txt = (
        f"retries={needed} would keep it below "
        f"{EXHAUSTION_THRESHOLD:.0%}"
        if needed is not None
        else "no retry budget suffices; shorten the job instead"
    )
    yield finding(
        f"pool:{pool.site}",
        f"{len(at_risk)} job(s) can exhaust their retry budget under "
        f"pool {pool.site!r}'s failure model: worst is {worst_name!r} "
        f"({worst_job.runtime:.0f}s, retries={worst_retries}) with a "
        f"{worst_p:.1%} chance that every attempt is lost to "
        f"preemption; {needed_txt}",
        "raise PlannerOptions(retries=...) or split long-running "
        "partitions so attempts fit between evictions",
    )


@rule(
    "RES004",
    Severity.ERROR,
    "timeout provably unfinishable on the pool",
    requires=("planned", "site", "pools"),
)
def _unfinishable_timeout(ctx: LintContext) -> Iterator[Finding]:
    assert (
        ctx.planned is not None
        and ctx.site is not None
        and ctx.pools is not None
    )
    pool = ctx.pools.get(ctx.site.name)
    if pool is None:
        return
    for name in sorted(ctx.planned.dag.jobs):
        job = ctx.planned.dag.jobs[name]
        if job.timeout_s is None or job.runtime <= 0:
            continue
        best_case = job.runtime / pool.speed_max
        if job.timeout_s < best_case:
            yield finding(
                f"job:{name}",
                f"job {name!r} has timeout_s={job.timeout_s:.0f} but "
                f"even pool {pool.site!r}'s fastest slot (speed "
                f"{pool.speed_max:.2f}) needs {best_case:.0f}s: every "
                "attempt is killed and the job can never finish",
                "raise PlannerOptions(timeout_s=...) above the job's "
                "best-case runtime",
            )
