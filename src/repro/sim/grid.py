"""The opportunistic-grid platform model (Open Science Grid).

Paper §IV-B, §V-D and §VI attribute OSG's behaviour to four mechanisms,
each modelled explicitly and separately tunable:

* **opportunistic waiting** — slot acquisition time is erratic: a
  lognormal baseline with occasional long spikes ("the OSG user can not
  control the availability or the lack of resources over time");
* **download/install overhead** — jobs marked ``needs_setup`` pay a
  lognormal setup time before the payload starts (Fig. 3's red
  rectangles: Python + Biopython + CAP3 installation);
* **heterogeneous software** — machines advertise which prerequisites
  they have (ClassAd matchmaking); jobs that *require* pre-installed
  software (the Sandhills-style workflow) can only match a small
  fraction of the pool, and may find no resource at all;
* **preemption and failures** — a Bernoulli dead-on-arrival failure plus
  an exponential eviction hazard ("the OSG user job may be cancelled or
  held"); DAGMan's retries turn these into the paper's observed
  "failures and workflow retries".

Aggregate capacity exceeds the campus cluster's group share ("OSG
provides more computational resources"), and per-core speed is a little
higher (the paper: ignoring waiting and download/install, "OSG gives
significantly better results").

The queue, the attempt lifecycle and the ``ExecutionEnvironment``
surface are the shared :class:`~repro.sim.platform.SimPlatform` kernel;
this module is the four policies above plus the slot accounting that
only a matched-then-waiting platform needs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from functools import partial
from typing import TYPE_CHECKING

from repro.dagman.condor import ClassAd
from repro.dagman.dag import DagJob
from repro.dagman.events import JobStatus
from repro.observe.bus import EventBus
from repro.sim.engine import Simulator
from repro.sim.failures import FailureModel
from repro.sim.machine import MachineSpec, make_machines
from repro.sim.matchmaker import IndexedMatchmaker, Matchmaker
from repro.sim.platform import (
    UNMATCHED,
    Attempt,
    NoMatch,
    OnComplete,
    SimPlatform,
)
from repro.sim.rng import RngStreams, bounded_lognormal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.blacklist import Blacklist
    from repro.resilience.faults import FaultInjector

__all__ = ["GridSiteConfig", "GridConfig", "OpportunisticGrid"]


@dataclass(frozen=True)
class GridSiteConfig:
    """One contributing site (VO resources)."""

    name: str
    slots: int
    speed_mean: float = 1.3
    speed_spread: float = 0.3
    software_prob: float = 0.5

    def __post_init__(self) -> None:
        if self.slots < 0:
            raise ValueError("slots must be >= 0")


def _default_sites() -> tuple[GridSiteConfig, ...]:
    return (
        GridSiteConfig("unl-prairiefire", 120, speed_mean=1.15, software_prob=0.7),
        GridSiteConfig("fnal-gpgrid", 160, speed_mean=1.35, software_prob=0.5),
        GridSiteConfig("ucsd-t2", 100, speed_mean=1.45, software_prob=0.4),
        GridSiteConfig("mwt2", 120, speed_mean=1.30, software_prob=0.5),
        GridSiteConfig("bnl-atlas", 60, speed_mean=1.25, software_prob=0.3),
        GridSiteConfig("osg-flock", 40, speed_mean=1.10, software_prob=0.6),
    )


@dataclass(frozen=True)
class GridConfig:
    """OSG-like parameters (defaults calibrated in repro.perfmodel)."""

    name: str = "osg"
    sites: tuple[GridSiteConfig, ...] = ()
    dispatch_latency_s: float = 5.0
    wait_mean_s: float = 240.0
    wait_sigma: float = 1.1
    wait_spike_prob: float = 0.15
    wait_spike_mean_s: float = 1800.0
    wait_max_s: float = 7200.0
    setup_mean_s: float = 420.0
    setup_sigma: float = 0.45
    setup_max_s: float = 1800.0
    failures: FailureModel = FailureModel(
        start_failure_prob=0.04, eviction_rate_per_s=1.0 / 20000.0
    )
    unmatched_timeout_s: float = 6 * 3600.0

    def __post_init__(self) -> None:
        if self.unmatched_timeout_s <= 0:
            raise ValueError("unmatched_timeout_s must be positive")

    def with_sites(self) -> "GridConfig":
        if self.sites:
            return self
        return replace(self, sites=_default_sites())

    @property
    def total_slots(self) -> int:
        return sum(site.slots for site in self.sites)


class OpportunisticGrid(SimPlatform):
    """Discrete-event OSG model (an ``ExecutionEnvironment``)."""

    def __init__(
        self,
        simulator: Simulator,
        config: GridConfig = GridConfig(),
        *,
        streams: RngStreams | None = None,
        bus: EventBus | None = None,
        injector: "FaultInjector | None" = None,
        blacklist: "Blacklist | None" = None,
    ) -> None:
        """``injector`` layers a :class:`~repro.resilience.faults.FaultPlan`
        on top of the calibrated :class:`FailureModel` regime;
        ``blacklist`` is the start-failure circuit breaker — blocked
        machines are excluded from matchmaking until their cooldown
        (if any) expires."""
        self.config = config = config.with_sites()
        streams = streams or RngStreams(seed=0)
        wait_rng = streams.stream(f"{config.name}.wait")
        setup_rng = streams.stream(f"{config.name}.setup")
        failure_rng = streams.stream(f"{config.name}.failures")
        machine_rng = streams.stream(f"{config.name}.machines")

        self._machines: list[MachineSpec] = []
        for site in config.sites:
            self._machines.extend(
                make_machines(
                    machine_rng,
                    site=site.name,
                    count=site.slots,
                    speed_mean=site.speed_mean,
                    speed_spread=site.speed_spread,
                    software_prob=site.software_prob,
                )
            )
        #: Owns the pool, the free list, the machine ads, and all match
        #: caches. Public so a test or bench can swap in the linear
        #: oracle before the first submit.
        self.matchmaker: Matchmaker = IndexedMatchmaker(self._machines)
        self._blocked: frozenset[str] = frozenset()
        self._pool_epoch = self.matchmaker.pool_epoch
        #: ClassAd match key → the wait class of the attempts that share it.
        self._wait_classes: dict[tuple, deque[Attempt]] = {}

        def opportunistic_wait(_machine: MachineSpec) -> float:
            # Erratic slot acquisition: a lognormal baseline with
            # occasional long spikes.
            if wait_rng.random() < config.wait_spike_prob:
                mean = config.wait_spike_mean_s
            else:
                mean = config.wait_mean_s
            return config.dispatch_latency_s + bounded_lognormal(
                wait_rng, mean, config.wait_sigma, high=config.wait_max_s
            )

        def download_install(job: DagJob) -> float:
            # Fig. 3's red rectangles: only jobs that carry their own
            # software pay, but every job passes through the phase.
            if not job.needs_setup:
                return 0.0
            return bounded_lognormal(
                setup_rng,
                config.setup_mean_s,
                config.setup_sigma,
                high=config.setup_max_s,
            )

        super().__init__(
            simulator,
            bus=bus,
            injector=injector,
            blacklist=blacklist,
            wait=opportunistic_wait,
            setup=download_install,
            # Misconfigured nodes and owner preemption, both drawn from
            # the one ``failures`` stream.
            start_failure=partial(
                config.failures.sample_start_failure, failure_rng
            ),
            eviction=partial(
                config.failures.sample_eviction_time, failure_rng
            ),
            # Slots are reserved at match but only *occupied* on
            # arrival (``peak_busy`` must not count the opportunistic
            # wait), and a freed slot is re-matched before the exit
            # record of the job that held it is published.
            eager_release=True,
        )

    # -- slot accounting --------------------------------------------------

    @property
    def busy_slots(self) -> int:
        """Slots reserved for a job (from match time; includes the
        opportunistic-wait window before the job arrives)."""
        return self.matchmaker.pool_size - self.matchmaker.free_count

    @property
    def capacity(self) -> int:
        """Total pool slots (what the service layer sizes quotas by)."""
        return self.matchmaker.pool_size

    @property
    def occupied_slots(self) -> int:
        """Slots actually doing work (setup or payload in progress)."""
        return self._occupied

    def queue_status(self) -> dict[str, int]:
        """``condor_q``-style snapshot: idle vs running.

        A matched job still riding out its opportunistic-wait window
        counts as *idle* — nothing is executing on its behalf yet — so
        utilization sampled from this snapshot is not inflated by slot
        acquisition time.
        """
        waiting_matched = self.busy_slots - self._occupied
        return {
            "idle": self._idle + waiting_matched,
            "running": self._occupied,
        }

    # -- slot source: ClassAd matchmaking over opportunistic slots -------

    def submit(
        self, job: DagJob, on_complete: OnComplete, *, attempt: int = 1
    ) -> None:
        # The ClassAd is built once at submit time; its match key names
        # the attempt's wait class (an ad that has none is a class of
        # its own).
        ad = ClassAd(
            name=job.name,
            attributes={"transformation": job.transformation},
            requirements=job.requirements,
            rank="speed",
        )
        a = Attempt(job, on_complete, attempt, self.now, ad)
        if not job.requirements or self.matchmaker.matchable(ad):
            key = ad.match_key
            self._enqueue(
                a,
                deque() if key is None
                else self._wait_classes.setdefault(key, deque()),
            )
            return
        # No resource in the entire pool can ever run this job: it idles
        # (holding no slot) until the hold timeout expires, then fails.
        a.slot = MachineSpec(name="(unmatched)", site=self.config.name)

        def hold_expired() -> None:
            a.setup_start = a.exec_start = self.now
            self._publish(a, self._record(
                a, JobStatus.FAILED, "no matching resources in the pool"
            ))

        self.simulator.schedule(
            self.config.unmatched_timeout_s, hold_expired
        )

    def _begin_pass(self) -> bool:
        matchmaker = self.matchmaker
        if not matchmaker.free_count:
            return False
        # The blocked set is computed once per pass and shared by every
        # queued entry.
        blocked: frozenset[str] = frozenset()
        if self.blacklist is not None and self.blacklist.has_blocks:
            blocked = frozenset(
                name
                for name in matchmaker.free_names()
                if self.blacklist.is_blocked(
                    name, matchmaker.machine(name).site, now=self.now
                )
            )
        # A sleeping class is one no free, unblocked machine satisfied;
        # ``_release`` wakes the classes a freed machine can matter to.
        # An expiring block or a joining machine frees nothing, so a
        # pass with (or right after one with) blocked machines, and any
        # pass after a membership change, wakes everyone.
        if (
            blocked
            or self._blocked
            or matchmaker.pool_epoch != self._pool_epoch
        ):
            self._pool_epoch = matchmaker.pool_epoch
            self._wake()
        self._blocked = blocked
        self._blocks_excluded = bool(blocked)
        return True

    def _acquire(self, a: Attempt) -> MachineSpec | NoMatch | None:
        matchmaker = self.matchmaker
        if not matchmaker.free_count:
            return None  # pool exhausted mid-pass: nothing behind can match
        chosen = matchmaker.find(a.ticket, blocked=self._blocked)
        if chosen is None:
            return UNMATCHED
        matchmaker.claim(chosen)
        return matchmaker.machine(chosen)

    def _release(self, slot: MachineSpec, status: JobStatus) -> None:
        self.matchmaker.release(slot.name)
        self._wake(
            lambda a: self.matchmaker.may_accept(a.ticket, slot.name)
        )
