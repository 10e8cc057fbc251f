"""The local execution backend: real payloads, real wall clock.

Two pool flavours:

* ``executor="process"`` (the performance mode) — payloads run in a
  ``ProcessPoolExecutor``, sidestepping the GIL; payloads must be
  picklable (see :class:`repro.execution.payloads.TaskCall`). Profiling
  drove this choice: CPU-bound NumPy/Python task bodies under a thread
  pool ran ~7x *slower* than serial from GIL contention.
* ``executor="thread"`` — payloads run on threads; any callable works
  (tests and closures), parallel speedup limited to I/O-bound work.

Either way, *all scheduling decisions* (DAGMan callbacks, new
submissions) happen on the driver thread via an action queue —
DAGMan's state machine needs no locks and behaves identically under
this backend and the single-threaded simulators.

Resilience hooks (mirroring the simulators):

* ``DagJob.timeout_s`` arms a **watchdog** (``threading.Timer``) per
  attempt: if the payload has not completed by then, a ``TIMEOUT``
  attempt record is delivered immediately and the stuck worker is
  abandoned — a hung payload cannot wedge ``run_until_complete()``;
* an optional :class:`~repro.resilience.faults.FaultInjector` wraps
  payloads (:meth:`FaultInjector.wrap_local`) so the same chaos plans
  that drive the simulators fail/slow/hang real local runs;
* ``call_later`` runs a function on the driver thread after a
  wall-clock delay — delayed retries (``job.held``) park here without
  blocking a worker.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import TYPE_CHECKING, Any, Callable, Literal

from repro.dagman.dag import DagJob
from repro.dagman.events import JobAttempt, JobStatus, ResourceProfile
from repro.execution.kickstart import KickstartRecord, kickstart
from repro.observe.bus import EventBus
from repro.observe.events import attempt_events

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.faults import FaultInjector

__all__ = ["LocalEnvironment"]


def _run_payload(
    payload: Callable[[], Any],
) -> tuple[float, bool, str | None, "ResourceProfile | None"]:
    """Worker-side wrapper: returns (duration, success, error, profile).

    Runs in the pool worker (its own process under ``executor=
    "process"``), so the rusage probe inside :func:`kickstart` bills
    exactly this payload's CPU/RSS/I/O to the attempt record.
    """
    record: KickstartRecord = kickstart(payload)
    return record.duration_s, record.success, record.error, record.profile


class LocalEnvironment:
    """Run DAG jobs' Python payloads locally (an ``ExecutionEnvironment``).

    ``site`` labels the trace records; ``max_workers`` is the local
    parallelism (the "multiple computational nodes" of the paper,
    scaled down to one machine's cores). ``injector`` wraps payloads
    with chaos faults; ``hang_sleep_s`` bounds how long an injected
    hang actually sleeps (workers eventually unwedge in tests).
    """

    def __init__(
        self,
        *,
        max_workers: int = 4,
        site: str = "local",
        executor: Literal["thread", "process"] = "thread",
        bus: EventBus | None = None,
        injector: "FaultInjector | None" = None,
        hang_sleep_s: float = 5.0,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if executor not in ("thread", "process"):
            raise ValueError(f"unknown executor kind: {executor!r}")
        self.site = site
        self.bus = bus
        self.injector = injector
        self.hang_sleep_s = hang_sleep_s
        self.max_workers = max_workers
        self.executor_kind = executor
        self._pool: Executor
        if executor == "process":
            self._pool = ProcessPoolExecutor(max_workers=max_workers)
        else:
            self._pool = ThreadPoolExecutor(
                max_workers=max_workers, thread_name_prefix="repro-worker"
            )
        #: Thunks executed on the driver thread (completions, timers).
        self._actions: "queue.Queue[Callable[[], None]]" = queue.Queue()
        self._in_flight = 0
        self._pending_timers = 0
        self._closed = False
        #: True once a watchdog abandoned a stuck worker: shutdown must
        #: not wait for the pool, or it would block on the hung payload.
        self._abandoned = False
        self.timeout_count = 0
        self._epoch = time.monotonic()

    @property
    def now(self) -> float:
        """Seconds since this environment was created."""
        return time.monotonic() - self._epoch

    def submit(
        self,
        job: DagJob,
        on_complete: Callable[[JobAttempt], None],
        *,
        attempt: int = 1,
    ) -> None:
        if self._closed:
            raise RuntimeError(
                f"cannot submit job {job.name!r}: this LocalEnvironment is "
                "shut down (submit() after shutdown()/context exit); create "
                "a new environment for a new run"
            )
        if job.payload is None:
            raise ValueError(
                f"job {job.name!r} has no payload bound; the local backend "
                "runs real callables (use the simulator for modelled jobs)"
            )
        payload = job.payload
        if self.injector is not None:
            payload = self.injector.wrap_local(
                job, attempt=attempt, now=self.now,
                hang_sleep_s=self.hang_sleep_s,
            )
        submit_time = self.now
        self._in_flight += 1
        machine = f"{self.site}-{self.executor_kind}pool"

        # First-completion-wins between the worker callback and the
        # watchdog: whoever settles delivers the attempt record, the
        # loser is dropped.
        settle_lock = threading.Lock()
        settled = False

        def settle() -> bool:
            nonlocal settled
            with settle_lock:
                if settled:
                    return False
                settled = True
                return True

        def deliver(record: JobAttempt) -> None:
            def thunk() -> None:
                self._in_flight -= 1
                if self.bus is not None:
                    for event in attempt_events(record):
                        self.bus.emit(event)
                on_complete(record)

            self._actions.put(thunk)

        def record_completion(duration: float, success: bool,
                              error: str | None,
                              profile: "ResourceProfile | None") -> None:
            end = self.now
            start = max(submit_time, end - duration)
            deliver(
                JobAttempt(
                    job_name=job.name,
                    transformation=job.transformation,
                    site=self.site,
                    machine=machine,
                    attempt=attempt,
                    submit_time=submit_time,
                    setup_start=start,
                    exec_start=start,
                    exec_end=end,
                    status=(
                        JobStatus.SUCCEEDED if success else JobStatus.FAILED
                    ),
                    error=error,
                    profile=profile,
                )
            )

        future = self._pool.submit(_run_payload, payload)

        watchdog: threading.Timer | None = None
        if job.timeout_s is not None:

            def on_timeout() -> None:
                if not settle():
                    return
                if not future.cancel():
                    # The payload is running (possibly hung); we cannot
                    # kill a pool worker per-job, so abandon it — its
                    # eventual result (if any) is dropped at settle().
                    self._abandoned = True
                self.timeout_count += 1
                end = self.now
                deliver(
                    JobAttempt(
                        job_name=job.name,
                        transformation=job.transformation,
                        site=self.site,
                        machine=machine,
                        attempt=attempt,
                        submit_time=submit_time,
                        setup_start=submit_time,
                        exec_start=submit_time,
                        exec_end=end,
                        status=JobStatus.TIMEOUT,
                        error=(
                            "killed after exceeding timeout of "
                            f"{job.timeout_s:g}s"
                        ),
                    )
                )

            watchdog = threading.Timer(job.timeout_s, on_timeout)
            watchdog.daemon = True
            watchdog.start()

        def on_done(fut) -> None:
            if watchdog is not None:
                watchdog.cancel()
            if not settle():
                return  # the watchdog already delivered a TIMEOUT record
            try:
                duration, success, error, profile = fut.result()
            except Exception as exc:  # unpicklable payload, pool death …
                record_completion(
                    0.0, False, f"{type(exc).__name__}: {exc}", None
                )
            else:
                record_completion(duration, success, error, profile)

        future.add_done_callback(on_done)

    def call_later(self, delay_s: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` on the driver thread after ``delay_s`` wall seconds.

        ``run_until_complete`` stays alive while timers are pending, so
        a held retry (delayed requeue) cannot strand the run.
        """
        self._pending_timers += 1

        def thunk() -> None:
            self._pending_timers -= 1
            fn()

        timer = threading.Timer(delay_s, lambda: self._actions.put(thunk))
        timer.daemon = True
        timer.start()

    def run_until_complete(self) -> None:
        """Process actions (on this thread) until nothing is pending.

        Lifecycle events are emitted here — on the driver thread, never
        from pool callbacks — so bus subscribers need no locks. The
        timings come from the attempt record, so the emitted sequence
        matches what the simulators emit live.
        """
        while self._in_flight > 0 or self._pending_timers > 0:
            self._actions.get()()

    def shutdown(self) -> None:
        """Release the worker pool. Idempotent; further ``submit()``
        calls raise ``RuntimeError``."""
        self._closed = True
        # A watchdog-abandoned worker may be stuck in its payload:
        # waiting would block until that payload returns (never, for a
        # true hang), so skip the join and let the pool wind down on
        # its own once the worker unwedges.
        self._pool.shutdown(wait=not self._abandoned)

    def __enter__(self) -> "LocalEnvironment":
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        # Deliver whatever already ran rather than dropping completions
        # on the floor (their records would otherwise vanish and the
        # scheduler would believe the jobs never finished). Skipped when
        # unwinding an exception: draining could block indefinitely.
        if exc_type is None:
            self.run_until_complete()
        self.shutdown()
