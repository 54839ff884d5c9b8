"""The job gateway: scheduler-of-jobs above the task scheduler.

:class:`JobGateway` owns the whole service core, independent of any wire
protocol (the HTTP server is a thin shell over it; tests drive it directly):

- **admission** — per-tenant bounded queues, stride fair share
  (:mod:`repro.service.admission`); a full queue rejects (:class:`QueueFull`)
  and a draining gateway rejects (:class:`ServiceDraining`).
- **pools** — one slot thread per backend slot, each driving its own
  long-lived worker *process* that holds the warm entry and executes the
  jobs (:mod:`repro.service.pool`), so slots run on separate cores; a
  failed job retires its entry, a dead worker is re-forked.
- **cache** — deterministic results answered without execution
  (:mod:`repro.service.cache`); duplicate submissions dedupe here.
- **retries** — failed attempts re-run per the configured
  :class:`~repro.resilience.RetryPolicy` with :class:`~repro.resilience.Backoff`
  spacing; only :class:`~repro.util.errors.HiperError` failures retry
  (programming errors like a failed oracle assertion fail fast).
- **accounting** — per-tenant counters/timers in a
  :class:`~repro.util.stats.RuntimeStats` registry (module ``service`` for
  gateway-wide totals, ``tenant.<name>`` per tenant): jobs submitted /
  completed / failed / cancelled / rejected, cache hits, retries,
  ``queue_wait`` and ``exec`` timers.
- **lifecycle** — ``drain()`` stops intake and completes everything already
  accepted; ``reload()`` rebuilds warm pools between jobs without dropping
  any accepted job.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.resilience import Backoff, RetryPolicy
from repro.service.admission import FairShareAdmission, QueueFull
from repro.service.cache import ResultCache
from repro.service.jobs import (Job, JobSpec, JobState, normalize_result)
from repro.service.pool import PoolWorker
from repro.util.errors import ConfigError, HiperError, RuntimeStateError
from repro.util.stats import RuntimeStats

__all__ = ["ServiceConfig", "ServiceDraining", "UnknownJob", "JobGateway"]


class ServiceDraining(HiperError):
    """The gateway is draining or stopped; submissions are not accepted."""


class UnknownJob(ConfigError):
    """No job with that id (404 at the wire, where other ConfigErrors are
    400)."""


def _default_retry() -> RetryPolicy:
    # Service-side retry spacing is wall-clock, so keep it tight: transient
    # faults (an injected fault plan, a flaky procs launch) get two more
    # chances within ~30 ms.
    return RetryPolicy(max_attempts=3,
                       backoff=Backoff(base=1e-3, max_delay=2e-2))


@dataclasses.dataclass
class ServiceConfig:
    """Gateway capacity and policy knobs (all service-side, none in specs)."""

    #: Backends to run pool slots for. Jobs for a backend with no slots are
    #: rejected at submit.
    backends: Tuple[str, ...] = ("sim",)
    #: Slots per backend: one slot thread plus the worker process that runs
    #: the slot's jobs (and, for sim/threads, holds its warm entry).
    pool_size: int = 2
    #: Runtime workers per warm entry (sim/threads).
    workers: int = 4
    #: False = the worker constructs/tears down a runtime per job (the cold
    #: baseline the benchmark pair measures against).
    warm: bool = True
    max_queue_per_tenant: int = 256
    cache_capacity: int = 1024
    retry: RetryPolicy = dataclasses.field(default_factory=_default_retry)
    tenant_weights: Dict[str, float] = dataclasses.field(default_factory=dict)
    block_timeout: float = 60.0

    def __post_init__(self):
        from repro.service.jobs import BACKENDS

        for b in self.backends:
            if b not in BACKENDS:
                raise ConfigError(
                    f"unknown backend {b!r}; choose from {list(BACKENDS)}")
        if self.pool_size < 1:
            raise ConfigError(
                f"pool_size must be >= 1, got {self.pool_size}")


class JobGateway:
    """Long-lived job service core: submit/status/result/cancel + lifecycle."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.admission = FairShareAdmission(
            self.config.max_queue_per_tenant,
            weights=self.config.tenant_weights)
        self.cache = ResultCache(self.config.cache_capacity)
        self.stats = RuntimeStats()
        self._jobs: Dict[str, Job] = {}
        self._lock = threading.RLock()
        self._unfinished = 0
        self._all_done = threading.Condition(self._lock)
        self._draining = False
        self._stopped = False
        self._started = False
        self._pool_gen = 0
        self._threads: List[threading.Thread] = []
        self._workers: Dict[Tuple[str, int], PoolWorker] = {}
        self.started_at: Optional[float] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "JobGateway":
        if self._started:
            raise RuntimeStateError("gateway already started")
        self._started = True
        self.started_at = time.time()
        cfg = self.config
        entry_kwargs = dict(workers=cfg.workers,
                            block_timeout=cfg.block_timeout)
        # Fork every worker before the first slot thread (and, under
        # ServiceServer, the HTTP thread) exists: a fork from a
        # single-threaded parent inherits no lock mid-acquire, and costs
        # milliseconds where spawn/forkserver would re-import per worker.
        for backend in cfg.backends:
            for slot in range(cfg.pool_size):
                self._workers[backend, slot] = PoolWorker(
                    backend, slot, entry_kwargs if cfg.warm else None)
        for backend in cfg.backends:
            for slot in range(cfg.pool_size):
                t = threading.Thread(
                    target=self._worker_loop, args=(backend, slot),
                    name=f"svc-{backend}-{slot}", daemon=True)
                t.start()
                self._threads.append(t)
        return self

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop intake; wait for every accepted job to reach a terminal
        state; stop the pool threads and reap their worker processes.
        Returns True when fully drained.

        Already-completed jobs remain queryable after a drain — only
        execution capacity goes away, not the job table.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._all_done:
            self._draining = True
            while self._unfinished > 0:
                wait = None if deadline is None else deadline - time.monotonic()
                if wait is not None and wait <= 0:
                    return False
                self._all_done.wait(wait if wait is None else min(wait, 1.0))
        self._stop_workers()
        return True

    def close(self) -> None:
        """Hard stop: cancel everything still queued, then drain."""
        with self._lock:
            self._draining = True
            queued = [j for j in self._jobs.values()
                      if j.state is JobState.QUEUED]
        for job in queued:
            self.cancel(job.job_id)
        self.drain(timeout=self.config.block_timeout)
        self._stop_workers()

    def _stop_workers(self) -> None:
        self._stopped = True
        self.admission.kick()
        for t in self._threads:
            t.join(timeout=self.config.block_timeout)
        self._threads = []
        for worker in self._workers.values():
            worker.close()
        self._workers = {}

    def reload(self) -> int:
        """Rebuild warm pools without dropping accepted jobs.

        Bumps the pool generation; every slot has its worker close its warm
        entry and construct a fresh one, in place, before taking its next
        job. In-flight jobs finish on the entry they started on. Returns
        the new generation.
        """
        with self._lock:
            self._pool_gen += 1
            gen = self._pool_gen
        self.admission.kick()
        return gen

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def pool_generation(self) -> int:
        return self._pool_gen

    # ------------------------------------------------------------------
    # submission API
    # ------------------------------------------------------------------
    def submit(self, app: str, params: Optional[Mapping[str, Any]] = None, *,
               seed: int = 0, backend: str = "sim",
               ranks: int = 2, tenant: str = "default") -> Job:
        """Validate, admit, and (maybe) answer from cache.

        Raises :class:`ConfigError` (bad spec → 400), :class:`QueueFull`
        (tenant backpressure → 429), :class:`ServiceDraining` (→ 503).
        """
        spec = JobSpec.create(app, params, seed=seed, backend=backend,
                              ranks=ranks)
        if spec.backend not in self.config.backends:
            raise ConfigError(
                f"backend {spec.backend!r} is not enabled on this service; "
                f"enabled: {list(self.config.backends)}")
        if not isinstance(tenant, str) or not tenant:
            raise ConfigError(f"tenant must be a non-empty string, got "
                              f"{tenant!r}")
        if self._draining or self._stopped:
            raise ServiceDraining(
                "service is draining; not accepting new jobs")

        job = Job(spec, tenant)
        self._count_tenant(tenant, "jobs_submitted")

        hit, value = self.cache.get(spec.cache_key())
        if hit:
            # Dedupe: answer instantly, bit-identical, without execution.
            with self._lock:
                job.cache_hit = True
                job.state = JobState.DONE
                job.started_at = job.finished_at = job.submitted_at
                job.result = value
                self._jobs[job.job_id] = job
            self._count_tenant(tenant, "cache_hits")
            self._count_tenant(tenant, "jobs_completed")
            job.done_event.set()
            return job

        with self._lock:
            self._jobs[job.job_id] = job
            self._unfinished += 1
        try:
            self.admission.submit(job)
        except QueueFull:
            with self._all_done:
                del self._jobs[job.job_id]
                self._unfinished -= 1
                self._all_done.notify_all()
            self._count_tenant(tenant, "jobs_rejected")
            raise
        self.stats.gauge("service", f"queue_depth.{tenant}",
                         float(self.admission.depth(tenant)))
        return job

    def job(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise UnknownJob(f"unknown job id {job_id!r}") from None

    def status(self, job_id: str) -> Dict[str, Any]:
        return self.job(job_id).to_dict()

    def result(self, job_id: str, timeout: Optional[float] = None
               ) -> Dict[str, Any]:
        """The job's terminal document (with result), waiting up to
        ``timeout`` seconds for it to finish. A non-terminal job after the
        wait returns its status document without a result field."""
        job = self.job(job_id)
        if timeout:
            job.done_event.wait(timeout)
        with self._lock:
            return job.to_dict(with_result=job.terminal)

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Cancel a job. Outcomes:

        - ``cancelled`` — it was still queued; it will never run.
        - ``cancelling`` — it is running; execution cannot be preempted
          mid-task, so the job is flagged and transitions to ``cancelled``
          (result discarded) when the attempt finishes.
        - the terminal state name — it had already finished; no-op.
        """
        job = self.job(job_id)
        with self._lock:
            if job.terminal:
                return {"job_id": job_id, "outcome": job.state.value}
            if job.state is JobState.QUEUED and self.admission.cancel(job):
                job.state = JobState.CANCELLED
                job.finished_at = time.time()
                self._finish(job, "jobs_cancelled")
                return {"job_id": job_id, "outcome": "cancelled"}
            job.cancel_requested = True
            return {"job_id": job_id, "outcome": "cancelling"}

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _count_tenant(self, tenant: str, op: str) -> None:
        self.stats.count("service", op)
        self.stats.count(f"tenant.{tenant}", op)

    def _time_tenant(self, tenant: str, op: str, elapsed: float) -> None:
        self.stats.time("service", op, elapsed)
        self.stats.time(f"tenant.{tenant}", op, elapsed)

    def _finish(self, job: Job, op: str) -> None:
        """Terminal-state bookkeeping; caller holds the lock and has already
        set job.state/finished_at."""
        self._count_tenant(job.tenant, op)
        self._unfinished -= 1
        self._all_done.notify_all()
        job.done_event.set()

    def stats_dict(self) -> Dict[str, Any]:
        with self._lock:
            states: Dict[str, int] = {}
            for j in self._jobs.values():
                states[j.state.value] = states.get(j.state.value, 0) + 1
            doc = {
                "uptime_s": (time.time() - self.started_at
                             if self.started_at else 0.0),
                "draining": self._draining,
                "pool_generation": self._pool_gen,
                "jobs": states,
                "unfinished": self._unfinished,
            }
        doc["pool"] = [w.to_dict() for w in self._workers.values()]
        doc["tenants"] = self.admission.to_dict()
        doc["cache"] = self.cache.to_dict()
        doc["telemetry"] = self.stats.to_dict()
        return doc

    # ------------------------------------------------------------------
    # pool workers
    # ------------------------------------------------------------------
    def _worker_loop(self, backend: str, slot: int) -> None:
        worker = self._workers[backend, slot]
        while not self._stopped:
            job = self.admission.next_job(backend, timeout=0.05)
            # Checked after the dequeue: a job submitted after reload()
            # returned must never run on the entry reload() retired.
            gen = self._pool_gen
            if worker.generation != gen:
                worker.rebuild(gen)  # reload(): between jobs
            if job is not None:
                self._run_job(job, worker)

    def _run_job(self, job: Job, worker: PoolWorker) -> None:
        """Execute one job, with retries, in the slot's worker process."""
        with self._lock:
            if job.terminal:   # cancelled between dequeue and here
                return
            job.state = JobState.RUNNING
            job.started_at = time.time()
        self._time_tenant(job.tenant, "queue_wait", job.queue_wait or 0.0)

        policy = self.config.retry
        result: Any = None
        error: Optional[BaseException] = None
        for attempt in range(policy.max_attempts):
            job.attempts = attempt + 1
            try:
                value = worker.run(job.spec, f"{job.job_id}-a{attempt}")
                result, error = normalize_result(value), None
                break
            except HiperError as exc:
                # Retryable per the resilience policy; the worker has
                # already replaced its possibly-poisoned engine (or, if it
                # died, been re-forked) for the next attempt.
                error = exc
                if attempt + 1 < policy.max_attempts:
                    self._count_tenant(job.tenant, "retries")
                    time.sleep(policy.backoff.delay(attempt))
            except BaseException as exc:  # noqa: BLE001 - fail fast
                error = exc
                break

        with self._lock:
            job.finished_at = time.time()
            if error is None:
                self.cache.put(job.spec.cache_key(), result)
                if job.cancel_requested:
                    job.state = JobState.CANCELLED
                    self._finish(job, "jobs_cancelled")
                else:
                    job.state = JobState.DONE
                    job.result = result
                    self._finish(job, "jobs_completed")
            else:
                job.error = f"{type(error).__name__}: {error}"
                if job.cancel_requested:
                    job.state = JobState.CANCELLED
                    self._finish(job, "jobs_cancelled")
                else:
                    job.state = JobState.FAILED
                    self._finish(job, "jobs_failed")
        self._time_tenant(job.tenant, "exec", job.exec_time or 0.0)
