"""Fair-share admission control: per-tenant bounded queues + stride pick.

Each tenant gets its own FIFO queue with a hard depth bound: a submission
into a full queue is *rejected* (:class:`QueueFull` → HTTP 429 at the wire)
rather than buffered without bound — backpressure reaches the client that
is causing it, and one tenant flooding the gateway cannot grow service
memory or starve everyone else's latency.

Dispatch order across tenants is stride scheduling (the classic
proportional-share algorithm): every tenant carries a ``pass`` value; the
runnable tenant with the minimum pass is served next, and serving it
advances its pass by ``1 / weight``. A weight-2 tenant therefore drains
jobs twice as fast as a weight-1 tenant under contention, and an idle
tenant re-entering is clamped to the current minimum pass so banked idle
time cannot be spent as a burst that locks others out.

Pool workers call :meth:`FairShareAdmission.next_job` with the backend they
can execute; tenant FIFO order is preserved *per backend* (a tenant's
queued ``procs`` job never blocks its queued ``sim`` jobs from reaching a
sim slot — jobs are skipped, not reordered, within the scan).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, Optional

from repro.service.jobs import Job
from repro.util.errors import ConfigError, HiperError


class QueueFull(HiperError):
    """A tenant's queue is at capacity; the submission was rejected."""

    def __init__(self, tenant: str, depth: int):
        self.tenant = tenant
        self.depth = depth
        super().__init__(
            f"tenant {tenant!r} queue is full ({depth} jobs queued); "
            "retry with backoff")


class TenantQueue:
    """One tenant's FIFO plus its fair-share state."""

    __slots__ = ("name", "weight", "jobs", "pass_value", "dispatched")

    def __init__(self, name: str, weight: float = 1.0):
        if weight <= 0:
            raise ConfigError(
                f"tenant weight must be positive, got {weight} for {name!r}")
        self.name = name
        self.weight = float(weight)
        self.jobs: Deque[Job] = deque()
        self.pass_value = 0.0
        self.dispatched = 0

    @property
    def stride(self) -> float:
        return 1.0 / self.weight


class FairShareAdmission:
    """Per-tenant bounded queues with stride-scheduled dispatch."""

    def __init__(self, max_queue_per_tenant: int = 256,
                 weights: Optional[Dict[str, float]] = None):
        if max_queue_per_tenant < 1:
            raise ConfigError(
                "max_queue_per_tenant must be >= 1, got "
                f"{max_queue_per_tenant}")
        self.max_queue_per_tenant = int(max_queue_per_tenant)
        self._weights = dict(weights or {})
        self._tenants: Dict[str, TenantQueue] = {}
        self._lock = threading.Lock()
        self._has_work = threading.Condition(self._lock)

    # -- submission ----------------------------------------------------
    def submit(self, job: Job) -> None:
        """Enqueue or raise :class:`QueueFull`."""
        with self._has_work:
            tq = self._tenants.get(job.tenant)
            if tq is None:
                tq = TenantQueue(job.tenant,
                                 self._weights.get(job.tenant, 1.0))
                self._tenants[job.tenant] = tq
            if len(tq.jobs) >= self.max_queue_per_tenant:
                raise QueueFull(job.tenant, len(tq.jobs))
            if not tq.jobs:
                # Re-entering after idle: no banked credit. Clamp to the
                # busiest floor so a long-idle tenant cannot burst.
                floor = min((t.pass_value for t in self._tenants.values()
                             if t.jobs), default=tq.pass_value)
                tq.pass_value = max(tq.pass_value, floor)
            tq.jobs.append(job)
            self._has_work.notify()

    # -- dispatch ------------------------------------------------------
    def next_job(self, backend: str, timeout: float = 0.1) -> Optional[Job]:
        """Pop the fair-share next job runnable on ``backend``.

        Blocks up to ``timeout`` seconds for work; returns ``None`` on
        timeout so pool workers can re-check lifecycle flags.
        """
        with self._has_work:
            job = self._pick(backend)
            if job is None and timeout > 0:
                self._has_work.wait(timeout)
                job = self._pick(backend)
            return job

    def _pick(self, backend: str) -> Optional[Job]:
        candidates = sorted(
            (t for t in self._tenants.values() if t.jobs),
            key=lambda t: (t.pass_value, t.name))
        for tq in candidates:
            for job in tq.jobs:
                if job.spec.backend != backend:
                    continue
                tq.jobs.remove(job)
                tq.pass_value += tq.stride
                tq.dispatched += 1
                return job
        return None

    # -- cancellation / introspection ----------------------------------
    def cancel(self, job: Job) -> bool:
        """Remove a still-queued job; False if it already left the queue."""
        with self._lock:
            tq = self._tenants.get(job.tenant)
            if tq is None:
                return False
            try:
                tq.jobs.remove(job)
                return True
            except ValueError:
                return False

    def depth(self, tenant: str) -> int:
        with self._lock:
            tq = self._tenants.get(tenant)
            return len(tq.jobs) if tq is not None else 0

    def pending(self) -> int:
        with self._lock:
            return sum(len(t.jobs) for t in self._tenants.values())

    def kick(self) -> None:
        """Wake all blocked workers (lifecycle transitions)."""
        with self._has_work:
            self._has_work.notify_all()

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {
                t.name: {
                    "queued": len(t.jobs),
                    "weight": t.weight,
                    "pass": t.pass_value,
                    "dispatched": t.dispatched,
                }
                for t in self._tenants.values()
            }
