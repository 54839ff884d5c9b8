"""``repro.service`` — a long-lived job gateway over the runtime.

Every other entry point in this repository is a one-shot CLI invocation:
construct an executor, run one workload, tear everything down, serve exactly
one caller. This package makes the runtime a *service*, the way RADICAL-Pilot
decouples resource acquisition from task execution and PyWPS wraps compute in
a request/response interface (see PAPERS.md): a daemon holds **warm executor
pools** whose construction cost is paid once and amortized across many
submissions, and exposes an async submit/status/result/cancel API over a
stdlib HTTP server (Unix-domain socket by default, TCP optionally).

Layers, bottom up:

- :mod:`repro.service.jobs` — :class:`JobSpec` (app + params + seed +
  backend: the unit of submission and the cache key), :class:`Job` (one
  accepted submission's lifecycle record), workload construction.
- :mod:`repro.service.cache` — :class:`ResultCache`: a bounded LRU keyed on
  the spec's deterministic cache key. Workload results are
  schedule-independent digests by construction, so a resubmission may be
  answered from cache bit-identically without re-execution.
- :mod:`repro.service.admission` — per-tenant bounded FIFO queues under
  stride-style fair-share scheduling; a full tenant queue rejects instead of
  buffering without bound (HTTP 429 at the wire).
- :mod:`repro.service.pool` — :class:`WarmRuntime` (a reusable
  executor + :class:`~repro.runtime.runtime.HiperRuntime` pair) and
  :class:`~repro.service.pool.PoolWorker`, the long-lived OS process that
  owns one and runs a slot's jobs off the gateway's GIL.
- :mod:`repro.service.gateway` — :class:`JobGateway`: the scheduler *of
  jobs* sitting above the task scheduler. Owns queues, pools, the cache,
  retry policy (:mod:`repro.resilience`), per-tenant accounting
  (:mod:`repro.util.stats`), and the drain/reload lifecycle.
- :mod:`repro.service.server` / :mod:`repro.service.client` — the wire:
  JSON over HTTP/1.1 on a UDS or TCP socket, stdlib only.

Start one with ``python -m repro serve`` (see ``docs/service.md``), or embed
the pieces directly::

    from repro.service import JobGateway, ServiceConfig
    gw = JobGateway(ServiceConfig(backends=("sim",))).start()
    job = gw.submit("isx", {"keys_per_pe": 512}, seed=1, tenant="alice")
    print(gw.result(job.job_id, timeout=30.0))
    gw.drain()
"""

from repro.service.admission import FairShareAdmission, QueueFull, TenantQueue
from repro.service.cache import ResultCache
from repro.service.gateway import (JobGateway, ServiceConfig,
                                   ServiceDraining, UnknownJob)
from repro.service.jobs import Job, JobSpec, JobState, build_workload
from repro.service.pool import WarmRuntime
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import ServiceServer

__all__ = [
    "FairShareAdmission",
    "QueueFull",
    "TenantQueue",
    "ResultCache",
    "JobGateway",
    "ServiceConfig",
    "ServiceDraining",
    "UnknownJob",
    "Job",
    "JobSpec",
    "JobState",
    "build_workload",
    "WarmRuntime",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
]
