"""Job model: what a client submits and what the gateway tracks.

A :class:`JobSpec` is the immutable unit of submission — *which* workload
(``app``), *how configured* (``params`` + ``seed``), and *where to run it*
(``backend``). Specs are canonicalized to a deterministic JSON document
whose SHA-256 is the result cache key: every field that can influence the
produced value is in the key,
and nothing else is (worker counts and pool sizing are service-side capacity
knobs — the digest workloads are schedule-independent by construction, so
capacity never changes results; see ``docs/service.md`` for the cache-key
discipline).

A :class:`Job` is one accepted submission's mutable lifecycle record:
``queued → running → done|failed|cancelled`` with wall-clock timestamps for
queue-wait and execution accounting. All mutation happens under the
gateway's lock; readers get consistent snapshots via :meth:`Job.to_dict`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
import time
from enum import Enum
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.util.errors import ConfigError

#: Backends a job may request. ``sim`` and ``threads`` run in warm-pooled
#: in-process runtimes; ``procs`` launches one OS process per rank per job
#: (process trees are not poolable across jobs — see docs/service.md).
BACKENDS = ("sim", "threads", "procs")


class JobState(str, Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED})


def _app_configs() -> Dict[str, Any]:
    # Deferred import: repro.verify pulls in the app kernels; keep service
    # module import light for the client side.
    from repro.apps.graph500.common import Graph500Config
    from repro.apps.isx.common import IsxConfig
    from repro.apps.uts.common import UtsConfig

    return {"isx": IsxConfig, "uts": UtsConfig, "graph500": Graph500Config}


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """One submission: app + params + seed + backend."""

    app: str
    params: Tuple[Tuple[str, Any], ...] = ()
    seed: int = 0
    backend: str = "sim"
    #: SPMD ranks — meaningful for the ``procs`` backend only.
    ranks: int = 2

    @classmethod
    def create(cls, app: str, params: Optional[Mapping[str, Any]] = None, *,
               seed: int = 0, backend: str = "sim",
               ranks: int = 2) -> "JobSpec":
        """Validate and canonicalize a submission into a spec.

        Raises :class:`ConfigError` (HTTP 400 at the wire) for unknown apps,
        backends, or params the app's config rejects. Validation
        constructs the app config eagerly so bad submissions fail at submit
        time, not minutes later on a pool worker.
        """
        configs = _app_configs()
        if app not in configs:
            raise ConfigError(
                f"unknown app {app!r}; choose from {sorted(configs)}")
        if backend not in BACKENDS:
            raise ConfigError(
                f"unknown backend {backend!r}; choose from {list(BACKENDS)}")
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ConfigError(f"seed must be an integer, got {seed!r}")
        if not isinstance(ranks, int) or ranks < 1:
            raise ConfigError(f"ranks must be a positive integer, got {ranks!r}")
        params = dict(params or {})
        params.pop("seed", None)  # the spec's seed field is canonical
        spec = cls(app=app, params=tuple(sorted(params.items())), seed=seed,
                   backend=backend, ranks=ranks)
        spec.build_config()  # raises ConfigError/TypeError on bad params
        return spec

    def build_config(self) -> Any:
        """The app's config object with ``seed`` merged in."""
        cls = _app_configs()[self.app]
        kwargs = dict(self.params)
        kwargs["seed"] = self.seed
        try:
            return cls(**kwargs)
        except TypeError as exc:
            fields = sorted(f.name for f in dataclasses.fields(cls))
            raise ConfigError(
                f"bad params for app {self.app!r}: {exc}; "
                f"valid params: {fields}") from None

    def cache_key(self) -> str:
        """Deterministic key: SHA-256 of the canonical spec document.

        ``backend`` and ``ranks`` are included even though results are
        constructed to be backend/rank-count independent — the cache must
        never be in the position of *asserting* that equivalence; the verify
        differentials do. ``canonical()`` is the audited key material.
        """
        return hashlib.sha256(
            json.dumps(self.canonical(), sort_keys=True).encode()).hexdigest()

    def canonical(self) -> Dict[str, Any]:
        return {
            "app": self.app,
            "params": {k: v for k, v in self.params},
            "seed": self.seed,
            "backend": self.backend,
            "ranks": self.ranks if self.backend == "procs" else 0,
        }

    def to_dict(self) -> Dict[str, Any]:
        return self.canonical()


def build_workload(spec: JobSpec) -> Callable[[], Tuple]:
    """The single-runtime root body for a spec (sim/threads backends).

    Reuses the verify differential's workload factories — the same bodies
    the cross-engine digest checks pin down — so a service job's result is
    comparable against every other backend's by construction.
    """
    from repro.verify.differential import (graph500_workload, isx_workload,
                                           uts_workload)

    cfg = spec.build_config()
    factory = {"isx": isx_workload, "uts": uts_workload,
               "graph500": graph500_workload}[spec.app]
    return factory(cfg)


def normalize_result(value: Any) -> Any:
    """Canonicalize a workload result to its JSON form.

    Results cross the wire as JSON, so the cache stores the JSON-normalized
    value (tuples become lists once, here) — a cached hit and a fresh
    execution then compare bit-identically on both sides of the socket.
    """
    return json.loads(json.dumps(value))


_job_counter = [0]
_job_counter_lock = threading.Lock()


def _next_job_id() -> str:
    with _job_counter_lock:
        _job_counter[0] += 1
        return f"job-{_job_counter[0]:08d}"


class Job:
    """One accepted submission's lifecycle record (gateway-lock protected)."""

    __slots__ = (
        "job_id", "spec", "tenant", "state", "cache_hit", "cancel_requested",
        "attempts", "submitted_at", "started_at", "finished_at",
        "result", "error", "done_event",
    )

    def __init__(self, spec: JobSpec, tenant: str):
        self.job_id = _next_job_id()
        self.spec = spec
        self.tenant = tenant
        self.state = JobState.QUEUED
        self.cache_hit = False
        self.cancel_requested = False
        self.attempts = 0
        self.submitted_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.result: Any = None
        self.error: Optional[str] = None
        self.done_event = threading.Event()

    # -- derived accounting (wall-clock seconds) -----------------------
    @property
    def queue_wait(self) -> Optional[float]:
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def exec_time(self) -> Optional[float]:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self, with_result: bool = False) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "spec": self.spec.to_dict(),
            "state": self.state.value,
            "cache_hit": self.cache_hit,
            "cancel_requested": self.cancel_requested,
            "attempts": self.attempts,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "queue_wait": self.queue_wait,
            "exec_time": self.exec_time,
            "error": self.error,
        }
        if with_result:
            doc["result"] = self.result
        return doc
