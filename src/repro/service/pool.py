"""Warm executor pools: pay runtime construction once, serve many jobs.

A :class:`WarmRuntime` is one reusable executor + runtime pair. Cold-path
job execution (what the CLI does today) pays, per job: platform-model
discovery, deque-table and worker construction, executor setup, and —
for the threaded backend — OS thread spawning; then tears it all down.
A warm entry pays that once at pool construction and runs every subsequent
job as just another root task on the same runtime (``HiperRuntime.run`` is
re-entrant for sequential roots; the tier-1 suite exercises repeated runs
on one runtime). ``benchmarks/bench_service.py`` measures the resulting
speedup under pytest-benchmark; ``BENCH_service.json`` is its frozen
history.

Hygiene rules that keep reuse safe:

- **One owner process.** A warm entry lives in one long-lived worker
  process (:class:`PoolWorker`), forked by ``JobGateway.start()`` before
  any slot or HTTP thread exists, and is driven by exactly one gateway slot
  thread: the simulated executor is single-threaded by design and must
  never see concurrent ``run_root`` calls. The slot thread ships
  ``(spec, name)`` down the worker's control link and blocks, GIL
  released, on the reply, so jobs on different slots run on different
  cores. The worker is a :class:`repro.launch.Child`: descriptor hygiene,
  signals, the crash frame and the reap are that seam's; this module keeps
  the request/reply protocol, and a worker leaves on EOF of its link, so a
  daemon killed with ``kill -9`` leaves no orphan behind.
- **Retire on failure.** If a job fails (or its runtime raises), the worker
  closes its entry and builds a fresh one in place before it replies — a
  poisoned engine state must not leak into the next tenant's job. Failures
  are rare; rebuilding costs one cold construction and no fork.
- **Generation fencing.** ``reload`` bumps the pool generation; a slot
  asks its worker to rebuild before taking the next job when its entry is
  stale. In-flight jobs always finish on the entry they started on.
- **Re-fork only the dead.** A worker that died or crashed outside a job
  body (:class:`repro.launch.ChildDied` / ``ChildCrashed``, both retryable
  :class:`HiperError` subclasses naming pid and exit code) has been reaped
  by the seam and is re-forked from its slot thread.

The ``procs`` backend is *not* warm-poolable: its unit of construction is a
tree of OS processes wired to one job's shared-memory segments, torn down by
the rank teardown protocol. A procs slot's worker therefore holds no warm
entry and runs every job cold — forking the job's rank processes itself, a
supervisor nested in a supervisor, from a single-threaded process that
dies with the daemon.
"""

from __future__ import annotations

import pickle
import time
from typing import Any, Callable, Dict, Optional, Tuple

from repro.launch import Child, ChildError, Link
from repro.service.jobs import JobSpec, build_workload
from repro.util.errors import ConfigError, HiperError


class WarmRuntime:
    """A started, reusable (executor, runtime) pair for one pool slot."""

    def __init__(self, backend: str, *, workers: int = 4,
                 block_timeout: float = 60.0):
        from repro.exec.sim import SimExecutor
        from repro.exec.threaded import ThreadedExecutor
        from repro.platform.hwloc import discover, machine
        from repro.runtime.runtime import HiperRuntime

        if backend not in ("sim", "threads"):
            raise ConfigError(
                f"backend {backend!r} is not warm-poolable (sim/threads only)")
        self.backend = backend
        self.workers = workers
        t0 = time.perf_counter()
        if backend == "sim":
            self.executor = SimExecutor()
        else:
            self.executor = ThreadedExecutor(block_timeout=block_timeout)
        model = discover(machine("workstation"), num_workers=workers,
                         with_interconnect=False)
        self.runtime = HiperRuntime(model, self.executor).start()
        self.construction_s = time.perf_counter() - t0
        self.jobs_run = 0
        self.closed = False

    def run(self, workload: Callable[[], Any], *, name: str = "job") -> Any:
        """Execute one root body; the entry stays warm for the next one."""
        self.jobs_run += 1
        return self.runtime.run(workload, name=name)

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.runtime.shutdown()
        self.executor.shutdown()


def run_job_cold(spec: JobSpec) -> Any:
    """One-shot execution: construct, run, tear down (the pre-service path).

    Used for the ``procs`` backend (never poolable), for pools configured
    with ``warm=False``, and as the cold side of the warm-vs-cold benchmark
    pair. Runs in the slot's worker process like every other job.
    """
    if spec.backend == "procs":
        # The app's HiPER variant, one rank process per spec.ranks; the
        # result is the app's registry answer.
        from repro.apps.registry import APPS
        from repro.exec.procs import ProcessExecutor

        app = APPS[spec.app]
        answer, _res = app.run("hiper", app.cluster(spec.ranks, 1),
                               cfg=spec.build_config(),
                               executor=ProcessExecutor())
        return answer
    entry = WarmRuntime(spec.backend)
    try:
        return entry.run(build_workload(spec))
    finally:
        entry.close()


def run_job_on(entry: Optional[WarmRuntime], spec: JobSpec,
               *, name: str = "job") -> Tuple[Any, bool]:
    """Execute a spec on a warm entry when possible, cold otherwise.

    Returns ``(result, used_warm)``.
    """
    if (entry is not None and not entry.closed
            and spec.backend == entry.backend):
        return entry.run(build_workload(spec), name=name), True
    return run_job_cold(spec), False


# ----------------------------------------------------------------------
# pool worker: one OS process per (backend, slot)
# ----------------------------------------------------------------------
#
# Wire (frames over the worker's control link, see :mod:`repro.launch`),
# one reply per request:
#   ("run", spec, name) -> ("ok", value, info) | ("err", exc, info)
#   ("rebuild",)        -> ("ok", None, info)
#   EOF                 -> the worker closes its entry and exits 0
# ``info`` is ``(jobs_run, construction_s, rebuilds)`` of the worker.

def _preload() -> None:
    """Import in the parent what a worker needs to run a job.

    Forked workers then share these modules copy-on-write instead of each
    importing them on its first job, and a worker re-forked from the
    threaded daemon never has to import (and meet an import lock some
    other thread held at the fork).
    """
    import repro.exec.sim  # noqa: F401
    import repro.exec.threaded  # noqa: F401
    import repro.platform.hwloc  # noqa: F401
    import repro.runtime.runtime  # noqa: F401
    import repro.verify.differential  # noqa: F401


def _portable(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round trip, else a stand-in of the
    same retry class that keeps its type name and message."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001 - whatever pickling it raises
        kind = HiperError if isinstance(exc, HiperError) else RuntimeError
        return kind(f"{type(exc).__name__}: {exc} "
                    "(the exception itself cannot be pickled)")


def _serve(link: Link, backend: str,
           entry_kwargs: Optional[Dict[str, Any]]) -> None:
    """Body of a pool worker: the request loop; returns on EOF (the parent
    closed the link or is gone)."""
    def build() -> Optional[WarmRuntime]:
        # warm=False, or a procs slot: every job runs cold, here
        if entry_kwargs is None or backend == "procs":
            return None
        return WarmRuntime(backend, **entry_kwargs)

    entry = build()
    jobs_run = rebuilds = 0

    def rebuild() -> None:
        nonlocal entry, rebuilds
        if entry is not None:
            entry.close()
            entry = build()
            rebuilds += 1

    while True:
        request = link.recv()
        if request is None:
            break
        reply: Tuple = ("ok", None)
        if request[0] == "run":
            _, spec, name = request
            jobs_run += 1
            try:
                reply = ("ok", run_job_on(entry, spec, name=name)[0])
            except BaseException as exc:  # noqa: BLE001 - the job's outcome
                # Never reuse a possibly-poisoned engine for the next job.
                rebuild()
                reply = ("err", _portable(exc))
        else:
            rebuild()
        info = (jobs_run, entry.construction_s if entry else 0.0, rebuilds)
        try:
            link.send(reply + (info,))
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            link.send(("err", TypeError(
                f"job result cannot cross the pool worker's pipe: {exc}"),
                info))
    if entry is not None:
        entry.close()


class PoolWorker:
    """Parent-side handle of one slot's worker process.

    Driven by one slot thread; the counters are plain attributes that
    ``GET /api/v1/stats`` reads without a lock.
    """

    def __init__(self, backend: str, slot: int,
                 entry_kwargs: Optional[Dict[str, Any]]):
        self.backend = backend
        self.slot = slot
        self._entry_kwargs = entry_kwargs
        self.generation = 0
        self.reforks = 0
        self.busy = False
        self._closed = False
        _preload()
        self._fork()

    def _fork(self) -> None:
        self._child = Child.start(
            "fork", _serve, (self.backend, self._entry_kwargs),
            name="pool worker")
        # per worker process; the worker reports them with each reply
        self.jobs_run = self.rebuilds = 0
        self.construction_s: Optional[float] = None

    def _call(self, request: Tuple) -> Any:
        """One request/reply round trip. A worker found dead or crashed has
        been reaped; it is re-forked, and the loss raised as the retryable
        HiperError it is."""
        self.busy = True
        try:
            try:
                self._child.send(request)
                reply = self._child.recv()
            except ChildError:
                if self._closed:  # close() ran under a stuck job
                    raise HiperError("pool worker closed") from None
                self._fork()
                self.reforks += 1
                raise
            self.jobs_run, self.construction_s, self.rebuilds = reply[-1]
            if reply[0] == "err":
                raise reply[1]
            return reply[1]
        finally:
            self.busy = False

    @property
    def pid(self) -> int:
        return self._child.pid

    def run(self, spec: JobSpec, name: str) -> Any:
        """Execute one spec in the worker; raises what the job raised."""
        return self._call(("run", spec, name))

    def rebuild(self, generation: int) -> None:
        """Fresh warm entry in place (``reload``), stamped ``generation``."""
        try:
            self._call(("rebuild",))
        except HiperError:
            pass  # it had died: the re-forked worker starts on a fresh entry
        self.generation = generation

    def close(self) -> None:
        """EOF the worker and reap it; no zombie, no orphan."""
        self._closed = True
        self._child.close()

    def to_dict(self) -> Dict[str, Any]:
        return {"backend": self.backend, "slot": self.slot, "pid": self.pid,
                "generation": self.generation, "busy": self.busy,
                "jobs_run": self.jobs_run,
                "construction_s": self.construction_s,
                "rebuilds": self.rebuilds, "reforks": self.reforks}
