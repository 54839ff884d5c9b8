"""Warm executor pools: pay runtime construction once, serve many jobs.

A :class:`WarmRuntime` is one reusable executor + runtime pair. Cold-path
job execution (what the CLI does today) pays, per job: platform-model
discovery, deque-table and worker construction, executor setup, and —
for the threaded backend — OS thread spawning; then tears it all down.
A warm entry pays that once at pool construction and runs every subsequent
job as just another root task on the same runtime (``HiperRuntime.run`` is
re-entrant for sequential roots; the tier-1 suite exercises repeated runs
on one runtime). ``BENCH_service.json`` records the resulting speedup.

Hygiene rules that keep reuse safe:

- **One owner process.** A warm entry lives in one long-lived worker
  process (:class:`PoolWorker`), forked by ``JobGateway.start()`` before
  any slot or HTTP thread exists, and is driven by exactly one gateway slot
  thread: the simulated executor is single-threaded by design and must
  never see concurrent ``run_root`` calls. The slot thread ships
  ``(spec, name)`` down a socketpair (procfabric framing) and blocks, GIL
  released, on the reply, so jobs on different slots run on different
  cores. A worker closes every inherited descriptor but stdio and its own
  pipe end right after the fork and exits on EOF of that pipe: a daemon
  killed with ``kill -9`` leaves no orphan behind.
- **Retire on failure.** If a job fails (or its runtime raises), the worker
  closes its entry and builds a fresh one in place before it replies — a
  poisoned engine state must not leak into the next tenant's job. Failures
  are rare; rebuilding costs one cold construction and no fork.
- **Generation fencing.** ``reload`` bumps the pool generation; a slot
  asks its worker to rebuild before taking the next job when its entry is
  stale. In-flight jobs always finish on the entry they started on.
- **Re-fork only the dead.** A worker that died (EOF on the pipe) or
  crashed outside a job body (a crash frame carrying the remote traceback,
  the idiom of :mod:`repro.exec.shards`) is reaped and re-forked from its
  slot thread; the job sees a retryable :class:`HiperError`.

The ``procs`` backend is *not* warm-poolable: its unit of construction is a
tree of OS processes wired to one job's shared-memory segments, torn down by
the rank teardown protocol. Procs jobs therefore run cold per job on the
slot thread itself (it already blocks outside the GIL on that process tree;
the slot still serializes and fair-shares them).
"""

from __future__ import annotations

import os
import pickle
import signal
import socket
import time
import traceback
import warnings
from typing import Any, Callable, Dict, Optional, Tuple

from repro.net.procfabric import recv_frame, send_frame
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
    pair.
    """
    if spec.backend == "procs":
        from repro.verify.spmd_workloads import run_procs_workload

        digest, _res = run_procs_workload(
            spec.app, nranks=spec.ranks, workers_per_rank=1,
            seed=spec.seed, cfg_kwargs=dict(spec.params))
        return digest
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
# Wire (procfabric frames over a socketpair), one reply per request:
#   ("run", spec, name) -> ("ok", value, info) | ("err", exc, info)
#   ("rebuild",)        -> ("ok", None, info)
#   EOF                 -> the worker closes its entry and exits 0
# ``info`` is ``(jobs_run, construction_s, rebuilds)`` of the worker. A
# failure outside a job body sends ("crash", type, message, traceback)
# and the worker exits 1.

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


def _close_inherited_fds(keep: int) -> None:
    """Close every descriptor but stdio and ``keep``: the daemon's listening
    socket and client connections, the other slots' pipe ends and this
    worker's own parent-side end — or EOF would never reach anybody."""
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except OSError:
        fds = range(3, os.sysconf("SC_OPEN_MAX"))
    for fd in fds:
        if fd > 2 and fd != keep:
            try:
                os.close(fd)
            except OSError:
                pass  # the listing's own descriptor


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


def _serve(sock: socket.socket, backend: str,
           entry_kwargs: Optional[Dict[str, Any]]) -> None:
    """The worker's request loop; returns on EOF (the parent closed the
    pipe or is gone)."""
    def build() -> Optional[WarmRuntime]:
        if entry_kwargs is None:  # warm=False: every job runs cold, here
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
        request = recv_frame(sock)
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
            send_frame(sock, reply + (info,))
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            send_frame(sock, ("err", TypeError(
                f"job result cannot cross the pool worker's pipe: {exc}"),
                info))
    if entry is not None:
        entry.close()


def _worker_process(sock: socket.socket, backend: str,
                    entry_kwargs: Optional[Dict[str, Any]]) -> None:
    """Body of a forked pool worker. Never returns."""
    code = 1
    try:
        # The daemon owns the lifecycle: a terminal's Ctrl-C reaches the
        # whole process group, and a worker that died of it would fail the
        # jobs a graceful drain is waiting for. Workers leave on EOF.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        _close_inherited_fds(sock.fileno())
        try:
            _serve(sock, backend, entry_kwargs)
            code = 0
        except BaseException as exc:  # noqa: BLE001 - ship diagnosis to parent
            send_frame(sock, ("crash", type(exc).__name__, str(exc),
                              traceback.format_exc()))
    finally:
        # _exit: skip the parent's atexit hooks and inherited stdio buffers.
        os._exit(code)


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
        _preload()
        self._fork()

    def _fork(self) -> None:
        parent_sock, child_sock = socket.socketpair()
        with warnings.catch_warnings():
            # Python 3.12+ warns when a threaded process forks; a re-fork
            # always is one, and the child touches nothing a thread owned.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            _worker_process(child_sock, self.backend, self._entry_kwargs)
        child_sock.close()
        self._sock, self.pid = parent_sock, pid
        # per worker process; the worker reports them with each reply
        self.jobs_run = self.rebuilds = 0
        self.construction_s: Optional[float] = None

    def _reap(self, grace: float) -> Optional[int]:
        """waitpid the worker, SIGKILLing it once ``grace`` seconds are up;
        returns its exit code (negative: killed by that signal)."""
        deadline = time.monotonic() + grace
        try:
            while True:
                pid, status = os.waitpid(self.pid, os.WNOHANG)
                if pid:
                    return os.waitstatus_to_exitcode(status)
                if time.monotonic() >= deadline:
                    break
                time.sleep(0.005)
            os.kill(self.pid, signal.SIGKILL)
            return os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        except ChildProcessError:  # reaped elsewhere (SIGCHLD ignored)
            return None

    def _call(self, request: Tuple) -> Any:
        """One request/reply round trip. A worker found dead or crashed is
        reaped and re-forked, and reported as a retryable HiperError."""
        self.busy = True
        try:
            try:
                send_frame(self._sock, request)
                reply = recv_frame(self._sock)
            except OSError:
                reply = None
            if reply is None or reply[0] == "crash":
                if self._sock.fileno() < 0:  # close() ran under a stuck job
                    raise HiperError("pool worker closed")
                self._sock.close()
                pid, code = self.pid, self._reap(grace=2.0)
                self._fork()
                self.reforks += 1
                if reply is None:
                    raise HiperError(
                        f"pool worker died (pid {pid}, exit code {code})")
                _, ename, emsg, tb = reply
                raise HiperError(
                    f"pool worker crashed outside a job body: {ename}: "
                    f"{emsg}\n--- worker traceback ---\n{tb}")
            self.jobs_run, self.construction_s, self.rebuilds = reply[-1]
            if reply[0] == "err":
                raise reply[1]
            return reply[1]
        finally:
            self.busy = False

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
        try:  # also wakes a slot thread still blocked on a stuck job
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self._reap(grace=5.0)

    def to_dict(self) -> Dict[str, Any]:
        return {"backend": self.backend, "slot": self.slot, "pid": self.pid,
                "generation": self.generation, "busy": self.busy,
                "jobs_run": self.jobs_run,
                "construction_s": self.construction_s,
                "rebuilds": self.rebuilds, "reforks": self.reforks}
