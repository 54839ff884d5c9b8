"""Multiprocess SPMD backend: one OS process per rank, real parallelism.

This is the reproduction's third execution backend, alongside the
deterministic simulator (``repro.exec.sim`` + ``repro.distrib.spmd_run``)
and the single-process thread pool (``repro.exec.threaded``):

- each rank runs a full :class:`~repro.runtime.runtime.HiperRuntime` on a
  :class:`~repro.exec.threaded.ThreadedExecutor` in its own process (no GIL
  sharing between ranks — wall-clock speedup is real);
- ranks talk over a :class:`~repro.net.procfabric.ProcFabric` socket mesh
  that implements the SimFabric surface, so the whole protocol stack
  (FabricMux channels, SHMEM, MPI collectives, coalescing, buffer pools)
  carries over unchanged;
- each rank's symmetric heap lives in a ``multiprocessing.shared_memory``
  segment (:class:`~repro.shmem.shared.SharedArena`);
- each rank process is a :class:`repro.launch.Child` — started (``local`` =
  fork, ``subprocess`` = exec), diagnosed when it dies or crashes, and
  reaped there. This module keeps the protocol that rides on the child's
  control link: ``ready`` / ``go`` / ``result``, then EOF.

The parent-side :class:`ProcessExecutor` owns the run's wall deadline and
sweeps the run's shared-memory segments and rendezvous directory after
every run; a rank never outlives its parent, because a rank that finished
tears down on EOF of its link — whether the parent hung up or was killed.

Jobs are described by a :class:`ProcsJob`. Because rank mains must exist in
other processes, apps are named by *factory*: either a dotted path
``"pkg.mod:factory"`` (required for the ``subprocess`` launcher, whose job
is pickled) or a direct callable (``local`` launcher only). The factory is
called with the job's args in the child and must return the ``main(ctx)``
to run.
"""

from __future__ import annotations

import dataclasses
import importlib
import shutil
import tempfile
import time
import traceback
import uuid
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.launch import (Child, ChildError, ChildTimeout, close_all,
                          start_method)
from repro.util.errors import ConfigError, RuntimeStateError

#: Name -> dotted path of the standard module factories (child-resolvable).
_MODULE_FACTORIES: Dict[str, str] = {
    "shmem": "repro.shmem:shmem_factory",
    "mpi": "repro.mpi:mpi_factory",
    "cuda": "repro.cuda:cuda_factory",
    "upcxx": "repro.upcxx:upcxx_factory",
}


def resolve_dotted(path: str) -> Any:
    """``"pkg.mod:attr"`` -> the attribute."""
    mod_name, sep, attr = path.partition(":")
    if not sep:
        raise ConfigError(
            f"dotted factory path must look like 'pkg.mod:attr', got {path!r}")
    mod = importlib.import_module(mod_name)
    try:
        return getattr(mod, attr)
    except AttributeError:
        raise ConfigError(f"{mod_name!r} has no attribute {attr!r}") from None


@dataclasses.dataclass
class ProcsJob:
    """Everything a child process needs to run one rank."""

    run_id: str
    rundir: str                      # the fabric's rendezvous: fab-<rank>.sock
    nranks: int
    factory: Union[str, Callable]    # dotted path, or callable (fork only)
    args: Tuple = ()
    kwargs: Optional[Dict[str, Any]] = None
    #: (module name or dotted factory-factory path, kwargs) per module.
    modules: Sequence = (("shmem", {}),)
    machine: str = "workstation"
    workers_per_rank: int = 1
    heap_bytes: int = 1 << 26
    seed: int = 0
    block_timeout: float = 60.0
    connect_timeout: float = 30.0

    def resolve_factory(self) -> Callable:
        if callable(self.factory):
            return self.factory
        return resolve_dotted(self.factory)

    def resolve_modules(self) -> List[Callable]:
        out = []
        for spec in self.modules:
            if callable(spec):
                out.append(spec)
                continue
            name, kwargs = spec
            path = _MODULE_FACTORIES.get(name, name)
            out.append(resolve_dotted(path)(**(kwargs or {})))
        return out


@dataclasses.dataclass
class ProcsResult:
    """Outcome of one multiprocess SPMD run."""

    results: List[Any]
    wall_time: float
    run_id: str
    launcher: str
    #: Merged per-rank stats counters: "module.op" -> count.
    counters: Dict[str, int]

    @property
    def nranks(self) -> int:
        return len(self.results)


# ----------------------------------------------------------------------
# child side
# ----------------------------------------------------------------------
#
# Wire (frames over the rank's control link, see :mod:`repro.launch`):
#   rank -> ("ready",)           module init done, channels registered
#   parent -> ("go",)            every rank is ready: enter main
#   rank -> ("result", status)   ("ok", value, counters), or
#                                ("error", rank, type, message, traceback);
#                                sent in place of "ready" when setup failed
#   parent -> EOF                every rank has reported, or the run is being
#                                torn down, or the parent is gone: tear down

def procs_child_main(link, job: ProcsJob, rank: int) -> None:
    """Body of one rank process (a :class:`repro.launch.Child` runs it).

    Builds the rank's runtime + fabric + shared heap, runs the main, sends
    the result, holds the fabric open until the parent hangs up (peers may
    still target this PE's symmetric heap), then tears down.
    """
    from repro.distrib.spmd import ClusterConfig, RankContext, _bind_main
    from repro.exec.threaded import ThreadedExecutor
    from repro.net.procfabric import ProcFabric
    from repro.platform.hwloc import discover, machine
    from repro.runtime.runtime import HiperRuntime
    from repro.shmem.shared import SharedArena, segment_name

    ex = fabric = arena = rt = ctx = None
    status: Optional[Tuple] = None
    try:
        main_fn = job.resolve_factory()(*job.args, **(job.kwargs or {}))
        ex = ThreadedExecutor(block_timeout=job.block_timeout)
        fabric = ProcFabric(ex, job.nranks, rank, job.rundir,
                            connect_timeout=job.connect_timeout)
        fabric.start()
        arena = SharedArena(segment_name(job.run_id, rank), job.heap_bytes)
        spec = machine(job.machine)
        model = discover(spec, num_workers=job.workers_per_rank,
                         detail="flat")
        model.name = f"{model.name}-r{rank}"
        rt = HiperRuntime(model, ex, rank=rank, nranks=job.nranks,
                          seed=job.seed)
        config = ClusterConfig(nodes=job.nranks, ranks_per_node=1,
                               workers_per_rank=job.workers_per_rank,
                               machine=spec)
        ctx = RankContext(rank, job.nranks, rt, fabric, config,
                          shared={"shmem-arena": arena})
        mods = [factory(ctx) for factory in job.resolve_modules()]
        rt.start(mods)
        # Startup rendezvous: no rank may enter its main (and start sending)
        # until every rank has finished module init — a message landing on a
        # peer whose channels aren't registered yet would kill its reader
        # thread. Over the control link on purpose: the fabric isn't safely
        # usable yet, which is exactly what this barrier establishes.
        link.send(("ready",))
        if link.recv() is not None:  # None: the run is already being torn down
            result = ex.run_root(rt, _bind_main(main_fn, ctx),
                                 name=f"rank{rank}-main")
            counters = {f"{m}.{op}": int(v)
                        for (m, op), v in rt.stats.counters.items()}
            status = ("ok", result, counters)
    except BaseException as exc:  # noqa: BLE001 - serialized to the parent
        status = ("error", rank, type(exc).__name__, str(exc),
                  traceback.format_exc())
    failed: Optional[BaseException] = None
    try:
        if status is not None:
            link.send(("result", status))
            # Serve peers until the whole job is done: another rank's main
            # may still put/get against this PE. The parent hangs up once
            # every rank's result landed.
            link.recv()
    except OSError:
        pass  # the parent is gone: nobody to report to or to serve
    except BaseException as exc:  # noqa: BLE001 - e.g. an unpicklable result
        failed = exc
    for step in (
        (lambda: rt.shutdown()) if rt is not None else None,
        (lambda: ctx._mux.close()) if ctx is not None and ctx._mux else None,
        (lambda: fabric.close()) if fabric is not None else None,
        (lambda: ex.shutdown()) if ex is not None else None,
        (lambda: arena.destroy()) if arena is not None else None,
    ):
        if step is None:
            continue
        try:
            step()
        except BaseException as exc:  # noqa: BLE001 - finish the teardown
            failed = failed or exc
    if failed is not None:
        raise failed  # the seam ships it home as a crash frame; exit code 1


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class ProcessExecutor:
    """Parent-side orchestrator of a multiprocess SPMD run.

    Not a task engine (the engine inside each rank is a
    :class:`ThreadedExecutor`); this owns the run: rendezvous directory,
    the ready/go/result exchange with every rank, the wall deadline, and
    the no-leaked-shared-memory sweep. Starting, diagnosing and reaping the
    rank processes is :mod:`repro.launch`'s.
    """

    mode = "procs"

    def __init__(
        self,
        nranks: int,
        *,
        launcher: str = "local",
        workers_per_rank: int = 1,
        machine: str = "workstation",
        heap_bytes: int = 1 << 26,
        timeout: float = 300.0,
        block_timeout: float = 60.0,
        seed: int = 0,
    ):
        if nranks < 1:
            raise ConfigError(f"nranks must be >= 1, got {nranks}")
        if timeout <= 0 or block_timeout <= 0:
            raise ConfigError("timeouts must be positive")
        self.nranks = nranks
        self.launcher_name = launcher
        self.workers_per_rank = workers_per_rank
        self.machine = machine
        self.heap_bytes = heap_bytes
        self.timeout = timeout
        self.block_timeout = block_timeout
        self.seed = seed
        self._children: List[Child] = []
        self._rundir: Optional[str] = None
        self._run_id: Optional[str] = None
        self._shutdown = False

    # ------------------------------------------------------------------
    def run(
        self,
        factory: Union[str, Callable],
        args: Tuple = (),
        kwargs: Optional[Dict[str, Any]] = None,
        *,
        modules: Sequence = (("shmem", {}),),
    ) -> ProcsResult:
        """Start ``nranks`` rank processes and collect their results."""
        if self._shutdown:
            raise RuntimeStateError(
                "ProcessExecutor used after shutdown(); create a fresh one")
        if self._children:
            raise RuntimeStateError("a run is already in flight")
        method = start_method(self.launcher_name)
        run_id = uuid.uuid4().hex[:12]
        rundir = tempfile.mkdtemp(prefix=f"repro-procs-{run_id}-")
        job = ProcsJob(
            run_id=run_id, rundir=rundir, nranks=self.nranks,
            factory=factory, args=tuple(args), kwargs=dict(kwargs or {}),
            modules=tuple(modules), machine=self.machine,
            workers_per_rank=self.workers_per_rank,
            heap_bytes=self.heap_bytes, seed=self.seed,
            block_timeout=self.block_timeout,
        )
        self._rundir, self._run_id = rundir, run_id
        t0 = time.perf_counter()
        try:
            for rank in range(self.nranks):
                self._children.append(Child.start(
                    method, procs_child_main, (job, rank),
                    name=f"rank {rank}"))
            statuses = self._collect(time.monotonic() + self.timeout)
        except BaseException:
            # A failed start, a timeout, an interrupt: nothing to wait for.
            close_all(self._children, grace=0.0)
            raise
        finally:
            self._sweep()
        wall = time.perf_counter() - t0

        results: List[Any] = []
        counters: Dict[str, int] = {}
        errors: List[Tuple[int, str, str, str]] = []
        for status in statuses:
            if status is not None and status[0] == "ok":
                results.append(status[1])
                for key, v in status[2].items():
                    counters[key] = counters.get(key, 0) + v
                continue
            results.append(None)
            if status is not None:  # None: never started, a peer's setup failed
                errors.append(status[1:])
        if errors:
            # Surface the root cause: a lost rank before the broken pipes it
            # left its peers, and anything before a stranded peer's watchdog
            # stall.
            order = {"ChildDied": 0, "ChildCrashed": 0, "DeadlockError": 2}
            errors.sort(key=lambda e: order.get(e[1], 1))
            rank, ename, emsg, etb = errors[0]
            detail = f"\n--- rank {rank} traceback ---\n{etb}" if etb else ""
            raise ConfigError(
                f"{len(errors)} rank(s) failed; first failure on rank "
                f"{rank}: {ename}: {emsg}{detail}"
            )
        return ProcsResult(results=results, wall_time=wall, run_id=run_id,
                           launcher=self.launcher_name, counters=counters)

    # ------------------------------------------------------------------
    def _collect(self, deadline: float) -> List[Optional[Tuple]]:
        """ready -> go -> result with every rank, inside the wall deadline.
        A rank that died or crashed becomes an error status; running out of
        time raises."""
        statuses: List[Optional[Tuple]] = [None] * self.nranks

        def report(rank: int) -> str:
            """The tag of ``rank``'s next frame; a result (or the diagnosis
            of a lost rank, which stands in for one) lands in ``statuses``."""
            try:
                frame = self._children[rank].recv(deadline - time.monotonic())
            except ChildError as exc:
                frame = ("result", ("error", rank, type(exc).__name__,
                                    str(exc), ""))
            except ChildTimeout:
                stragglers = [r for r in range(self.nranks)
                              if statuses[r] is None]
                raise RuntimeStateError(
                    f"multiprocess run timed out after {self.timeout}s; "
                    f"terminated straggler rank(s) {stragglers} "
                    "(likely a rank stalled at a barrier after a peer "
                    "failure, or the workload outgrew the timeout)"
                ) from None
            if frame[0] == "result":
                statuses[rank] = frame[1]
            return frame[0]

        if all(report(rank) == "ready" for rank in range(self.nranks)):
            for child in self._children:
                try:
                    child.send(("go",))
                except ChildError:
                    pass  # report() below says how it went
            for rank in range(self.nranks):
                report(rank)
        return statuses

    def _sweep(self) -> None:
        """Hang up on every rank (a finished one tears down on EOF), reap,
        and only then sweep for leaks: ranks unlink their own segments on a
        clean exit; the sweep catches killed and crashed ones."""
        from repro.shmem.shared import cleanup_segments

        close_all(self._children)
        self._children = []
        if self._run_id:
            cleanup_segments(self._run_id, self.nranks)
        if self._rundir:
            shutil.rmtree(self._rundir, ignore_errors=True)
        self._rundir = self._run_id = None

    def shutdown(self) -> None:
        """Idempotent; kills any in-flight ranks and sweeps leaks."""
        if self._shutdown:
            return
        self._shutdown = True
        close_all(self._children, grace=0.0)
        self._sweep()

    def __repr__(self) -> str:
        return (f"ProcessExecutor(nranks={self.nranks}, "
                f"launcher={self.launcher_name!r})")


def procs_run(
    factory: Union[str, Callable],
    args: Tuple = (),
    kwargs: Optional[Dict[str, Any]] = None,
    *,
    nranks: int = 4,
    modules: Sequence = (("shmem", {}),),
    **executor_kwargs,
) -> ProcsResult:
    """One-shot multiprocess SPMD run (the ``spmd_run`` of this backend)."""
    ex = ProcessExecutor(nranks, **executor_kwargs)
    try:
        return ex.run(factory, args, kwargs, modules=modules)
    finally:
        ex.shutdown()
