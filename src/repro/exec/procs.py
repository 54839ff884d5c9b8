"""Multiprocess SPMD backend: one OS process per rank, real parallelism.

This is the reproduction's third execution backend, alongside the
deterministic simulator (``repro.exec.sim`` + ``repro.distrib.spmd_run``)
and the single-process thread pool (``repro.exec.threaded``):

- each rank runs a full :class:`~repro.runtime.runtime.HiperRuntime` on a
  :class:`~repro.exec.threaded.ThreadedExecutor` in its own process (no GIL
  sharing between ranks — wall-clock speedup is real);
- ranks talk over a :class:`~repro.net.procfabric.ProcFabric` socket mesh
  that implements the SimFabric surface, so the whole protocol stack
  (FabricMux channels, SHMEM, MPI collectives, coalescing) carries over
  unchanged;
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

A run is :func:`repro.distrib.spmd.spmd_run` with a ``ProcessExecutor``:
rank count, workers per rank, machine and seed come from the caller's
``ClusterConfig``; the executor adds only how ranks start and how long they
may take. ``main``, the config and the module factories travel to every
rank in a :class:`ProcsJob`; the ``subprocess`` launcher pickles it, so
pass module-level functions or ``functools.partial`` objects of them.
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile
import time
import uuid
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from repro.launch import (Child, ChildError, ChildTimeout, close_all,
                          start_method)
from repro.util.errors import ConfigError, RuntimeStateError

if TYPE_CHECKING:
    from repro.distrib.spmd import ClusterConfig, SpmdResult


@dataclasses.dataclass
class ProcsJob:
    """Everything a child process needs to run one rank."""

    run_id: str
    rundir: str                      # the fabric's rendezvous: fab-<rank>.sock
    main: Callable
    config: ClusterConfig
    module_factories: Sequence[Callable]
    heap_bytes: int
    block_timeout: float
    connect_timeout: float = 30.0


# ----------------------------------------------------------------------
# child side
# ----------------------------------------------------------------------
#
# Wire (frames over the rank's control link, see :mod:`repro.launch`):
#   rank -> ("ready",)           module init done, channels registered
#   parent -> ("go",)            every rank is ready: enter main
#   rank -> ("result", status, counters)
#                                the rank's status (repro.distrib.spmd) and
#                                "module.op" counters; sent in place of
#                                "ready" when setup failed
#   parent -> EOF                every rank has reported, or the run is being
#                                torn down, or the parent is gone: tear down

def procs_child_main(link, job: ProcsJob, rank: int) -> None:
    """Body of one rank process (a :class:`repro.launch.Child` runs it).

    Builds the rank's executor + fabric + shared heap and a one-rank
    :class:`~repro.distrib.spmd.RankGroup` on them, runs the main, sends
    the result, holds the fabric open until the parent hangs up (peers may
    still target this PE's symmetric heap), then tears down.
    """
    from repro.distrib.spmd import RankGroup, failure, merged_counters
    from repro.exec.threaded import ThreadedExecutor
    from repro.net.procfabric import ProcFabric
    from repro.shmem.shared import SharedArena, segment_name

    ex = fabric = arena = group = None
    frame: Optional[Tuple] = None
    try:
        ex = ThreadedExecutor(block_timeout=job.block_timeout)
        fabric = ProcFabric(ex, job.config.nranks, rank, job.rundir,
                            connect_timeout=job.connect_timeout)
        fabric.start()
        arena = SharedArena(segment_name(job.run_id, rank), job.heap_bytes)
        group = RankGroup(job.config, job.module_factories, ex, fabric,
                          rank, rank + 1, shared={"shmem-arena": arena})
        # Startup rendezvous: no rank may enter its main (and start sending)
        # until every rank has finished module init — a message landing on a
        # peer whose channels aren't registered yet would kill its reader
        # thread. Over the control link on purpose: the fabric isn't safely
        # usable yet, which is exactly what this barrier establishes.
        link.send(("ready",))
        if link.recv() is not None:  # None: the run is already being torn down
            group.run(job.main)
            frame = ("result", group.statuses(remote=True)[0],
                     merged_counters(group.contexts))
    except BaseException as exc:  # noqa: BLE001 - serialized to the parent
        frame = ("result", failure(rank, exc, remote=True), {})
    failed: Optional[BaseException] = None
    try:
        if frame is not None:
            link.send(frame)
            # Serve peers until the whole job is done: another rank's main
            # may still put/get against this PE. The parent hangs up once
            # every rank's result landed.
            link.recv()
    except OSError:
        pass  # the parent is gone: nobody to report to or to serve
    except BaseException as exc:  # noqa: BLE001 - e.g. an unpicklable result
        failed = exc
    ctx = group.contexts[0] if group is not None else None
    for step in (
        (lambda: group.shutdown([frame[1]] if frame else []))
        if group is not None else None,
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
    """The procs back end of :func:`repro.distrib.spmd.spmd_run`: one OS
    process per rank.

    Not a task engine (the engine inside each rank is a
    :class:`ThreadedExecutor`); this owns the run: rendezvous directory,
    the ready/go/result exchange with every rank, the wall deadline, and
    the no-leaked-shared-memory sweep. Starting, diagnosing and reaping the
    rank processes is :mod:`repro.launch`'s.
    """

    mode = "procs"

    def __init__(self, *, launcher: str = "local", heap_bytes: int = 1 << 26,
                 timeout: float = 300.0, block_timeout: float = 60.0):
        if timeout <= 0 or block_timeout <= 0:
            raise ConfigError("timeouts must be positive")
        self._method = start_method(launcher)
        self.launcher_name = launcher
        self.heap_bytes = heap_bytes
        self.timeout = timeout
        self.block_timeout = block_timeout
        #: The latest run's id; it names the run's shared-memory segments.
        self.run_id: Optional[str] = None
        self._children: List[Child] = []
        self._rundir: Optional[str] = None
        self._shutdown = False

    # ------------------------------------------------------------------
    def run(self, main: Callable, config: ClusterConfig,
            module_factories: Sequence[Callable]) -> SpmdResult:
        """Start one process per rank and settle their statuses; this is
        what ``spmd_run`` calls on this back end."""
        from repro.distrib.spmd import SpmdResult, settle

        if self._shutdown:
            raise RuntimeStateError(
                "ProcessExecutor used after shutdown(); create a fresh one")
        if self._children:
            raise RuntimeStateError("a run is already in flight")
        self.run_id = uuid.uuid4().hex[:12]
        self._rundir = tempfile.mkdtemp(prefix=f"repro-procs-{self.run_id}-")
        job = ProcsJob(
            run_id=self.run_id, rundir=self._rundir, main=main, config=config,
            module_factories=tuple(module_factories),
            heap_bytes=self.heap_bytes, block_timeout=self.block_timeout,
        )
        t0 = time.perf_counter()
        try:
            for rank in range(config.nranks):
                self._children.append(Child.start(
                    self._method, procs_child_main, (job, rank),
                    name=f"rank {rank}"))
            frames = self._collect(time.monotonic() + self.timeout)
        except BaseException:
            # A failed start, a timeout, an interrupt: nothing to wait for.
            close_all(self._children, grace=0.0)
            raise
        finally:
            self._sweep()
        wall = time.perf_counter() - t0

        counters: dict = {}
        for frame in frames:
            for key, n in (frame[2] if frame else {}).items():
                counters[key] = counters.get(key, 0) + n
        results = settle([frame and frame[1] for frame in frames],
                         config.nranks)
        return SpmdResult(results, None, wall, self, counters=counters)

    # ------------------------------------------------------------------
    def _collect(self, deadline: float) -> List[Optional[Tuple]]:
        """ready -> go -> result with every rank, inside the wall deadline.
        A rank that died or crashed gets an error status; running out of
        time raises. None: a rank that never started (a peer's setup
        failed)."""
        nranks = len(self._children)
        frames: List[Optional[Tuple]] = [None] * nranks

        def report(rank: int) -> str:
            """The tag of ``rank``'s next frame; a result (or the diagnosis
            of a lost rank, which stands in for one) lands in ``frames``."""
            try:
                frame = self._children[rank].recv(deadline - time.monotonic())
            except ChildError as exc:
                frame = ("result", ("error", rank, type(exc).__name__,
                                    str(exc), ""), {})
            except ChildTimeout:
                stragglers = [r for r in range(nranks) if frames[r] is None]
                raise RuntimeStateError(
                    f"multiprocess run timed out after {self.timeout}s; "
                    f"terminated straggler rank(s) {stragglers} "
                    "(likely a rank stalled at a barrier after a peer "
                    "failure, or the workload outgrew the timeout)"
                ) from None
            if frame[0] == "result":
                frames[rank] = frame
            return frame[0]

        if all(report(rank) == "ready" for rank in range(nranks)):
            for child in self._children:
                try:
                    child.send(("go",))
                except ChildError:
                    pass  # report() below says how it went
            for rank in range(nranks):
                report(rank)
        return frames

    def _sweep(self) -> None:
        """Hang up on every rank (a finished one tears down on EOF), reap,
        and only then sweep for leaks: ranks unlink their own segments on a
        clean exit; the sweep catches killed and crashed ones."""
        from repro.shmem.shared import cleanup_segments

        started = len(self._children)
        close_all(self._children)
        self._children = []
        if self._rundir:
            cleanup_segments(self.run_id, started)
            shutil.rmtree(self._rundir, ignore_errors=True)
        self._rundir = None

    def shutdown(self) -> None:
        """Idempotent; kills any in-flight ranks and sweeps leaks."""
        if self._shutdown:
            return
        self._shutdown = True
        close_all(self._children, grace=0.0)
        self._sweep()

    def __repr__(self) -> str:
        return f"ProcessExecutor(launcher={self.launcher_name!r})"
