"""The HiPER MPI module (paper §II-C1).

Implements the paper's two flows over :class:`MpiBackend`, with the
:class:`HiperModule` helpers that write them once for every module:

- **taskify** (synchronous-looking APIs): wrap the underlying call in a task
  targeted at the Interconnect place and deschedule the caller until it
  completes. In this reproduction the communication task is a *coroutine*
  (it suspends on backend request futures instead of holding a call stack —
  the analogue of the paper's Boost.Context suspension), and every taskified
  API comes in two spellings:

  * ``send(...)`` — blocks the calling task (plain-callable callers);
  * ``send_async(...) -> Future`` — returns the communication task's
    completion future (coroutine callers ``yield`` it). Iterative SPMD mains
    should use the async spellings (see ``SimExecutor`` nesting notes).

- **polling** (asynchronous APIs): ``isend``/``irecv`` call the underlying
  nonblocking API to get a request, pair it with a fresh promise on the
  pending list, and let the module's polling task satisfy promises as
  requests complete. The ``MPI_Request`` out-parameter of the standard API
  is replaced by a returned ``future_t``, exactly the paper's API change.

The module asserts at initialization that the Interconnect place exists and
is covered by exactly one worker's paths, the analogue of configuring the
underlying library in ``MPI_THREAD_FUNNELED`` mode.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, List, Optional, Sequence, Union

import numpy as np

from repro.modules.base import HiperModule, NotInitialized
from repro.mpi import collectives as coll
from repro.mpi.backend import ANY_SOURCE, ANY_TAG, COMM_WORLD, MpiBackend
from repro.net.coalesce import CoalescePolicy
from repro.runtime.future import Future, after, when_all
from repro.runtime.runtime import HiperRuntime
from repro.util.errors import MpiError


class MpiModule(HiperModule):
    """Pluggable MPI module: familiar APIs, unified scheduling."""

    name = "mpi"
    capabilities = frozenset({"communication", "p2p", "collectives"})
    error = MpiError

    def __init__(
        self,
        ctx,
        *,
        poll_interval: float = 2e-6,
        eager_kick: bool = True,
        coalesce: Union[CoalescePolicy, bool, None] = None,
    ):
        """``ctx`` is the :class:`repro.distrib.RankContext` (the module uses
        its rank id and fabric mux). ``poll_interval`` and ``eager_kick`` are
        :class:`PollingService`'s ``interval`` and ``eager_kick``;
        ``coalesce`` batches small sends per destination (a
        :class:`CoalescePolicy`, or True for the defaults). It defaults off
        to preserve the paper's per-message behavior bit-for-bit."""
        super().__init__()
        self.ctx = ctx
        self.rank = ctx.rank
        self.nranks = ctx.nranks
        self._polling_options = dict(interval=poll_interval,
                                     eager_kick=eager_kick)
        self.coalesce = coalesce
        self.backend: MpiBackend = NotInitialized(self.name)

    # ------------------------------------------------------------------
    # lifecycle (paper §II-C items 1-2)
    # ------------------------------------------------------------------
    def initialize(self, runtime: HiperRuntime) -> None:
        self.funnel(runtime)
        self.runtime = runtime
        self.start_polling(runtime, runtime.interconnect,
                           **self._polling_options)
        self.backend = MpiBackend(self.ctx.mux, self.rank,
                                  on_progress=self.polling.kick)
        if self.coalesce:
            self.backend.enable_coalescing(self.coalesce)
        # Paper §II-C item 4: user-facing functions in the HiPER namespace.
        for api_name, fn in [
            ("MPI_Send", self.send), ("MPI_Recv", self.recv),
            ("MPI_Isend", self.isend), ("MPI_Irecv", self.irecv),
            ("MPI_Isend_await", self.isend_await),
            ("MPI_Barrier", self.barrier), ("MPI_Bcast", self.bcast),
            ("MPI_Reduce", self.reduce), ("MPI_Allreduce", self.allreduce),
            ("MPI_Gather", self.gather), ("MPI_Allgather", self.allgather),
            ("MPI_Scatter", self.scatter), ("MPI_Alltoall", self.alltoall),
            ("MPI_Waitall", self.waitall),
        ]:
            self.export(runtime, api_name, fn)

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def send_async(self, data: Any, dst: int, tag: int = 0,
                   comm: int = COMM_WORLD) -> Future:
        """Taskified send. The buffer is snapshotted at call time, so the
        returned future's satisfaction means "fully handed to the library"."""
        if isinstance(data, np.ndarray):
            data = data.copy()
        return self.taskify("send", _send, self.backend, data, dst, tag, comm)

    def send(self, data: Any, dst: int, tag: int = 0, comm: int = COMM_WORLD) -> None:
        """Blocking send (plain-callable callers only)."""
        self.send_async(data, dst, tag, comm).wait()

    def recv_async(
        self, src: int = ANY_SOURCE, tag: int = ANY_TAG, comm: int = COMM_WORLD,
        *, buffer: Optional[np.ndarray] = None,
    ) -> Future:
        """Taskified receive; future carries the payload."""
        return self.taskify("recv", _recv, self.backend, src, tag, comm, buffer)

    def recv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG,
             comm: int = COMM_WORLD, *, buffer: Optional[np.ndarray] = None) -> Any:
        """Blocking receive; returns the payload."""
        return self.recv_async(src, tag, comm, buffer=buffer).wait()

    def isend(self, data: Any, dst: int, tag: int = 0, comm: int = COMM_WORLD) -> Future:
        """Nonblocking send returning a ``future_t`` (paper's API change)."""
        return self.poll(self.backend.isend(data, dst, tag, comm), "isend")

    def irecv(
        self, src: int = ANY_SOURCE, tag: int = ANY_TAG, comm: int = COMM_WORLD,
        *, buffer: Optional[np.ndarray] = None,
    ) -> Future:
        """Nonblocking receive returning a future of ``(data, src, tag)``."""
        return self.poll(self.backend.irecv(src, tag, comm, buffer=buffer),
                         "irecv")

    def isend_await(self, data_fn: Callable[[], Any], dst: int, dep: Future,
                    tag: int = 0, comm: int = COMM_WORLD) -> Future:
        """``MPI_Isend_await`` from the paper's §II-D listing: issue the send
        once ``dep`` is satisfied. ``data_fn`` materializes the payload at
        issue time (typically reading the buffer the dependency filled)."""
        return after(dep, lambda: self.isend(data_fn(), dst, tag, comm),
                     "mpi-isend_await")

    # ------------------------------------------------------------------
    # collectives (one participating task per rank, paper §II-C1)
    # ------------------------------------------------------------------
    def barrier_async(self) -> Future:
        return self.collective("barrier", coll.barrier, self.backend)

    def barrier(self) -> None:
        self.barrier_async().wait()

    def bcast_async(self, data: Any, root: int = 0) -> Future:
        return self.collective("bcast", coll.bcast, self.backend, data, root)

    def bcast(self, data: Any, root: int = 0) -> Any:
        return self.bcast_async(data, root).wait()

    def reduce_async(self, value: Any, op: Callable[[Any, Any], Any],
                     root: int = 0) -> Future:
        return self.collective("reduce", coll.reduce, self.backend, value, op, root)

    def reduce(self, value: Any, op: Callable[[Any, Any], Any], root: int = 0) -> Any:
        return self.reduce_async(value, op, root).wait()

    def allreduce_async(self, value: Any, op: Callable[[Any, Any], Any]) -> Future:
        return self.collective("allreduce", coll.allreduce, self.backend, value, op)

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any]) -> Any:
        return self.allreduce_async(value, op).wait()

    def gather_async(self, value: Any, root: int = 0) -> Future:
        return self.collective("gather", coll.gather, self.backend, value, root)

    def gather(self, value: Any, root: int = 0) -> Optional[List[Any]]:
        return self.gather_async(value, root).wait()

    def allgather_async(self, value: Any) -> Future:
        return self.collective("allgather", coll.allgather, self.backend, value)

    def allgather(self, value: Any) -> List[Any]:
        return self.allgather_async(value).wait()

    def scatter_async(self, values: Optional[Sequence[Any]], root: int = 0) -> Future:
        return self.collective("scatter", coll.scatter, self.backend, values, root)

    def scatter(self, values: Optional[Sequence[Any]], root: int = 0) -> Any:
        return self.scatter_async(values, root).wait()

    def alltoall_async(self, values: Sequence[Any]) -> Future:
        return self.collective("alltoall", coll.alltoall, self.backend, values)

    def alltoall(self, values: Sequence[Any]) -> List[Any]:
        return self.alltoall_async(values).wait()

    def waitall(self, futures: Sequence[Future]) -> List[Any]:
        """``MPI_Waitall`` over HiPER futures (blocking spelling)."""
        return when_all(list(futures)).wait()

    def waitall_future(self, futures: Sequence[Future]) -> Future:
        """Future spelling of Waitall, for coroutine callers."""
        return when_all(list(futures))


def _send(b: MpiBackend, data: Any, dst: int, tag: int, comm: int):
    yield b.isend(data, dst, tag, comm).internal_future()


def _recv(b: MpiBackend, src: int, tag: int, comm: int,
          buffer: Optional[np.ndarray]):
    data, _, _ = yield b.irecv(src, tag, comm, buffer=buffer).internal_future()
    return data


def mpi_factory(**kwargs) -> Callable[[Any], MpiModule]:
    """Module factory for :func:`repro.distrib.spmd_run` (a partial,
    so it pickles for the ``subprocess`` launcher)."""
    return functools.partial(MpiModule, **kwargs)
