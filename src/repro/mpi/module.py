"""The HiPER MPI module (paper §II-C1).

Implements the paper's two flows over :class:`MpiBackend`:

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

``direct=True`` builds the module in *flat* mode: communication runs at the
caller's place with no interconnect funneling — the behaviour of a plain MPI
library in a process-per-core program, used by reference (non-HiPER)
benchmark variants and by the funneling ablation.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from repro.modules.base import HiperModule
from repro.mpi import collectives as coll
from repro.mpi.backend import ANY_SOURCE, ANY_TAG, COMM_WORLD, MpiBackend, MpiRequest
from repro.net.coalesce import CoalescePolicy
from repro.platform.place import PlaceType
from repro.runtime.future import Future, Promise, when_all
from repro.runtime.polling import PollingService
from repro.runtime.runtime import HiperRuntime
from repro.util.errors import ModuleError, MpiError


class MpiModule(HiperModule):
    """Pluggable MPI module: familiar APIs, unified scheduling."""

    name = "mpi"
    capabilities = frozenset({"communication", "p2p", "collectives"})

    def __init__(
        self,
        ctx,
        *,
        direct: bool = False,
        poll_interval: float = 2e-6,
        eager_kick: bool = True,
        adaptive_polling: bool = False,
        max_poll_interval: Optional[float] = None,
        coalesce: Optional[CoalescePolicy] = None,
    ):
        """``ctx`` is the :class:`repro.distrib.RankContext` (the module uses
        its rank id and fabric mux). ``adaptive_polling`` enables exponential
        poll-interval backoff (bounded by ``max_poll_interval``; see
        :class:`PollingService`); ``coalesce`` batches small sends per
        destination (a :class:`CoalescePolicy`, or True for the defaults).
        Both default off to preserve the paper's fixed-interval, per-message
        behavior bit-for-bit."""
        super().__init__()
        self.ctx = ctx
        self.rank = ctx.rank
        self.nranks = ctx.nranks
        self.direct = direct
        self._poll_interval = poll_interval
        self._eager_kick = eager_kick
        self._adaptive_polling = adaptive_polling
        self._max_poll_interval = max_poll_interval
        self.coalesce = CoalescePolicy() if coalesce is True else coalesce
        self.backend: Optional[MpiBackend] = None
        self.polling: Optional[PollingService] = None
        self.runtime: Optional[HiperRuntime] = None

    # ------------------------------------------------------------------
    # lifecycle (paper §II-C items 1-2)
    # ------------------------------------------------------------------
    def initialize(self, runtime: HiperRuntime) -> None:
        self.require_place_type(runtime, PlaceType.INTERCONNECT)
        inter = runtime.interconnect
        owners = runtime.paths.workers_covering(inter)
        if not self.direct and len(owners) != 1:
            raise ModuleError(
                "MPI module requires the Interconnect place on exactly one "
                f"worker's pop and steal paths (THREAD_FUNNELED); found "
                f"{len(owners)} covering workers — choose a path policy "
                "accordingly"
            )
        self.runtime = runtime
        self.backend = MpiBackend(self.ctx.mux, self.rank,
                                  on_progress=self._on_progress)
        if self.coalesce is not None:
            self.backend.enable_coalescing(self.coalesce)
        self.polling = PollingService(
            runtime, inter, module=self.name, interval=self._poll_interval,
            eager_kick=self._eager_kick, adaptive=self._adaptive_polling,
            max_interval=self._max_poll_interval, name="mpi-poll",
        )
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
        self._initialized = True

    def finalize(self, runtime: HiperRuntime) -> None:
        if self.polling is not None and self.polling.outstanding:
            raise MpiError(
                f"MPI finalized with {self.polling.outstanding} outstanding "
                f"asynchronous operations on rank {self.rank}"
            )

    def _on_progress(self) -> None:
        if self.polling is not None:
            self.polling.kick()

    # ------------------------------------------------------------------
    # the paper's two flows
    # ------------------------------------------------------------------
    def _comm_task(self, gen_factory: Callable[[], Any], what: str) -> Future:
        """Taskify flow: spawn the communication coroutine at the
        Interconnect place (or the caller's place in ``direct`` mode);
        return its completion future."""
        rt = self.runtime
        assert rt is not None
        place = rt.default_place() if self.direct else rt.interconnect
        fut = rt.spawn(
            gen_factory, place=place, module=self.name,
            name=f"mpi-{what}", return_future=True,
        )
        rt.stats.count(self.name, what)
        assert fut is not None
        return fut

    def _request_to_future(self, req: MpiRequest, what: str) -> Future:
        """Polling flow: request + promise + polling task (paper §II-C1)."""
        rt = self.runtime
        assert rt is not None and self.polling is not None
        promise = Promise(name=f"mpi-{what}")
        self.polling.watch(
            lambda: (True, req.value) if req.test() else (False, None), promise
        )
        rt.stats.count(self.name, what)
        return promise.get_future()

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def send_async(self, data: Any, dst: int, tag: int = 0,
                   comm: int = COMM_WORLD) -> Future:
        """Taskified send. The buffer is snapshotted at call time, so the
        returned future's satisfaction means "fully handed to the library"."""
        b = self._backend()
        if isinstance(data, np.ndarray):
            data = data.copy()

        def _gen():
            req = b.isend(data, dst, tag, comm)
            yield req.internal_future()

        return self._comm_task(_gen, "send")

    def send(self, data: Any, dst: int, tag: int = 0, comm: int = COMM_WORLD) -> None:
        """Blocking send (plain-callable callers only)."""
        self.send_async(data, dst, tag, comm).wait()

    def recv_async(
        self, src: int = ANY_SOURCE, tag: int = ANY_TAG, comm: int = COMM_WORLD,
        *, buffer: Optional[np.ndarray] = None,
    ) -> Future:
        """Taskified receive; future carries the payload."""
        b = self._backend()

        def _gen():
            req = b.irecv(src, tag, comm, buffer=buffer)
            data, _, _ = yield req.internal_future()
            return data

        return self._comm_task(_gen, "recv")

    def recv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG,
             comm: int = COMM_WORLD, *, buffer: Optional[np.ndarray] = None) -> Any:
        """Blocking receive; returns the payload."""
        return self.recv_async(src, tag, comm, buffer=buffer).wait()

    def isend(self, data: Any, dst: int, tag: int = 0, comm: int = COMM_WORLD) -> Future:
        """Nonblocking send returning a ``future_t`` (paper's API change)."""
        return self._request_to_future(
            self._backend().isend(data, dst, tag, comm), "isend"
        )

    def irecv(
        self, src: int = ANY_SOURCE, tag: int = ANY_TAG, comm: int = COMM_WORLD,
        *, buffer: Optional[np.ndarray] = None,
    ) -> Future:
        """Nonblocking receive returning a future of ``(data, src, tag)``."""
        return self._request_to_future(
            self._backend().irecv(src, tag, comm, buffer=buffer), "irecv"
        )

    def isend_await(self, data_fn: Callable[[], Any], dst: int, dep: Future,
                    tag: int = 0, comm: int = COMM_WORLD) -> Future:
        """``MPI_Isend_await`` from the paper's §II-D listing: issue the send
        once ``dep`` is satisfied. ``data_fn`` materializes the payload at
        issue time (typically reading the buffer the dependency filled)."""
        out = Promise(name="mpi-isend_await")

        def _issue(_f: Future) -> None:
            try:
                _f.value()
            except BaseException as exc:  # noqa: BLE001
                out.put_exception(exc)
                return
            self.isend(data_fn(), dst, tag, comm).on_ready(
                lambda f: _chain(f, out)
            )

        dep.on_ready(_issue)
        return out.get_future()

    # ------------------------------------------------------------------
    # collectives (one participating task per rank, paper §II-C1)
    # ------------------------------------------------------------------
    def barrier_async(self) -> Future:
        b = self._backend()
        tag = b.next_collective_tag()
        return self._comm_task(lambda: coll.barrier(b, tag), "barrier")

    def barrier(self) -> None:
        self.barrier_async().wait()

    def bcast_async(self, data: Any, root: int = 0) -> Future:
        b = self._backend()
        tag = b.next_collective_tag()
        return self._comm_task(lambda: coll.bcast(b, data, root, tag), "bcast")

    def bcast(self, data: Any, root: int = 0) -> Any:
        return self.bcast_async(data, root).wait()

    def reduce_async(self, value: Any, op: Callable[[Any, Any], Any],
                     root: int = 0) -> Future:
        b = self._backend()
        tag = b.next_collective_tag()
        return self._comm_task(lambda: coll.reduce(b, value, op, root, tag), "reduce")

    def reduce(self, value: Any, op: Callable[[Any, Any], Any], root: int = 0) -> Any:
        return self.reduce_async(value, op, root).wait()

    def allreduce_async(self, value: Any, op: Callable[[Any, Any], Any]) -> Future:
        b = self._backend()
        tag = b.next_collective_tag()
        return self._comm_task(lambda: coll.allreduce(b, value, op, tag), "allreduce")

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any]) -> Any:
        return self.allreduce_async(value, op).wait()

    def gather_async(self, value: Any, root: int = 0) -> Future:
        b = self._backend()
        tag = b.next_collective_tag()
        return self._comm_task(lambda: coll.gather(b, value, root, tag), "gather")

    def gather(self, value: Any, root: int = 0) -> Optional[List[Any]]:
        return self.gather_async(value, root).wait()

    def allgather_async(self, value: Any) -> Future:
        b = self._backend()
        tag = b.next_collective_tag()
        return self._comm_task(lambda: coll.allgather(b, value, tag), "allgather")

    def allgather(self, value: Any) -> List[Any]:
        return self.allgather_async(value).wait()

    def scatter_async(self, values: Optional[Sequence[Any]], root: int = 0) -> Future:
        b = self._backend()
        tag = b.next_collective_tag()
        return self._comm_task(lambda: coll.scatter(b, values, root, tag), "scatter")

    def scatter(self, values: Optional[Sequence[Any]], root: int = 0) -> Any:
        return self.scatter_async(values, root).wait()

    def alltoall_async(self, values: Sequence[Any]) -> Future:
        b = self._backend()
        tag = b.next_collective_tag()
        return self._comm_task(lambda: coll.alltoall(b, values, tag), "alltoall")

    def alltoall(self, values: Sequence[Any]) -> List[Any]:
        return self.alltoall_async(values).wait()

    def waitall(self, futures: Sequence[Future]) -> List[Any]:
        """``MPI_Waitall`` over HiPER futures (blocking spelling)."""
        return when_all(list(futures)).wait()

    def waitall_future(self, futures: Sequence[Future]) -> Future:
        """Future spelling of Waitall, for coroutine callers."""
        return when_all(list(futures))

    # ------------------------------------------------------------------
    def _backend(self) -> MpiBackend:
        if self.backend is None:
            raise ModuleError("MPI module used before initialization")
        return self.backend


def _chain(src: Future, dst: Promise) -> None:
    try:
        dst.put(src.value())
    except BaseException as exc:  # noqa: BLE001
        dst.put_exception(exc)


def mpi_factory(**kwargs) -> Callable[[Any], MpiModule]:
    """Module factory for :func:`repro.distrib.spmd_run` (a partial,
    so it pickles for the ``subprocess`` launcher)."""
    return functools.partial(MpiModule, **kwargs)
