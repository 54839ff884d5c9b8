"""The HiPER OpenSHMEM module (paper §II-C2).

OpenSHMEM v1.3 makes no thread-safety guarantees; the paper's module funnels
SHMEM calls through tasks at the Interconnect place so multi-threaded
(multi-worker) ranks use the library safely. Supported API subset: symmetric
allocation, put/get, atomics, quiet/fence, wait-until, collectives — plus
the paper's novel ``shmem_async_when``, which predicates a task's execution
on a remote put into local symmetric memory instead of burning a thread in
``shmem_wait``.

Like the MPI module, every operation has a blocking spelling (plain-callable
tasks) and an ``_async``/future spelling (coroutine tasks, iterative SPMD
mains). ``direct=True`` skips the interconnect funneling: the single-threaded
process-per-core configuration of the paper's "Flat OpenSHMEM" baselines,
where direct library calls are safe.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.modules.base import HiperModule
from repro.mpi import collectives as coll
from repro.mpi.backend import MpiBackend
from repro.net.coalesce import CoalescePolicy
from repro.platform.place import PlaceType
from repro.runtime.future import Future, Promise, when_all
from repro.runtime.runtime import HiperRuntime
from repro.shmem.backend import CMP_OPS, ShmemBackend
from repro.shmem.heap import SignatureTable, SymArray, SymmetricHeap
from repro.util.errors import ModuleError, ShmemError


class ShmemModule(HiperModule):
    """Pluggable OpenSHMEM module."""

    name = "shmem"
    capabilities = frozenset({"communication", "one-sided", "atomics",
                              "collectives"})

    def __init__(self, ctx, *, direct: bool = False,
                 coalesce: Optional[CoalescePolicy] = None):
        super().__init__()
        self.ctx = ctx
        self.rank = ctx.rank
        self.nranks = ctx.nranks
        self.direct = direct
        #: Coalesce small puts/AMOs per destination PE (opt-in; pass a
        #: CoalescePolicy, or True for the defaults). Control-channel
        #: collectives stay per-message so barriers remain prompt.
        self.coalesce = CoalescePolicy() if coalesce is True else coalesce
        self.heap: Optional[SymmetricHeap] = None
        self.backend: Optional[ShmemBackend] = None
        self._ctl: Optional[MpiBackend] = None
        self.runtime: Optional[HiperRuntime] = None

    # ------------------------------------------------------------------
    def initialize(self, runtime: HiperRuntime) -> None:
        self.require_place_type(runtime, PlaceType.INTERCONNECT)
        owners = runtime.paths.workers_covering(runtime.interconnect)
        if not self.direct and len(owners) != 1:
            raise ModuleError(
                "OpenSHMEM module requires the Interconnect place on exactly "
                f"one worker's paths for funneled safety; found {len(owners)}"
            )
        self.runtime = runtime
        # One table per run: ranks in one process share the instance via the
        # run's shared dict; multiprocess ranks each get their own (symmetry
        # is then checked per-process, the real-SHMEM behaviour).
        sigs = self.ctx.shared.setdefault(
            "shmem-alloc-signatures", SignatureTable())
        # Likewise the backend registry; who is in it decides which remote
        # completions are acknowledged by message (ShmemBackend docstring).
        peers = self.ctx.shared.setdefault("shmem-backends", {})
        self.heap = SymmetricHeap(self.rank, shared_signatures=sigs,
                                  arena=self.ctx.shared.get("shmem-arena"))
        self.backend = ShmemBackend(self.ctx.mux, self.rank, self.heap, peers)
        if self.coalesce is not None:
            self.backend.enable_coalescing(self.coalesce)
        # Control channel for collectives (barrier/bcast/reduce algorithms).
        self._ctl = MpiBackend(self.ctx.mux, self.rank, channel="shmem-ctl")
        for api_name, fn in [
            ("shmem_malloc", self.malloc), ("shmem_free", self.free),
            ("shmem_put", self.put), ("shmem_get", self.get),
            ("shmem_quiet", self.quiet), ("shmem_wait_until", self.wait_until),
            ("shmem_async_when", self.async_when),
            ("shmem_barrier_all", self.barrier_all),
            ("shmem_broadcast", self.broadcast),
            ("shmem_int_fadd", self.atomic_fetch_add),
            ("shmem_int_finc", self.atomic_fetch_inc),
            ("shmem_int_cswap", self.atomic_compare_swap),
        ]:
            self.export(runtime, api_name, fn)
        self._initialized = True

    def finalize(self, runtime: HiperRuntime) -> None:
        if self.backend is not None and self.backend.outstanding_remote:
            raise ShmemError(
                f"PE {self.rank} finalized with "
                f"{self.backend.outstanding_remote} un-quieted remote operations"
            )

    # ------------------------------------------------------------------
    # symmetric heap
    # ------------------------------------------------------------------
    def malloc(self, shape, dtype=np.int64, fill: Any = 0) -> SymArray:
        return self._heap().allocate(shape, dtype=dtype, fill=fill)

    def free(self, sym: SymArray) -> None:
        self._heap().free(sym)

    @property
    def my_pe(self) -> int:
        return self.rank

    @property
    def n_pes(self) -> int:
        return self.nranks

    # ------------------------------------------------------------------
    # taskify plumbing (shared with the MPI module's pattern)
    # ------------------------------------------------------------------
    def _comm_task(self, op_factory: Callable[[], Future], what: str) -> Future:
        """Run ``op_factory`` at the Interconnect place; the returned future
        tracks the operation's completion. ``direct`` mode issues inline."""
        rt = self.runtime
        assert rt is not None
        rt.stats.count(self.name, what)
        if self.direct:
            return op_factory()

        def _gen():
            result = yield op_factory()
            return result

        fut = rt.spawn(
            _gen, place=rt.interconnect, module=self.name,
            name=f"shmem-{what}", return_future=True,
        )
        assert fut is not None
        return fut

    # ------------------------------------------------------------------
    # puts / gets
    # ------------------------------------------------------------------
    def put_async(self, target: SymArray, data: Any, pe: int,
                  offset: int = 0, *, nbytes: Optional[int] = None) -> Future:
        """Local-completion future for a put into PE ``pe``.

        The source buffer is snapshotted at call time (the communication task
        may run later), so callers may reuse it immediately. ``nbytes``
        overrides the wire size (workload scaling; see DESIGN.md §2).

        The snapshot comes from the backend's buffer pool and doubles as the
        wire payload (``copy=False``), so the module+backend path performs
        exactly one copy, not two.
        """
        b = self._backend()
        data = b.snapshot(data)
        return self._comm_task(
            lambda: b.put(target, data, pe, offset, nbytes=nbytes, copy=False),
            "put",
        )

    def put(self, target: SymArray, data: Any, pe: int, offset: int = 0,
            *, nbytes: Optional[int] = None) -> None:
        self.put_async(target, data, pe, offset, nbytes=nbytes).wait()

    def get_async(self, source: SymArray, pe: int, offset: int = 0,
                  count: Optional[int] = None) -> Future:
        b = self._backend()
        return self._comm_task(lambda: b.get(source, pe, offset, count), "get")

    def get(self, source: SymArray, pe: int, offset: int = 0,
            count: Optional[int] = None) -> np.ndarray:
        return self.get_async(source, pe, offset, count).wait()

    # ------------------------------------------------------------------
    # atomics
    # ------------------------------------------------------------------
    def atomic_fetch_add(self, target: SymArray, value: Any, pe: int,
                         index: int = 0) -> Any:
        return self.atomic_fetch_add_async(target, value, pe, index).wait()

    def atomic_fetch_add_async(self, target: SymArray, value: Any, pe: int,
                               index: int = 0) -> Future:
        b = self._backend()
        return self._comm_task(
            lambda: b.amo("add", target, index, pe, operand=value), "fadd"
        )

    def atomic_fetch_add_wave(self, target: SymArray, values: Sequence[Any],
                              pes: Sequence[int], index: int = 0) -> List[Future]:
        """Issue one fetch-add per ``(pes[i], values[i])`` pair — an
        all-to-all reservation wave — priced by the fabric in one vectorized
        pass when the path supports it (direct mode, no coalescing, no fault
        injection). Otherwise falls back to a loop of
        :meth:`atomic_fetch_add_async`; schedules are bit-identical either
        way, the wave only amortizes per-message Python overhead."""
        b = self._backend()
        if self.direct and b.wave_capable():
            rt = self.runtime
            assert rt is not None
            rt.stats.count(self.name, "fadd", len(pes))
            return b.amo_fetch_wave("add", target, index, list(pes),
                                    list(values))
        return [self.atomic_fetch_add_async(target, v, pe, index)
                for pe, v in zip(pes, values)]

    def atomic_fetch_inc(self, target: SymArray, pe: int, index: int = 0) -> Any:
        return self.atomic_fetch_inc_async(target, pe, index).wait()

    def atomic_fetch_inc_async(self, target: SymArray, pe: int,
                               index: int = 0) -> Future:
        b = self._backend()
        return self._comm_task(lambda: b.amo("inc", target, index, pe), "finc")

    def atomic_add_async(self, target: SymArray, value: Any, pe: int,
                         index: int = 0) -> Future:
        """Non-fetching add: local completion only, remote visible by quiet."""
        b = self._backend()
        return self._comm_task(
            lambda: b.amo("add", target, index, pe, operand=value, fetch=False),
            "add",
        )

    def atomic_compare_swap(self, target: SymArray, cond: Any, value: Any,
                            pe: int, index: int = 0) -> Any:
        return self.atomic_compare_swap_async(target, cond, value, pe, index).wait()

    def atomic_compare_swap_async(self, target: SymArray, cond: Any, value: Any,
                                  pe: int, index: int = 0) -> Future:
        b = self._backend()
        return self._comm_task(
            lambda: b.amo("cswap", target, index, pe, operand=value, cond=cond),
            "cswap",
        )

    def atomic_swap_async(self, target: SymArray, value: Any, pe: int,
                          index: int = 0) -> Future:
        b = self._backend()
        return self._comm_task(
            lambda: b.amo("swap", target, index, pe, operand=value), "swap"
        )

    # ------------------------------------------------------------------
    # ordering & synchronization
    # ------------------------------------------------------------------
    def quiet_async(self) -> Future:
        b = self._backend()
        return self._comm_task(lambda: b.quiet(), "quiet")

    def quiet(self) -> None:
        self.quiet_async().wait()

    def wait_until_async(self, sym: SymArray, cmp: str, value: Any,
                         index: int = 0) -> Future:
        """Future form of ``shmem_wait_until`` — no thread burned."""
        b = self._backend()
        self.runtime.stats.count(self.name, "wait_until")
        return b.watch(sym, index, cmp, value)

    def wait_until(self, sym: SymArray, cmp: str, value: Any, index: int = 0) -> None:
        """Spec-style blocking wait (plain-callable tasks only)."""
        self.wait_until_async(sym, cmp, value, index).wait()

    def async_when(self, sym: SymArray, cmp: str, value: Any,
                   body: Callable[[], Any], *, index: int = 0,
                   cost: float = 0.0, daemon: bool = False) -> Future:
        """The paper's novel API (§II-C2): make a task's execution predicated
        on a remote put/AMO satisfying ``sym[index] <cmp> value``; returns the
        task's completion future. Spelled ``shmem_async_when`` in the paper:

            shmem_async_when(mem_addr, wait_for_val, [=] { body; });

        ``daemon=True`` detaches the task from the caller's finish scope: use
        it for standing watchers (e.g. re-arming receive handlers) whose
        condition may never fire again — otherwise the enclosing scope would
        wait on them forever.
        """
        rt = self.runtime
        assert rt is not None
        cond = self.wait_until_async(sym, cmp, value, index)
        fut = rt.spawn(
            body, await_future=cond, module=self.name, name="shmem-async_when",
            cost=cost, return_future=True,
            scope=rt._poll_scope() if daemon else None,
        )
        rt.stats.count(self.name, "async_when")
        assert fut is not None
        return fut

    def local_store(self, sym: SymArray, index, value) -> None:
        """Store into local symmetric memory, waking watchers (the local-PE
        analogue of a remote put for wait_until/async_when purposes)."""
        self._backend().local_update(sym, index, value)

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def _coll_task(self, gen_factory: Callable[[], Any], what: str) -> Future:
        rt = self.runtime
        assert rt is not None
        place = rt.default_place() if self.direct else rt.interconnect
        fut = rt.spawn(
            gen_factory, place=place, module=self.name,
            name=f"shmem-{what}", return_future=True,
        )
        rt.stats.count(self.name, what)
        assert fut is not None
        return fut

    def barrier_all_async(self) -> Future:
        """Quiet, then dissemination barrier (spec: barrier implies quiet)."""
        c = self._ctl_backend()
        b = self._backend()
        tag = c.next_collective_tag()

        def _gen():
            yield b.quiet()
            yield from coll.barrier(c, tag)

        return self._coll_task(_gen, "barrier_all")

    def barrier_all(self) -> None:
        self.barrier_all_async().wait()

    def broadcast_async(self, value: Any, root: int = 0) -> Future:
        c = self._ctl_backend()
        tag = c.next_collective_tag()
        return self._coll_task(lambda: coll.bcast(c, value, root, tag), "broadcast")

    def broadcast(self, value: Any, root: int = 0) -> Any:
        return self.broadcast_async(value, root).wait()

    def fcollect_async(self, value: Any) -> Future:
        """Allgather (rank-indexed list of every PE's value)."""
        c = self._ctl_backend()
        tag = c.next_collective_tag()
        return self._coll_task(lambda: coll.allgather(c, value, tag), "fcollect")

    def fcollect(self, value: Any) -> List[Any]:
        return self.fcollect_async(value).wait()

    def reduce_async(self, value: Any, op: Callable[[Any, Any], Any]) -> Future:
        """to-all reduction (every PE gets the result)."""
        c = self._ctl_backend()
        tag = c.next_collective_tag()
        return self._coll_task(lambda: coll.allreduce(c, value, op, tag), "reduce")

    def sum_to_all(self, value: Any) -> Any:
        return self.reduce_async(value, lambda a, b: a + b).wait()

    def max_to_all(self, value: Any) -> Any:
        return self.reduce_async(value, lambda a, b: max(a, b)).wait()

    def alltoall_async(self, values: Sequence[Any]) -> Future:
        c = self._ctl_backend()
        tag = c.next_collective_tag()
        return self._coll_task(lambda: coll.alltoall(c, values, tag), "alltoall")

    def alltoall(self, values: Sequence[Any]) -> List[Any]:
        return self.alltoall_async(values).wait()

    # ------------------------------------------------------------------
    # distributed lock (spec §9.10; used by the UTS baselines)
    # ------------------------------------------------------------------
    def set_lock_async(self, lock: SymArray, index: int = 0,
                       home: int = 0) -> Future:
        """Acquire: spin on remote compare-and-swap with the lock's ``home``
        PE. Each probe is a round trip, so contention costs real virtual
        time — the mechanism behind the paper's UTS contention degradation
        (§III-C1)."""
        b = self._backend()

        def _gen():
            while True:
                old = yield b.amo("cswap", lock, index, home, operand=1, cond=0)
                if old == 0:
                    return None

        return self._coll_task(_gen, "set_lock")

    def set_lock(self, lock: SymArray, index: int = 0, home: int = 0) -> None:
        self.set_lock_async(lock, index, home).wait()

    def clear_lock_async(self, lock: SymArray, index: int = 0,
                         home: int = 0) -> Future:
        b = self._backend()

        def _gen():
            yield b.amo("swap", lock, index, home, operand=0)
            return None

        return self._coll_task(_gen, "clear_lock")

    def clear_lock(self, lock: SymArray, index: int = 0, home: int = 0) -> None:
        self.clear_lock_async(lock, index, home).wait()

    # ------------------------------------------------------------------
    def _heap(self) -> SymmetricHeap:
        if self.heap is None:
            raise ModuleError("SHMEM module used before initialization")
        return self.heap

    def _backend(self) -> ShmemBackend:
        if self.backend is None:
            raise ModuleError("SHMEM module used before initialization")
        return self.backend

    def _ctl_backend(self) -> MpiBackend:
        if self._ctl is None:
            raise ModuleError("SHMEM module used before initialization")
        return self._ctl


def shmem_factory(**kwargs) -> Callable[[Any], ShmemModule]:
    """Module factory for :func:`repro.distrib.spmd_run`."""
    return lambda ctx: ShmemModule(ctx, **kwargs)
