"""The HiPER UPC++ module (paper §II-C; HPGMG-FV uses it together with MPI).

Unlike MPI and OpenSHMEM, UPC++ is futures-native, so the module's mapping is
direct: ``rput``/``rget``/``rpc`` return HiPER futures, and incoming RPCs are
scheduled as ordinary tasks on the target rank's runtime — one unified
scheduler for local tasks, remote RPCs, and everything else.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Union

import numpy as np

from repro.modules.base import HiperModule, NotInitialized
from repro.mpi import collectives as coll
from repro.mpi.backend import MpiBackend
from repro.net.coalesce import CoalescePolicy
from repro.platform.place import PlaceType
from repro.runtime.future import Future
from repro.runtime.runtime import HiperRuntime
from repro.upcxx.backend import GlobalPtr, UpcxxBackend


class UpcxxModule(HiperModule):
    """Pluggable UPC++ module."""

    name = "upcxx"
    capabilities = frozenset({"communication", "one-sided", "rpc"})

    def __init__(self, ctx, *, coalesce: Union[CoalescePolicy, bool, None] = None):
        super().__init__()
        self.ctx = ctx
        self.rank = ctx.rank
        self.nranks = ctx.nranks
        #: Coalesce small rputs/rgets/RPCs per destination (opt-in; a
        #: CoalescePolicy, or True for the defaults).
        self.coalesce = coalesce
        self.backend: UpcxxBackend = NotInitialized(self.name)
        self._ctl: MpiBackend = NotInitialized(self.name)

    # ------------------------------------------------------------------
    def initialize(self, runtime: HiperRuntime) -> None:
        self.require_place_type(runtime, PlaceType.INTERCONNECT)
        self.runtime = runtime
        self.place = runtime.interconnect
        peers = self.ctx.shared.setdefault("upcxx-backends", {})
        self.backend = UpcxxBackend(
            self.ctx.mux, self.rank, peers, spawn_rpc=self._spawn_rpc
        )
        if self.coalesce:
            self.backend.enable_coalescing(self.coalesce)
        self._ctl = MpiBackend(self.ctx.mux, self.rank, channel="upcxx-ctl")
        for api_name, fn in [
            ("upcxx_shared_array", self.shared_array),
            ("upcxx_rput", self.rput), ("upcxx_rget", self.rget),
            ("upcxx_rpc", self.rpc), ("upcxx_barrier", self.barrier),
        ]:
            self.export(runtime, api_name, fn)

    def _spawn_rpc(self, body: Callable[[], Any]) -> Future:
        """Incoming RPC bodies become tasks on this rank's runtime, competing
        in the same deques as local work (unified scheduling)."""
        rt = self.runtime
        fut = rt.spawn(
            body, module=self.name, name="upcxx-rpc",
            scope=rt._poll_scope(), return_future=True,
        )
        rt.stats.count(self.name, "rpc_in")
        return fut

    # ------------------------------------------------------------------
    # shared objects and one-sided ops
    # ------------------------------------------------------------------
    def shared_array(self, shape, dtype=np.float64) -> "SharedArray":
        """Collective: every rank contributes one local block of a globally
        addressable array; returns this rank's handle."""
        local = np.zeros(shape, dtype=dtype)
        gptr = self.backend.register_shared(local)
        self.runtime.stats.count(self.name, "shared_array")
        return SharedArray(self, gptr.obj_id, local)

    def rput(self, data: Any, gptr: GlobalPtr) -> Future:
        self.runtime.stats.count(self.name, "rput")
        return self.backend.rput(data, gptr)

    def rget(self, gptr: GlobalPtr, count: int) -> Future:
        self.runtime.stats.count(self.name, "rget")
        return self.backend.rget(gptr, count)

    def rpc(self, target: int, fn: Callable[..., Any], *args) -> Future:
        self.runtime.stats.count(self.name, "rpc")
        return self.backend.rpc(target, fn, *args)

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def barrier_async(self) -> Future:
        return self.collective("barrier", coll.barrier, self._ctl)

    def barrier(self) -> None:
        self.barrier_async().wait()

    def allreduce_async(self, value: Any, op: Callable[[Any, Any], Any]) -> Future:
        return self.collective("allreduce", coll.allreduce, self._ctl, value, op)

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any]) -> Any:
        return self.allreduce_async(value, op).wait()

    def broadcast_async(self, value: Any, root: int = 0) -> Future:
        return self.collective("broadcast", coll.bcast, self._ctl, value, root)

    def broadcast(self, value: Any, root: int = 0) -> Any:
        return self.broadcast_async(value, root).wait()


class SharedArray:
    """This rank's block of a distributed shared array, plus global pointers
    to any rank's block."""

    __slots__ = ("_module", "obj_id", "local")

    def __init__(self, module: UpcxxModule, obj_id: int, local: np.ndarray):
        self._module = module
        self.obj_id = obj_id
        self.local = local

    def gptr(self, rank: int, offset: int = 0) -> GlobalPtr:
        return GlobalPtr(rank, self.obj_id, offset)

    def __repr__(self) -> str:
        return f"SharedArray(obj={self.obj_id}, local_shape={self.local.shape})"


def upcxx_factory(**kwargs) -> Callable[[Any], UpcxxModule]:
    """Module factory for :func:`repro.distrib.spmd_run` (a partial,
    so it pickles for the ``subprocess`` launcher)."""
    return functools.partial(UpcxxModule, **kwargs)
