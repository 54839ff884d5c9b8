"""UPC++-style one-sided backend: global pointers, rput/rget, and RPCs.

Differences from the SHMEM backend that justify a separate engine:

- ``rput`` completes at *remote* completion (apply + ack round trip), the
  UPC++ operation-completion default, not at injection;
- ``rpc`` ships a function to the target rank, where it runs as a real HiPER
  task on the target's runtime (unified scheduling: incoming RPCs compete
  with the target's own tasks, which is exactly the paper's point about
  composability);
- global pointers carry ``(rank, obj_id, offset)`` and may address any
  registered shared object, not only symmetric allocations.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple, Union

import numpy as np

from repro.net.coalesce import CoalescePolicy
from repro.net.mux import FabricMux
from repro.runtime.future import Future
from repro.util.errors import UpcxxError

_CHANNEL = "upcxx"
_CTRL = 40


class GlobalPtr:
    """A global pointer: names ``count`` elements of a shared object on a rank."""

    __slots__ = ("rank", "obj_id", "offset")

    def __init__(self, rank: int, obj_id: int, offset: int = 0):
        self.rank = rank
        self.obj_id = obj_id
        self.offset = offset

    def __add__(self, delta: int) -> "GlobalPtr":
        return GlobalPtr(self.rank, self.obj_id, self.offset + delta)

    def __repr__(self) -> str:
        return f"GlobalPtr(rank={self.rank}, obj={self.obj_id}, off={self.offset})"


class UpcxxBackend:
    """Per-rank engine; peers visible through the run's shared registry."""

    def __init__(
        self,
        mux: FabricMux,
        rank: int,
        peers: Dict[int, "UpcxxBackend"],
        *,
        spawn_rpc: Callable[[Callable[[], Any]], Future],
    ):
        self.mux = mux
        self.rank = rank
        self.nranks = mux.nranks
        self._peers = peers
        peers[rank] = self
        #: How to run an incoming RPC body on this rank's runtime; returns
        #: the task's completion future. Wired by the module at init.
        self._spawn_rpc = spawn_rpc
        self._objects: Dict[int, np.ndarray] = {}
        self._next_obj = 0
        #: obj_id -> rputs/rgets that arrived before this rank registered
        #: the object; possible only when ranks run in separate processes.
        self._early: Dict[int, List[Tuple[int, Tuple, float]]] = {}
        self._lock = mux.fabric.executor.lock_class()
        self.rputs = 0
        self.rgets = 0
        self.rpcs = 0
        mux.register_channel(_CHANNEL, self._on_delivery)

    def enable_retries(self, policy) -> None:
        """Retransmit dropped/corrupted UPC++ messages per ``policy`` (a
        :class:`repro.resilience.RetryPolicy`); rput/rget/rpc futures then
        complete on the retried delivery instead of hanging."""
        self.mux.set_retry_policy(_CHANNEL, policy)

    def enable_coalescing(
            self, policy: Union[CoalescePolicy, bool, None] = None) -> None:
        """Batch small rputs/rgets/RPCs per destination into coalesced
        envelopes (see :mod:`repro.net.coalesce`). Opt-in: virtual-time
        schedules change."""
        self.mux.enable_coalescing(_CHANNEL, policy)

    # ------------------------------------------------------------------
    # shared objects
    # ------------------------------------------------------------------
    def register_shared(self, arr: np.ndarray) -> GlobalPtr:
        """Register a local array as globally addressable; collective calls
        in the same order yield matching obj_ids across ranks (shared-array
        construction)."""
        obj_id = self._next_obj
        self._next_obj += 1
        with self._lock:
            self._objects[obj_id] = arr
            early = self._early.pop(obj_id, ())
        for src, payload, time in early:
            self._on_delivery(src, payload, time)
        return GlobalPtr(self.rank, obj_id, 0)

    def local(self, gptr: GlobalPtr) -> np.ndarray:
        if gptr.rank != self.rank:
            raise UpcxxError(
                f"gptr targets rank {gptr.rank}; local() called on rank {self.rank}"
            )
        return self._resolve(gptr.obj_id)

    def _resolve(self, obj_id: int) -> np.ndarray:
        try:
            return self._objects[obj_id]
        except KeyError:
            raise UpcxxError(
                f"rank {self.rank}: no shared object {obj_id} "
                "(construction order diverged across ranks?)"
            ) from None

    # ------------------------------------------------------------------
    # one-sided ops
    # ------------------------------------------------------------------
    def rput(self, data: Any, gptr: GlobalPtr) -> Future:
        """Remote put; future satisfied at *remote* completion (UPC++
        operation completion)."""
        data = np.asarray(data)
        req_id, fut = self.mux.track("upcxx-rput")
        self.mux.post(gptr.rank, _CHANNEL,
                      ("rput", gptr.obj_id, gptr.offset, data.copy(),
                       self.rank, req_id),
                      int(data.nbytes) + _CTRL, req=req_id)
        self.rputs += 1
        return fut

    def rget(self, gptr: GlobalPtr, count: int) -> Future:
        """Remote get of ``count`` elements; future carries the array."""
        if count < 0:
            raise UpcxxError(f"rget count must be non-negative, got {count}")
        req_id, fut = self.mux.track("upcxx-rget")
        self.mux.post(gptr.rank, _CHANNEL,
                      ("rget", gptr.obj_id, gptr.offset, count, self.rank,
                       req_id),
                      _CTRL, req=req_id)
        self.rgets += 1
        return fut

    def rpc(self, target: int, fn: Callable[..., Any], *args,
            nbytes: int = 256) -> Future:
        """Run ``fn(*args)`` as a task on ``target``'s runtime; future carries
        its return value (exceptions propagate back)."""
        if not (0 <= target < self.nranks):
            raise UpcxxError(f"rpc target {target} out of range")
        req_id, fut = self.mux.track("upcxx-rpc")
        self.mux.post(target, _CHANNEL, ("rpc", fn, args, self.rank, req_id),
                      nbytes, req=req_id)
        self.rpcs += 1
        return fut

    # ------------------------------------------------------------------
    def _arrived_early(self, src: int, payload: Tuple, time: float) -> bool:
        """Hold a one-sided op on an object this rank has not registered
        yet; :meth:`register_shared` applies it."""
        if payload[1] in self._objects:
            return False
        with self._lock:
            if payload[1] in self._objects:
                return False
            self._early.setdefault(payload[1], []).append((src, payload, time))
        return True

    def _on_delivery(self, src: int, payload: Tuple, time: float) -> None:
        kind = payload[0]
        if kind in ("rput", "rget") and self._arrived_early(src, payload, time):
            return
        if kind == "rput":
            _, obj_id, offset, data, origin, req_id = payload
            arr = self._resolve(obj_id).reshape(-1)
            if offset + data.size > arr.size:
                self._fail(origin, req_id, UpcxxError(
                    f"rput [{offset},{offset + data.size}) out of bounds "
                    f"for object {obj_id} (size {arr.size})"
                ))
                return
            arr[offset : offset + data.size] = data.reshape(-1)
            self.mux.reply(origin, _CHANNEL, req_id, None, _CTRL)
        elif kind == "rget":
            _, obj_id, offset, count, origin, req_id = payload
            arr = self._resolve(obj_id).reshape(-1)
            if offset + count > arr.size:
                self._fail(origin, req_id, UpcxxError(
                    f"rget [{offset},{offset + count}) out of bounds "
                    f"for object {obj_id} (size {arr.size})"
                ))
                return
            data = arr[offset : offset + count].copy()
            self.mux.reply(origin, _CHANNEL, req_id, data,
                           int(data.nbytes) + _CTRL)
        elif kind == "rpc":
            _, fn, args, origin, req_id = payload
            fut = self._spawn_rpc(lambda: fn(*args))
            fut.on_ready(lambda f: self._rpc_finished(f, origin, req_id))
        else:  # pragma: no cover - protocol corruption
            raise UpcxxError(f"unknown upcxx wire message kind {kind!r}")

    def _rpc_finished(self, fut: Future, origin: int, req_id: int) -> None:
        try:
            value = fut.value()
        except BaseException as exc:  # noqa: BLE001
            self._fail(origin, req_id, exc)
            return
        self.mux.reply(origin, _CHANNEL, req_id, value,
                       int(value.nbytes) + _CTRL
                       if isinstance(value, np.ndarray) else _CTRL)

    def _fail(self, origin: int, req_id: int, exc: BaseException) -> None:
        self.mux.reply(origin, _CHANNEL, req_id, exc, _CTRL, exc=True)

    def __repr__(self) -> str:
        return (
            f"UpcxxBackend(rank={self.rank}/{self.nranks}, rputs={self.rputs}, "
            f"rgets={self.rgets}, rpcs={self.rpcs})"
        )
