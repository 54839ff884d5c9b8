"""The checkpoint module — the paper's first named future-work extension
(§V: "a HiPER module for checkpointing of application state would enable
overlapping of checkpoint I/O with useful application work").

Built with nothing but the public module framework, proving the paper's
extensibility claim: it registers a place requirement (NVM or disk), a
polling service for asynchronous completions, copy handlers so ``async_copy``
can target storage places, and user-facing APIs:

- ``checkpoint_async(key, arrays) -> Future`` — snapshot application arrays
  at call time and write them out while application tasks keep running;
- ``restore_async(key) -> Future`` of the arrays;
- ``checkpoint_every(interval, provider)`` — a self-re-arming periodic
  checkpoint driven by the runtime's timer facility.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.io.storage import SimStore
from repro.modules.base import HiperModule, NotInitialized
from repro.platform.place import PlaceType
from repro.runtime.future import Future, when_all
from repro.runtime.runtime import HiperRuntime
from repro.util.errors import ModuleError


class CheckpointModule(HiperModule):
    """Asynchronous checkpoint/restore onto NVM or disk places."""

    name = "checkpoint"
    capabilities = frozenset({"storage", "resilience"})

    def __init__(self, ctx=None):
        super().__init__()
        self.ctx = ctx
        self.store: SimStore = NotInitialized(self.name)
        self._manifest: Dict[str, List[Tuple[str, str, tuple]]] = {}
        self._periodic_stop: List[bool] = []

    # ------------------------------------------------------------------
    def initialize(self, runtime: HiperRuntime) -> None:
        for kind in (PlaceType.NVM, PlaceType.DISK):
            if runtime.model.has_type(kind):
                self.place = runtime.model.first_of_type(kind)
                break
        if self.place is None:
            raise ModuleError(
                "checkpoint module requires an NVM or disk place in the "
                f"platform model {runtime.model.name!r}"
            )
        self.runtime = runtime
        self.start_polling(runtime, self.place, prefix="ckpt", interval=1e-5)
        self.store = SimStore.from_place(runtime.executor, self.place,
                                         on_complete=self.polling.kick)
        # async_copy to/from the storage place goes through this module
        # (same special-purpose registration the CUDA module uses).
        runtime.register_copy_handler(
            PlaceType.SYSTEM_MEM, self.place.kind, self._handle_copy_in
        )
        self.export(runtime, "checkpoint_async", self.checkpoint_async)
        self.export(runtime, "restore_async", self.restore_async)

    def finalize(self, runtime: HiperRuntime) -> None:
        self._periodic_stop[:] = [True] * len(self._periodic_stop)
        super().finalize(runtime)

    # ------------------------------------------------------------------
    def checkpoint_async(self, key: str,
                         arrays: Dict[str, np.ndarray]) -> Future:
        """Write a named set of arrays; future satisfied when all are
        durable. Arrays are snapshotted at call time, so the application may
        keep mutating them — the paper's overlap-with-useful-work property."""
        store = self.store
        if not arrays:
            raise ModuleError("checkpoint_async needs at least one array")
        futs = []
        manifest = []
        for name, arr in arrays.items():
            okey = f"{key}/{name}"
            manifest.append((name, str(arr.dtype), arr.shape))
            futs.append(self.poll(store.write(okey, arr), "write"))
        self._manifest[key] = manifest
        return when_all(futs).then(lambda _: key, name=f"ckpt-{key}")

    def restore_async(self, key: str) -> Future:
        """Future of ``{name: array}`` for a previously written checkpoint."""
        store = self.store
        manifest = self._manifest.get(key)
        if manifest is None:
            raise ModuleError(f"no checkpoint {key!r} on this rank")
        futs = []
        names = []
        for name, dtype, shape in manifest:
            names.append(name)
            futs.append(self.poll(
                store.read(f"{key}/{name}", dtype, shape), "read"))
        return when_all(futs).then(lambda values: dict(zip(names, values)),
                                   name=f"restore-{key}")

    def checkpoints(self) -> List[str]:
        return sorted(self._manifest)

    def checkpoint_every(
        self,
        interval: float,
        provider: Callable[[int], Optional[Dict[str, np.ndarray]]],
        *,
        key_prefix: str = "auto",
    ) -> Callable[[], None]:
        """Periodic checkpointing: every ``interval`` virtual seconds, call
        ``provider(epoch)``; a dict return is written as
        ``{key_prefix}-{epoch}``, ``None`` skips the epoch. Returns a stop
        callable. I/O overlaps application work throughout."""
        rt = self.runtime
        slot = len(self._periodic_stop)
        self._periodic_stop.append(False)

        def _tick(epoch: int) -> None:
            if self._periodic_stop[slot] or rt.is_shutdown:
                return
            arrays = provider(epoch)
            if arrays:
                self.checkpoint_async(f"{key_prefix}-{epoch}", arrays)
            rt.executor.call_later(interval, lambda: _tick(epoch + 1))

        rt.executor.call_later(interval, lambda: _tick(0))
        rt.stats.count(self.name, "periodic_armed")

        def stop() -> None:
            self._periodic_stop[slot] = True

        return stop

    # ------------------------------------------------------------------
    def _handle_copy_in(self, rt, dst_buf, dst_place, src_buf, src_place,
                        nbytes: int) -> Future:
        """async_copy(host -> storage place): dst_buf is the object key."""
        if not isinstance(dst_buf, str):
            raise ModuleError(
                "async_copy to a storage place takes the object key string "
                "as the destination buffer"
            )
        flat = np.ascontiguousarray(src_buf).reshape(-1)
        view = flat.view(np.uint8)[:nbytes]
        return self.poll(self.store.write(dst_buf, view), "copy_in")


def checkpoint_factory() -> Callable[[Any], CheckpointModule]:
    """Module factory for :func:`repro.distrib.spmd_run` (a partial,
    so it pickles for the ``subprocess`` launcher)."""
    return functools.partial(CheckpointModule)
