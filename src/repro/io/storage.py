"""Simulated storage devices: NVM and parallel-filesystem models.

The paper's platform model (§I-A) includes node-local flash/NVM and a shared
filesystem, and §V names a checkpointing module as the first expected
third-party extension. This substrate provides the devices those modules
schedule onto: byte-addressable stores with bandwidth/latency cost models,
whose writes complete as events (the same request-plus-polling completion
flow as the CUDA and MPI modules).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.util.errors import ConfigError, HiperError


class StorageError(HiperError):
    """Bad handle, out-of-space, or write-after-free on a simulated store."""


class StorageOp:
    """Completion handle for one storage operation (read or write)."""

    __slots__ = ("kind", "done", "completion_time", "value")

    def __init__(self, kind: str):
        self.kind = kind
        self.done = False
        self.completion_time = 0.0
        self.value: Any = None

    def test(self) -> bool:
        return self.done


class SimStore:
    """One storage device: an object store with a serialized write channel.

    ``write``/``read`` costs follow ``latency + nbytes / bandwidth``; the
    device services one transfer at a time (availability-time resource, like
    the GPU DMA engines). Contents are real bytes — checkpoints restore
    bit-exactly.
    """

    def __init__(
        self,
        executor,
        name: str = "nvm",
        *,
        capacity_bytes: int = 16 * 2**30,
        bandwidth: float = 2e9,
        latency: float = 2e-5,
        on_complete: Optional[Callable[[], None]] = None,
    ):
        if capacity_bytes <= 0 or bandwidth <= 0 or latency < 0:
            raise ConfigError("invalid storage device parameters")
        self.executor = executor
        self.name = name
        self.capacity_bytes = int(capacity_bytes)
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.on_complete = on_complete
        self.used_bytes = 0
        self._objects: Dict[str, bytes] = {}
        self._avail = 0.0
        self._op_seq = itertools.count()
        self.writes = 0
        self.reads = 0
        #: Optional fault-injection hook (``repro.resilience``): called as
        #: ``hook(op_kind, key, nbytes)`` before a write takes effect; a
        #: truthy return fails the write with StorageError. None in
        #: production.
        self.fault_hook: Optional[Callable[[str, str, int], bool]] = None
        self.write_faults = 0

    # ------------------------------------------------------------------
    def _schedule(self, nbytes: int, op: StorageOp,
                  apply_fn: Callable[[], Any]) -> StorageOp:
        now = self.executor.now()
        start = max(now, self._avail)
        finish = start + self.latency + nbytes / self.bandwidth
        self._avail = finish

        def _complete() -> None:
            op.value = apply_fn()
            op.done = True
            op.completion_time = finish
            if self.on_complete is not None:
                self.on_complete()

        self.executor.call_later(max(0.0, finish - now), _complete)
        return op

    def write(self, key: str, data: np.ndarray) -> StorageOp:
        """Durably store a snapshot of ``data`` under ``key`` (overwrites)."""
        if not isinstance(data, np.ndarray):
            raise StorageError(f"storage writes take numpy arrays, got {type(data)!r}")
        blob = data.tobytes()  # snapshot at issue time
        old = len(self._objects.get(key, b""))
        new_used = self.used_bytes - old + len(blob)
        if new_used > self.capacity_bytes:
            raise StorageError(
                f"device {self.name!r} full: {new_used} > {self.capacity_bytes}"
            )
        hook = self.fault_hook
        if hook is not None and hook("write", key, len(blob)):
            # Fail at issue, before any state mutates: the previous object
            # under ``key`` (if any) stays intact, like a failed O_TMPFILE
            # rename. Callers retry or fall back to the prior checkpoint.
            self.write_faults += 1
            raise StorageError(
                f"injected write failure on device {self.name!r} "
                f"key {key!r} ({len(blob)} bytes)"
            )
        self.writes += 1
        # Contents become visible at issue (page-cache semantics; the
        # snapshot is already taken); the op's completion marks durability.
        self._objects[key] = blob
        self.used_bytes = new_used
        return self._schedule(len(blob), StorageOp("write"),
                              lambda: len(blob))

    def read(self, key: str, dtype, shape) -> StorageOp:
        """Fetch the object back as an array of the given dtype/shape."""
        if key not in self._objects:
            raise StorageError(f"no object {key!r} on device {self.name!r}")
        blob = self._objects[key]
        self.reads += 1

        def _apply() -> np.ndarray:
            arr = np.frombuffer(blob, dtype=dtype).copy()
            return arr.reshape(shape)

        return self._schedule(len(blob), StorageOp("read"), _apply)

    def delete(self, key: str) -> None:
        blob = self._objects.pop(key, None)
        if blob is None:
            raise StorageError(f"no object {key!r} on device {self.name!r}")
        self.used_bytes -= len(blob)

    def exists(self, key: str) -> bool:
        return key in self._objects

    @classmethod
    def from_place(cls, executor, place, on_complete=None) -> "SimStore":
        p = place.properties
        kind_defaults = {
            "nvm": (6e9, 5e-6),
            "disk": (1.2e9, 1e-4),
        }
        bw, lat = kind_defaults.get(place.kind.value, (2e9, 2e-5))
        return cls(
            executor, name=place.name,
            capacity_bytes=int(p.get("capacity_bytes", 16 * 2**30)),
            bandwidth=float(p.get("bandwidth_bytes_per_s", bw)),
            latency=float(p.get("latency_s", lat)),
            on_complete=on_complete,
        )

    def __repr__(self) -> str:
        return (
            f"SimStore({self.name!r}, used={self.used_bytes}/"
            f"{self.capacity_bytes}, objects={len(self._objects)})"
        )
