"""Simulated CUDA device (DESIGN.md §2 substitution for the Titan K20X).

The device executes *real numpy payloads* at operation completion — results
are bit-correct — while operation *timing* follows a roofline model:

- kernels: ``launch_overhead + max(flops / device_flops, bytes / device_bw)``,
  serialized on the device's compute engine (one kernel at a time, as on a
  K20X without concurrent-kernel headroom);
- copies: ``pcie_latency + nbytes / pcie_bw``, serialized per direction on
  dedicated DMA engines (H2D and D2H overlap each other and kernels);
- streams: operations within one stream are FIFO; different streams overlap
  subject to the engine constraints above.

Completed operations flip a ``done`` flag and invoke the module's progress
hook — the same request-plus-polling completion flow the paper's MPI and
CUDA modules share (§II-C3).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.util.errors import GpuError

_PCIE_LATENCY = 6e-6  # per-transfer setup latency, seconds


class DeviceArray:
    """Device-resident buffer. Holds a real numpy array for correctness; the
    framework treats it as living at the GPU place (host code should not
    read ``data`` directly — use copies, as with real CUDA)."""

    __slots__ = ("handle", "data", "device")
    _handles = itertools.count(1)

    def __init__(self, data: np.ndarray, device: "SimGpu"):
        self.handle = next(self._handles)
        self.data = data
        self.device = device

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def __repr__(self) -> str:
        return (
            f"DeviceArray(#{self.handle}, {self.data.shape}, {self.data.dtype}, "
            f"dev={self.device.index})"
        )


class GpuOp:
    """Completion handle for one enqueued device operation. ``nbytes`` is
    what a copy moves, the same count that priced it (0 for a kernel)."""

    __slots__ = ("kind", "nbytes", "done", "completion_time", "value")

    def __init__(self, kind: str, nbytes: int = 0):
        self.kind = kind
        self.nbytes = nbytes
        self.done = False
        self.completion_time = 0.0
        self.value: Any = None

    def test(self) -> bool:
        return self.done

    def __repr__(self) -> str:
        return f"<GpuOp {self.kind} done={self.done}>"


class SimGpu:
    """One simulated accelerator."""

    def __init__(
        self,
        executor,
        index: int = 0,
        *,
        mem_bytes: int = 6 * 2**30,
        flops: float = 1.31e12,
        mem_bw: float = 208e9,
        pcie_bw: float = 6e9,
        launch_overhead: float = 8e-6,
        on_complete: Optional[Callable[[], None]] = None,
    ):
        self.executor = executor
        self.index = index
        self.mem_bytes = int(mem_bytes)
        self.flops = float(flops)
        self.mem_bw = float(mem_bw)
        self.pcie_bw = float(pcie_bw)
        self.launch_overhead = float(launch_overhead)
        #: Completion hook (the module points this at its polling kick).
        self.on_complete = on_complete
        self.mem_used = 0
        self._live: Dict[int, DeviceArray] = {}
        self._stream_avail: Dict[int, float] = {}
        self._compute_avail = 0.0
        self._dma_avail = {"h2d": 0.0, "d2h": 0.0, "d2d": 0.0}
        self.kernels_launched = 0
        self.copies = 0

    # ------------------------------------------------------------------
    # memory
    # ------------------------------------------------------------------
    def malloc(self, shape, dtype=np.float64) -> DeviceArray:
        arr = np.zeros(shape, dtype=dtype)
        if self.mem_used + arr.nbytes > self.mem_bytes:
            raise GpuError(
                f"cudaMalloc of {arr.nbytes} bytes exceeds device {self.index} "
                f"memory ({self.mem_used}/{self.mem_bytes} in use)"
            )
        darr = DeviceArray(arr, self)
        self.mem_used += arr.nbytes
        self._live[darr.handle] = darr
        return darr

    def free(self, darr: DeviceArray) -> None:
        if darr.handle not in self._live:
            raise GpuError(f"double free of {darr!r}")
        del self._live[darr.handle]
        self.mem_used -= darr.nbytes

    def _check_live(self, darr: DeviceArray, what: str) -> None:
        if darr.device is not self:
            raise GpuError(f"{what}: {darr!r} belongs to device {darr.device.index}")
        if darr.handle not in self._live:
            raise GpuError(f"{what}: {darr!r} was freed")

    # ------------------------------------------------------------------
    # scheduling primitives
    # ------------------------------------------------------------------
    def _schedule(self, stream: int, engine: str, duration: float,
                  op: GpuOp, apply_fn: Callable[[], Any]) -> GpuOp:
        now = self.executor.now()
        start = max(now, self._stream_avail.get(stream, 0.0))
        if engine == "compute":
            start = max(start, self._compute_avail)
            finish = start + duration
            self._compute_avail = finish
        else:
            start = max(start, self._dma_avail[engine])
            finish = start + duration
            self._dma_avail[engine] = finish
        self._stream_avail[stream] = finish

        def _complete() -> None:
            op.value = apply_fn()
            op.done = True
            op.completion_time = finish
            if self.on_complete is not None:
                self.on_complete()

        self.executor.call_later(max(0.0, finish - now), _complete)
        return op

    # ------------------------------------------------------------------
    # copies
    # ------------------------------------------------------------------
    def copy_h2d(self, dst: DeviceArray, src: np.ndarray, *, stream: int = 0,
                 nbytes: Optional[int] = None, dst_index=None) -> GpuOp:
        """Host-to-device. With ``dst_index``, the snapshot of ``src`` lands
        in ``dst.data[dst_index]`` (cudaMemcpy at an offset/region); otherwise
        it fills the flat prefix of the buffer."""
        self._check_live(dst, "copy_h2d")
        n = int(src.nbytes if nbytes is None else nbytes)
        if dst_index is None and n > dst.nbytes:
            raise GpuError(f"copy_h2d of {n} bytes into {dst.nbytes}-byte buffer")
        snapshot = np.ascontiguousarray(src).copy()
        self.copies += 1

        def _apply() -> None:
            if dst_index is not None:
                dst.data[dst_index] = snapshot.reshape(dst.data[dst_index].shape)
            else:
                flat = dst.data.reshape(-1).view(np.uint8)
                flat[:n] = snapshot.reshape(-1).view(np.uint8)[:n]

        return self._schedule(
            stream, "h2d", _PCIE_LATENCY + n / self.pcie_bw, GpuOp("h2d", n), _apply
        )

    def copy_d2h(self, dst: np.ndarray, src: DeviceArray, *, stream: int = 0,
                 nbytes: Optional[int] = None, src_index=None) -> GpuOp:
        """Device-to-host. With ``src_index``, copies ``src.data[src_index]``
        into ``dst`` (which may be any same-shaped numpy view); otherwise the
        flat prefix. The read of device memory happens at completion time
        (virtual), matching real asynchronous D2H semantics."""
        self._check_live(src, "copy_d2h")
        if src_index is None:
            n = int(src.nbytes if nbytes is None else nbytes)
            if n > dst.nbytes:
                raise GpuError(f"copy_d2h of {n} bytes into {dst.nbytes}-byte buffer")
            if not dst.flags["C_CONTIGUOUS"]:
                raise GpuError("copy_d2h destination must be C-contiguous")
        else:
            n = int(src.data[src_index].nbytes if nbytes is None else nbytes)
        self.copies += 1

        def _apply() -> None:
            if src_index is not None:
                dst[...] = src.data[src_index].reshape(dst.shape)
            else:
                flat = dst.reshape(-1).view(np.uint8)
                flat[:n] = src.data.reshape(-1).view(np.uint8)[:n]

        return self._schedule(
            stream, "d2h", _PCIE_LATENCY + n / self.pcie_bw, GpuOp("d2h", n), _apply
        )

    def copy_d2d(self, dst: DeviceArray, src: DeviceArray, *, stream: int = 0,
                 nbytes: Optional[int] = None) -> GpuOp:
        self._check_live(src, "copy_d2d")
        self._check_live(dst, "copy_d2d")
        n = int(src.nbytes if nbytes is None else nbytes)

        def _apply() -> None:
            flat = dst.data.reshape(-1).view(np.uint8)
            flat[:n] = src.data.reshape(-1).view(np.uint8)[:n]

        return self._schedule(
            stream, "d2d", n / self.mem_bw, GpuOp("d2d", n), _apply
        )

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def launch(
        self,
        body: Callable[[], Any],
        *,
        flops: float = 0.0,
        bytes_moved: float = 0.0,
        stream: int = 0,
    ) -> GpuOp:
        """Enqueue a kernel. ``body`` runs (on the host, against device
        arrays) at the kernel's virtual completion; its return value appears
        as the op's value. Roofline duration from ``flops``/``bytes_moved``."""
        if not (flops >= 0 and bytes_moved >= 0):  # NaN too
            raise GpuError("kernel flops/bytes must be non-negative, got "
                           f"{flops}/{bytes_moved}")
        duration = self.launch_overhead + max(
            flops / self.flops, bytes_moved / self.mem_bw
        )
        self.kernels_launched += 1
        return self._schedule(stream, "compute", duration, GpuOp("kernel"), body)

    # ------------------------------------------------------------------
    @classmethod
    def from_place(cls, executor, place, on_complete=None) -> "SimGpu":
        """Build a device from a GPU place's properties (hwloc discovery)."""
        p = place.properties
        return cls(
            executor,
            index=int(p.get("device", 0)),
            mem_bytes=int(p.get("capacity_bytes", 6 * 2**30)),
            flops=float(p.get("flops", 1.31e12)),
            mem_bw=float(p.get("bandwidth_bytes_per_s", 208e9)),
            pcie_bw=float(p.get("pcie_bytes_per_s", 6e9)),
            launch_overhead=float(p.get("kernel_launch_overhead", 8e-6)),
            on_complete=on_complete,
        )

    def __repr__(self) -> str:
        return (
            f"SimGpu(index={self.index}, mem={self.mem_used}/{self.mem_bytes}, "
            f"kernels={self.kernels_launched}, copies={self.copies})"
        )
