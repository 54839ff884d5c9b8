"""The HiPER CUDA module (paper §II-C3).

Supports blocking and asynchronous data transfers and asynchronous kernels
over the simulated device. This is the one shipped module that registers
*special-purpose functions* with the runtime: it claims copies to/from GPU
places, so any ``async_copy`` touching a GPU place is handed off to it
automatically. Asynchronous completions use the same polling-task technique
as the MPI module (paper: "The CUDA Module uses the same polling technique
as the MPI Module").

Works single-rank (no fabric needed): pass the runtime's GPU place
properties; in SPMD runs use :func:`cuda_factory`.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, List, Optional, Sequence, Union

import numpy as np

from repro.cuda.device import DeviceArray, GpuOp, SimGpu
from repro.modules.base import HiperModule, NotInitialized
from repro.platform.place import Place, PlaceType
from repro.runtime.future import Future, after, when_all
from repro.runtime.runtime import HiperRuntime
from repro.util.errors import GpuError


class CudaModule(HiperModule):
    """Pluggable CUDA module over simulated devices."""

    name = "cuda"
    capabilities = frozenset({"accelerator", "device-memory"})
    error = GpuError

    def __init__(self, ctx=None):
        super().__init__()
        self.ctx = ctx  # optional RankContext; unused single-rank
        self.devices: List[SimGpu] = NotInitialized(self.name)
        self._gpu_places: List[Place] = NotInitialized(self.name)

    # ------------------------------------------------------------------
    def initialize(self, runtime: HiperRuntime) -> None:
        self.require_place_type(runtime, PlaceType.GPU_MEM)
        self.runtime = runtime
        self._gpu_places = runtime.model.places_of_type(PlaceType.GPU_MEM)
        # Poll at the first GPU place: its tasks are reachable by all workers
        # whose paths include GPU places (the shipped default policy).
        self.start_polling(runtime, self._gpu_places[0])
        self.devices = [
            SimGpu.from_place(runtime.executor, place,
                              on_complete=self.polling.kick)
            for place in self._gpu_places
        ]
        # Special-purpose registration (paper §II-C item 3): GPU copies.
        runtime.register_copy_handler(
            PlaceType.SYSTEM_MEM, PlaceType.GPU_MEM, self._handle_copy_h2d
        )
        runtime.register_copy_handler(
            PlaceType.GPU_MEM, PlaceType.SYSTEM_MEM, self._handle_copy_d2h
        )
        runtime.register_copy_handler(
            PlaceType.GPU_MEM, PlaceType.GPU_MEM, self._handle_copy_d2d
        )
        for api_name, fn in [
            ("cudaMalloc", self.malloc), ("cudaFree", self.free),
            ("cudaMemcpyAsync", self.memcpy_async),
            ("cudaMemcpy", self.memcpy),
            ("forasync_cuda", self.forasync_cuda),
        ]:
            self.export(runtime, api_name, fn)

    # ------------------------------------------------------------------
    def device(self, index: int = 0) -> SimGpu:
        try:
            return self.devices[index]
        except IndexError:
            raise GpuError(
                f"no device {index}; platform has {len(self.devices)} GPU(s)"
            ) from None

    def gpu_place(self, index: int = 0) -> Place:
        return self._gpu_places[index]

    # ------------------------------------------------------------------
    # memory
    # ------------------------------------------------------------------
    def malloc(self, shape, dtype=np.float64, device: int = 0) -> DeviceArray:
        return self.device(device).malloc(shape, dtype)

    def free(self, darr: DeviceArray) -> None:
        darr.device.free(darr)

    # ------------------------------------------------------------------
    # transfers
    # ------------------------------------------------------------------
    def _transfer(self, what: str, copy: Callable[..., GpuOp], dst, src,
                  nbytes: Optional[int], **kw: Any) -> Future:
        """Start ``copy(dst, src, ...)`` and return its future (the polling
        flow), counting its per-direction byte volume: ``what`` ends in
        h2d/d2h/d2d. Without ``nbytes`` the source array sizes it, else the
        destination (one side is always a DeviceArray)."""
        fut = self.poll(copy(dst, src, nbytes=nbytes, **kw), what)
        if nbytes is None:
            nbytes = (src if isinstance(src, (DeviceArray, np.ndarray))
                      else dst).nbytes
        n = int(nbytes)
        if n:
            stats = self.runtime.stats
            stats.count(self.name, f"bytes_{what.rsplit('_', 1)[-1]}", n)
            stats.observe(self.name, "xfer_size", n)
        return fut

    def memcpy_async(self, dst, src, *, stream: int = 0,
                     nbytes: Optional[int] = None, index=None) -> Future:
        """Direction inferred from argument types (host array vs DeviceArray).

        ``index`` addresses a region of the *device* side (e.g. one halo
        plane): for H2D it is the destination index, for D2H the source index.
        """
        d_dev = isinstance(dst, DeviceArray)
        if d_dev and isinstance(src, DeviceArray):
            return self._transfer("memcpy_d2d", dst.device.copy_d2d, dst, src,
                                  nbytes, stream=stream)
        if d_dev:
            return self._transfer("memcpy_h2d", dst.device.copy_h2d, dst, src,
                                  nbytes, stream=stream, dst_index=index)
        if isinstance(src, DeviceArray):
            return self._transfer("memcpy_d2h", src.device.copy_d2h, dst, src,
                                  nbytes, stream=stream, src_index=index)
        raise GpuError("memcpy_async needs at least one DeviceArray argument")

    def memcpy(self, dst, src, *, stream: int = 0,
               nbytes: Optional[int] = None, index=None) -> None:
        """Blocking transfer (the paper's GEO baseline uses these; the HiPER
        variant replaces them with futures — that is the measured win)."""
        self.memcpy_async(dst, src, stream=stream, nbytes=nbytes,
                          index=index).wait()

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def kernel_async(
        self,
        body: Callable[[], Any],
        *,
        flops: float = 0.0,
        bytes_moved: float = 0.0,
        stream: int = 0,
        device: int = 0,
        await_futures: Sequence[Future] = (),
    ) -> Future:
        """Launch ``body`` as an asynchronous kernel; returns its completion
        future (value = body's return). With ``await_futures``, the launch
        itself is deferred until they are satisfied (composability: a kernel
        can depend on MPI receives, paper §II-D)."""
        dev = self.device(device)
        if not await_futures:
            return self.poll(dev.launch(body, flops=flops,
                                        bytes_moved=bytes_moved,
                                        stream=stream), "kernel")
        fut = after(when_all(list(await_futures)),
                    lambda: self.poll(dev.launch(body, flops=flops,
                                                 bytes_moved=bytes_moved,
                                                 stream=stream), "kernel"),
                    "cuda-kernel-await")
        self.runtime.stats.count(self.name, "kernel_await")
        return fut

    def forasync_cuda(
        self,
        domain: Union[int, range],
        body: Callable[[np.ndarray], Any],
        *,
        flops_per_item: float = 2.0,
        bytes_per_item: float = 16.0,
        stream: int = 0,
        device: int = 0,
        await_futures: Sequence[Future] = (),
    ) -> Future:
        """The paper's ``forasync_cuda`` (§II-D): a data-parallel kernel over
        an index domain. ``body`` receives the full index vector (vectorized,
        per the repo's numpy-first kernel style) and runs against device
        arrays at kernel completion."""
        dom = range(domain) if isinstance(domain, int) else domain
        idx = np.arange(dom.start, dom.stop, dom.step)

        return self.kernel_async(
            lambda: body(idx),
            flops=flops_per_item * len(idx),
            bytes_moved=bytes_per_item * len(idx),
            stream=stream,
            device=device,
            await_futures=await_futures,
        )

    # ------------------------------------------------------------------
    # async_copy handlers (special-purpose registration)
    # ------------------------------------------------------------------
    def _device_for_place(self, place: Place) -> SimGpu:
        for p, dev in zip(self._gpu_places, self.devices):
            if p is place:
                return dev
        raise GpuError(f"place {place.name!r} is not a GPU place of this module")

    def _handle_copy_h2d(self, rt, dst_buf, dst_place, src_buf, src_place,
                         nbytes: int) -> Future:
        if not isinstance(dst_buf, DeviceArray):
            raise GpuError("async_copy to a GPU place needs a DeviceArray destination")
        dev = self._device_for_place(dst_place)
        return self._transfer("async_copy_h2d", dev.copy_h2d, dst_buf, src_buf,
                              nbytes)

    def _handle_copy_d2h(self, rt, dst_buf, dst_place, src_buf, src_place,
                         nbytes: int) -> Future:
        if not isinstance(src_buf, DeviceArray):
            raise GpuError("async_copy from a GPU place needs a DeviceArray source")
        dev = self._device_for_place(src_place)
        return self._transfer("async_copy_d2h", dev.copy_d2h, dst_buf, src_buf,
                              nbytes)

    def _handle_copy_d2d(self, rt, dst_buf, dst_place, src_buf, src_place,
                         nbytes: int) -> Future:
        dev = self._device_for_place(dst_place)
        return self._transfer("async_copy_d2d", dev.copy_d2d, dst_buf, src_buf,
                              nbytes)


def cuda_factory() -> Callable[[Any], CudaModule]:
    """Module factory for :func:`repro.distrib.spmd_run` (a partial,
    so it pickles for the ``subprocess`` launcher)."""
    return functools.partial(CudaModule)
