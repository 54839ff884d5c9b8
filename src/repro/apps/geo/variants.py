"""The three GEO implementations the paper compares (Fig. 6 and §II-D):

- :func:`run_mpi_omp` — MPI + OpenMP-style host parallelism (paper's first
  listing): parallel-for over planes, Isend/Irecv, Waitall.
- :func:`run_mpi_cuda` — hand-coded MPI + CUDA (second listing): kernels on
  the device with *blocking* cudaMemcpy calls in the critical path.
- :func:`run_hiper` — the HiPER composition (fourth listing): host computes
  the ghost planes (``forasync_future``), sends chain on the ghost future
  (``MPI_Isend_await``), the interior kernel awaits its transfers
  (``forasync_cuda``-style), and every copy is asynchronous
  (``async_copy_await``). The ~2% win comes from removing blocking device
  operations from the critical path.

All three produce bit-identical fields (validated against the serial
reference in tests), so timing differences isolate scheduling structure.

Each variant is a coroutine rank-main: call as
``spmd_run(geo_main(variant, cfg), config, module_factories=[...])``.
"""

from __future__ import annotations

from typing import Callable, List

import numpy as np

from repro.apps import variant_main
from repro.apps.geo.common import (
    GeoConfig,
    gpu_kernel_costs,
    initial_slab,
    plane_cost_for,
    stencil_planes,
)
from repro.runtime.api import async_future_await, forasync_future
from repro.runtime.future import Future, when_all
from repro.util.errors import ConfigError


def _plane_cost(ctx, cfg: GeoConfig) -> float:
    return plane_cost_for(cfg, ctx.config.machine)


_INIT_TAG = 1 << 20  # distinct from per-timestep tags


def _initial_halo_exchange(ctx, u: np.ndarray, nz: int):
    """Exchange the t=0 boundary planes so the first step sees neighbor data
    (coroutine helper: ``yield from`` it before the time loop)."""
    me, n = ctx.rank, ctx.nranks
    mpi = ctx.mpi
    down = me - 1 if me > 0 else None
    up = me + 1 if me < n - 1 else None
    sends = []
    if down is not None:
        sends.append(mpi.isend(u[1].copy(), down, tag=_INIT_TAG))
    if up is not None:
        sends.append(mpi.isend(u[nz].copy(), up, tag=_INIT_TAG))
    if down is not None:
        data, _, _ = yield mpi.irecv(src=down, tag=_INIT_TAG)
        u[0] = data
    if up is not None:
        data, _, _ = yield mpi.irecv(src=up, tag=_INIT_TAG)
        u[nz + 1] = data
    for f in sends:
        yield f


# ----------------------------------------------------------------------
# Variant 1: MPI + OpenMP-style host parallelism
# ----------------------------------------------------------------------
def run_mpi_omp(ctx, cfg: GeoConfig):
    me, n = ctx.rank, ctx.nranks
    mpi = ctx.mpi
    nz = cfg.nz
    plane_cost = _plane_cost(ctx, cfg)
    u = initial_slab(cfg, me, n)
    unew = np.zeros_like(u)
    down = me - 1 if me > 0 else None
    up = me + 1 if me < n - 1 else None
    yield from _initial_halo_exchange(ctx, u, nz)

    for t in range(cfg.timesteps):
        # Process ghost planes on this rank in parallel (omp parallel for).
        ghost = forasync_future(
            2, lambda i: stencil_planes(u, unew, 1 if i == 0 else nz,
                                        2 if i == 0 else nz + 1),
            cost_per_item=plane_cost,
            name=f"geo-ghost-t{t}",
        )
        yield ghost
        # Transmit ghost planes to neighbors and post receives.
        reqs: List[Future] = []
        if down is not None:
            reqs.append(mpi.isend(unew[1].copy(), down, tag=t))
        if up is not None:
            reqs.append(mpi.isend(unew[nz].copy(), up, tag=t))
        r_down = mpi.irecv(src=down, tag=t) if down is not None else None
        r_up = mpi.irecv(src=up, tag=t) if up is not None else None
        # Process the remainder of the z values in parallel.
        interior = forasync_future(
            range(2, nz),
            lambda z: stencil_planes(u, unew, z, z + 1),
            cost_per_item=plane_cost,
            name=f"geo-interior-t{t}",
        )
        yield interior
        # Wait for all sends/recvs to complete (MPI_Waitall).
        if r_down is not None:
            data, _, _ = yield r_down
            unew[0] = data
        else:
            unew[0] = 0.0
        if r_up is not None:
            data, _, _ = yield r_up
            unew[nz + 1] = data
        else:
            unew[nz + 1] = 0.0
        for f in reqs:
            yield f
        u, unew = unew, u
    return u[1 : nz + 1].copy()


# ----------------------------------------------------------------------
# Variant 2: hand-coded MPI + CUDA (blocking transfers)
# ----------------------------------------------------------------------
def run_mpi_cuda(ctx, cfg: GeoConfig):
    me, n = ctx.rank, ctx.nranks
    mpi, cu = ctx.mpi, ctx.cuda
    nz = cfg.nz
    down = me - 1 if me > 0 else None
    up = me + 1 if me < n - 1 else None

    host = initial_slab(cfg, me, n)
    yield from _initial_halo_exchange(ctx, host, nz)
    d_u = cu.malloc(host.shape)
    d_unew = cu.malloc(host.shape)
    yield cu.memcpy_async(d_u, host)
    del host  # the device owns the field from here on

    ghost_lo = np.zeros((cfg.nx, cfg.ny))
    ghost_hi = np.zeros((cfg.nx, cfg.ny))

    for t in range(cfg.timesteps):
        a, b = d_u, d_unew
        kf, kb = gpu_kernel_costs(cfg, 2)
        # Ghost-plane kernel, then BLOCKING device-to-host copies (the
        # paper's point: cudaMemcpy wastes host cycles here).
        yield cu.kernel_async(
            lambda: (stencil_planes(a.data, b.data, 1, 2),
                     stencil_planes(a.data, b.data, nz, nz + 1)),
            flops=kf, bytes_moved=kb,
        )
        yield cu.memcpy_async(ghost_lo, b, index=1)
        yield cu.memcpy_async(ghost_hi, b, index=nz)
        reqs: List[Future] = []
        if down is not None:
            reqs.append(mpi.isend(ghost_lo.copy(), down, tag=t))
        if up is not None:
            reqs.append(mpi.isend(ghost_hi.copy(), up, tag=t))
        r_down = mpi.irecv(src=down, tag=t) if down is not None else None
        r_up = mpi.irecv(src=up, tag=t) if up is not None else None
        # Interior kernel.
        kf, kb = gpu_kernel_costs(cfg, nz - 2)
        yield cu.kernel_async(
            lambda: stencil_planes(a.data, b.data, 2, nz),
            flops=kf, bytes_moved=kb,
        )
        # Waitall, then BLOCKING host-to-device halo copies.
        if r_down is not None:
            data, _, _ = yield r_down
            yield cu.memcpy_async(b, data, index=0)
        else:
            yield cu.kernel_async(lambda: b.data.__setitem__(0, 0.0), flops=1)
        if r_up is not None:
            data, _, _ = yield r_up
            yield cu.memcpy_async(b, data, index=nz + 1)
        else:
            yield cu.kernel_async(
                lambda: b.data.__setitem__(nz + 1, 0.0), flops=1)
        for f in reqs:
            yield f
        d_u, d_unew = d_unew, d_u

    out = np.zeros((nz, cfg.nx, cfg.ny))
    yield cu.memcpy_async(out, d_u, index=slice(1, nz + 1))
    cu.free(d_u)
    cu.free(d_unew)
    return out


# ----------------------------------------------------------------------
# Variant 3: HiPER — future-based composition of host, CUDA, and MPI
# ----------------------------------------------------------------------
def run_hiper(ctx, cfg: GeoConfig):
    """The host owns slab planes {1, nz} (the "ghost region"), the device
    the interior {2..nz-1}. After the upload the host keeps only the six
    slab planes its stencil touches, ``[0, 1, 2, nz-1, nz, nz+1]``: ghosts at
    host planes 1 and 4, halos 0 and 5, device overlaps 2 and 3."""
    if cfg.nz < 4:
        raise ConfigError("HiPER GEO partitioning needs nz >= 4")
    me, n = ctx.rank, ctx.nranks
    mpi, cu = ctx.mpi, ctx.cuda
    nz = cfg.nz
    plane_cost = _plane_cost(ctx, cfg)
    down = me - 1 if me > 0 else None
    up = me + 1 if me < n - 1 else None

    slab = initial_slab(cfg, me, n)
    yield from _initial_halo_exchange(ctx, slab, nz)
    d_u = cu.malloc(slab.shape)
    d_unew = cu.malloc(slab.shape)
    yield cu.memcpy_async(d_u, slab)
    hu = slab[[0, 1, 2, nz - 1, nz, nz + 1]]
    hunew = np.zeros_like(hu)
    del slab

    for t in range(cfg.timesteps):
        a, b, ha, hb = d_u, d_unew, hu, hunew
        # Asynchronous overlap copies (old values), all off the critical path:
        d2h_lo = cu.memcpy_async(ha[2], a, index=2, stream=1)
        d2h_hi = cu.memcpy_async(ha[3], a, index=nz - 1, stream=1)
        h2d_lo = cu.memcpy_async(a, ha[1], index=1, stream=2)
        h2d_hi = cu.memcpy_async(a, ha[4], index=nz, stream=2)

        # Asynchronously process ghost planes on the host once their device
        # overlap plane arrives (forasync_future in the paper's listing).
        f_lo = async_future_await(
            lambda: stencil_planes(ha, hb, 1, 2), d2h_lo,
            cost=plane_cost, name=f"geo-hghost-lo-t{t}",
        )
        f_hi = async_future_await(
            lambda: stencil_planes(ha, hb, 4, 5), d2h_hi,
            cost=plane_cost, name=f"geo-hghost-hi-t{t}",
        )

        # Asynchronously exchange ghost planes (MPI_Isend_await on the ghost
        # futures; receives post immediately).
        pending: List[Future] = [f_lo, f_hi]
        if down is not None:
            pending.append(mpi.isend_await(lambda: hb[1].copy(), down, f_lo,
                                           tag=t))
            r = mpi.irecv(src=down, tag=t)
            pending.append(async_future_await(
                lambda fr=r: hb.__setitem__(0, fr.value()[0]), r,
                name=f"geo-halo-lo-t{t}",
            ))
        else:
            hb[0] = 0.0
        if up is not None:
            pending.append(mpi.isend_await(lambda: hb[4].copy(), up, f_hi,
                                           tag=t))
            r = mpi.irecv(src=up, tag=t)
            pending.append(async_future_await(
                lambda fr=r: hb.__setitem__(5, fr.value()[0]), r,
                name=f"geo-halo-hi-t{t}",
            ))
        else:
            hb[5] = 0.0

        # Asynchronously process the interior on the device once its host
        # overlap planes arrive (forasync_cuda awaiting futures).
        kf, kb = gpu_kernel_costs(cfg, nz - 2)
        pending.append(cu.kernel_async(
            lambda: stencil_planes(a.data, b.data, 2, nz),
            flops=kf, bytes_moved=kb,
            await_futures=[h2d_lo, h2d_hi],
        ))

        # The outer finish scope of the paper's listing:
        yield when_all(pending)
        d_u, d_unew, hu, hunew = d_unew, d_u, hunew, hu

    out = np.zeros((nz, cfg.nx, cfg.ny))
    out[0] = hu[1]
    out[nz - 1] = hu[4]
    yield cu.memcpy_async(out[1 : nz - 1], d_u, index=slice(2, nz))
    cu.free(d_u)
    cu.free(d_unew)
    return out


VARIANTS = {
    "mpi_omp": run_mpi_omp,
    "mpi_cuda": run_mpi_cuda,
    "hiper": run_hiper,
}


def geo_main(variant: str, cfg: GeoConfig) -> Callable:
    """Build a rank-main for :func:`repro.distrib.spmd_run`."""
    return variant_main("GEO", VARIANTS, variant, cfg)
