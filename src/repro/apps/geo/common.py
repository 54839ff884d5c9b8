"""GEO: a three-dimensional stencil for geophysical subsurface imaging
(paper §II-D and §III-B, Fig. 6).

A regular (nx, ny, nz_global) grid is distributed in the z-direction among
ranks. Each timestep applies a 7-point damped-averaging stencil and exchanges
one-plane halos with z-neighbors. Boundary conditions: Dirichlet zero on all
global faces.

This module holds everything the three variants share: configuration, the
vectorized stencil kernel, deterministic initialization, compute-cost
helpers, and the serial reference used for validation.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.util.errors import ConfigError
from repro.util.rng import RngFactory

#: Stencil coefficients: new = C0*self + C1*sum(6 neighbors). C0 + 6*C1 = 1
#: keeps the update a convex average (unconditionally stable).
C0 = 0.4
C1 = 0.1

#: Flops per updated cell (6 adds + 2 muls).
FLOPS_PER_CELL = 8.0

#: Bytes touched per updated cell (7 reads + 1 write, 8-byte doubles):
#: stencils are memory-bound, so this drives the host cost model.
BYTES_PER_CELL = 64.0


@dataclasses.dataclass(frozen=True)
class GeoConfig:
    """Weak-scaling problem: each rank owns an (nx, ny, nz) slab."""

    nx: int = 32
    ny: int = 32
    nz: int = 32  # planes per rank
    timesteps: int = 4
    seed: int = 12345

    def __post_init__(self):
        if min(self.nx, self.ny, self.nz) < 3:
            raise ConfigError("GEO grid must be at least 3 cells per dimension")
        if self.timesteps < 1:
            raise ConfigError("GEO needs at least one timestep")

    @property
    def plane_cells(self) -> int:
        return self.nx * self.ny

    def cells_per_rank(self) -> int:
        return self.plane_cells * self.nz


def initial_slab(cfg: GeoConfig, rank: int, nranks: int) -> np.ndarray:
    """This rank's initial field with halo planes: shape (nz+2, nx, ny).

    Plane index 0 and nz+1 are halos (zero-initialized; global boundaries
    stay zero for Dirichlet conditions). Deterministic per (seed, rank).
    """
    rng = RngFactory(cfg.seed).stream("geo", rank)
    slab = np.zeros((cfg.nz + 2, cfg.nx, cfg.ny), dtype=np.float64)
    slab[1 : cfg.nz + 1] = rng.random((cfg.nz, cfg.nx, cfg.ny))
    return slab


def stencil_planes(src: np.ndarray, dst: np.ndarray, z_lo: int, z_hi: int) -> None:
    """Apply the stencil to planes ``z_lo..z_hi-1`` (halo-indexed) of ``src``
    into ``dst``. Vectorized over the whole plane range (guide: prefer numpy
    broadcasting over Python loops). x/y faces are Dirichlet zero.

    The neighbor accumulator is the one block-sized temporary; every cell is
    ``C0*self + C1*(((((up + down) + x-) + x+) + y-) + y+)`` in exactly this
    order, so results are bit-identical however the planes are split."""
    center = src[z_lo:z_hi]
    acc = np.add(src[z_lo + 1 : z_hi + 1], src[z_lo - 1 : z_hi - 1])
    # x neighbors (zero beyond the faces)
    acc[:, 1:, :] += center[:, :-1, :]
    acc[:, :-1, :] += center[:, 1:, :]
    # y neighbors
    acc[:, :, 1:] += center[:, :, :-1]
    acc[:, :, :-1] += center[:, :, 1:]
    acc *= C1
    out = dst[z_lo:z_hi]
    np.multiply(center, C0, out=out)
    out += acc


def plane_compute_seconds(cfg: GeoConfig, planes: int, core_flops: float,
                          core_mem_bw: Optional[float] = None) -> float:
    """Virtual compute cost of updating ``planes`` z-planes on one core:
    roofline of the flop rate and the core's share of memory bandwidth
    (stencils are memory-bound on real nodes)."""
    cells = planes * cfg.plane_cells
    t = cells * FLOPS_PER_CELL / core_flops
    if core_mem_bw is not None and core_mem_bw > 0:
        t = max(t, cells * BYTES_PER_CELL / core_mem_bw)
    return t


def plane_cost_for(cfg: GeoConfig, machine_spec) -> float:
    """Per-plane host cost on one core of ``machine_spec``."""
    return plane_compute_seconds(
        cfg, 1, machine_spec.core_flops,
        machine_spec.mem_bw / machine_spec.cores,
    )


def gpu_kernel_costs(cfg: GeoConfig, planes: int) -> tuple:
    """(flops, bytes_moved) of a GPU stencil kernel over ``planes`` planes."""
    cells = planes * cfg.plane_cells
    return (cells * FLOPS_PER_CELL, cells * 8 * 8)  # 7 reads + 1 write


def reference_solution(cfg: GeoConfig, nranks: int) -> np.ndarray:
    """Serial evolution of the full global grid; returns the final field of
    shape (nranks*nz, nx, ny). The oracle every variant must match.

    Each step updates one rank slab at a time in place, so beside the grid
    it holds one slab of output and the stencil's one-slab accumulator; a
    slab's last new plane is written back once the next slab has read it."""
    nz, nz_g = cfg.nz, cfg.nz * nranks
    u = np.zeros((nz_g + 2, cfg.nx, cfg.ny))
    for r in range(nranks):
        u[1 + r * nz : 1 + (r + 1) * nz] = initial_slab(cfg, r, nranks)[1 : nz + 1]
    new = np.empty((nz + 2, cfg.nx, cfg.ny))
    last = np.empty((cfg.nx, cfg.ny))
    for _ in range(cfg.timesteps):
        for lo in range(1, nz_g + 1, nz):
            stencil_planes(u[lo - 1 : lo + nz + 1], new, 1, nz + 1)
            if lo > 1:
                u[lo - 1] = last
            u[lo : lo + nz - 1] = new[1:nz]
            last[...] = new[nz]
        u[nz_g] = last
    return u[1 : nz_g + 1]


def check_result(cfg: GeoConfig, slabs: list) -> None:
    """Validate per-rank final slabs (list of (nz, nx, ny) arrays) against the
    serial reference; raises AssertionError with the max error on mismatch.

    A cell passes when ``|got - want| <= 1e-12 + 1e-5*|want|`` (``np.allclose``
    with ``atol=1e-12``; NaN fails). Compared slab by slab: beside the one
    reference grid, the check holds slab-sized temporaries only."""
    shape = (cfg.nz, cfg.nx, cfg.ny)
    for r, got in enumerate(slabs):
        if np.shape(got) != shape:
            raise AssertionError(
                f"GEO rank {r} slab has shape {np.shape(got)}, expected {shape}")
    want = reference_solution(cfg, len(slabs))
    errs, ok = [], True
    for r, got in enumerate(slabs):
        w = want[r * cfg.nz : (r + 1) * cfg.nz]
        errs.append(np.max(np.abs(got - w)))
        ok = ok and np.allclose(got, w, atol=1e-12)
    if not ok:
        err = float(np.max(errs))  # NaN if any cell is NaN
        raise AssertionError(f"GEO result mismatch: max abs error {err:.3e}")
