"""HPGMG-FV numerical kernels: 7-point Laplacian, weighted-Jacobi smoother,
residual, and the finite-volume restriction/prolongation pair.

Array convention: every field is shaped ``(nz+2, nx+2, ny+2)`` — interior
cells plus a one-cell ghost shell on all six faces. x/y ghosts are always
zero (homogeneous Dirichlet); z ghosts hold either neighbor-rank planes or
zero at the global boundary. All kernels are fully vectorized (guide:
broadcasting over Python loops) and operate in place where possible.

Kernel contract for :func:`neighbor_sum`, :func:`apply_op`,
:func:`residual` and :func:`gsrb`: each cell is computed in one fixed
floating-point order — the six neighbors summed z-, z+, x-, x+, y-, y+ from
the left, then ``(6u - sum) / h^2`` or ``(h*h*f + sum) / 6`` — so a result
does not depend on how the planes are split across boxes or ranks, and is
bit-identical to the plain expression written out. Each call allocates at
most two block-sized temporaries: the neighbor sum accumulates in one buffer,
and the other operand and the scaling are applied in place.
"""

from __future__ import annotations

import functools
from typing import Optional, Tuple

import numpy as np

#: Weighted-Jacobi damping for the 7-point 3-D Laplacian.
JACOBI_OMEGA = 6.0 / 7.0

#: Flops per cell for one smoother application (used for cost charging).
SMOOTH_FLOPS_PER_CELL = 12.0


def interior(a: np.ndarray) -> np.ndarray:
    return a[1:-1, 1:-1, 1:-1]


def alloc_field(shape_interior: Tuple[int, int, int]) -> np.ndarray:
    nz, nx, ny = shape_interior
    return np.zeros((nz + 2, nx + 2, ny + 2), dtype=np.float64)


def _planes(u: np.ndarray, zs: slice) -> Tuple[int, int]:
    """``(lo, hi)`` of an interior z slice; its stop may count from the end."""
    return zs.start, zs.stop if zs.stop >= 0 else u.shape[0] + zs.stop


def neighbor_sum(u: np.ndarray, lo: int = 1,
                 hi: Optional[int] = None) -> np.ndarray:
    """Sum of the six face neighbors for every interior cell of planes
    ``lo..hi-1`` (default: all), in one newly allocated buffer."""
    if hi is None:
        hi = u.shape[0] - 1
    acc = np.add(u[lo - 1 : hi - 1, 1:-1, 1:-1],
                 u[lo + 1 : hi + 1, 1:-1, 1:-1])
    acc += u[lo:hi, :-2, 1:-1]
    acc += u[lo:hi, 2:, 1:-1]
    acc += u[lo:hi, 1:-1, :-2]
    acc += u[lo:hi, 1:-1, 2:]
    return acc


def apply_op(u: np.ndarray, h: float,
             out: Optional[np.ndarray] = None) -> np.ndarray:
    """A u for the 7-point Laplacian: (6u - sum(neighbors)) / h^2, written to
    ``out`` (an interior-shaped array) when given."""
    out = np.multiply(interior(u), 6.0, out=out)
    out -= neighbor_sum(u)
    out /= h * h
    return out


def residual(u: np.ndarray, f: np.ndarray, h: float) -> np.ndarray:
    """r = f - A u on the interior."""
    r = apply_op(u, h)
    return np.subtract(interior(f), r, out=r)


def jacobi(u: np.ndarray, f: np.ndarray, h: float,
           z_slice: slice = slice(1, -1)) -> np.ndarray:
    """One damped-Jacobi sweep over the given interior z range; returns the
    updated planes (callers assign them back — out-of-place keeps same-level
    box tasks independent)."""
    lo, hi = _planes(u, z_slice)
    nbr = neighbor_sum(u, lo, hi)
    au = (6.0 * u[lo:hi, 1:-1, 1:-1] - nbr) / (h * h)
    return u[lo:hi, 1:-1, 1:-1] + JACOBI_OMEGA * (h * h / 6.0) * (
        f[lo:hi, 1:-1, 1:-1] - au
    )


@functools.lru_cache(maxsize=64)
def _parity_mask(nz: int, nx: int, ny: int, parity: int) -> np.ndarray:
    """Read-only mask of the cells whose ``(k + i + j) & 1 == parity``; the
    red/black pattern of one box, shared by every call with its shape."""
    k = np.arange(nz)[:, None, None]
    i = np.arange(nx)[None, :, None]
    j = np.arange(ny)[None, None, :]
    mask = ((k + i + j) & 1) == parity
    mask.flags.writeable = False
    return mask


def gsrb(u: np.ndarray, f: np.ndarray, h: float, color: int,
         z_slice: slice = slice(1, -1), global_z0: int = 0) -> None:
    """One red-black Gauss–Seidel half-sweep, in place, over the interior z
    range. ``color`` is 0 (red) or 1 (black) in GLOBAL parity — distributed
    slabs pass their global z offset so colors line up across ranks. HPGMG's
    smoother of choice; each full smooth is two half-sweeps with a ghost
    exchange between them."""
    lo, hi = _planes(u, z_slice)
    _, nxg, nyg = u.shape
    mask = _parity_mask(hi - lo, nxg - 2, nyg - 2,
                        (global_z0 + lo - 1 + color) & 1)
    gs = neighbor_sum(u, lo, hi)
    gs += np.multiply(f[lo:hi, 1:-1, 1:-1], h * h)
    gs /= 6.0
    np.copyto(u[lo:hi, 1:-1, 1:-1], gs, where=mask)


def _restrict_axis(f: np.ndarray, axis: int) -> np.ndarray:
    """Adjoint of :func:`_interp_axis`, scaled by 1/2 (so the pair is a
    variational transfer couple and V-cycle factors stay mesh-independent)."""
    f = np.moveaxis(f, axis, 0)
    n2 = f.shape[0]
    padded = np.concatenate(
        [np.zeros_like(f[:1]), f, np.zeros_like(f[:1])], axis=0
    )
    even = f[0::2]
    odd = f[1::2]
    left = padded[0:n2:2]      # f[2i-1]
    right = padded[3 : n2 + 2 : 2]  # f[2i+2]
    out = 0.5 * (0.75 * (even + odd) + 0.25 * (left + right))
    return np.moveaxis(out, 0, axis)


def restrict_fv(r: np.ndarray) -> np.ndarray:
    """Restriction: the (scaled) transpose of the trilinear prolongation,
    applied separably. ``r`` interior-only with even dims; returns the
    interior-only coarse array."""
    out = _restrict_axis(r, 0)
    out = _restrict_axis(out, 1)
    return _restrict_axis(out, 2)


def restrict_inject_mean(r: np.ndarray) -> np.ndarray:
    """Plain 8-child averaging (kept for the transfer-pair ablation bench)."""
    nz, nx, ny = r.shape
    return r.reshape(nz // 2, 2, nx // 2, 2, ny // 2, 2).mean(axis=(1, 3, 5))


def _interp_axis(a: np.ndarray, axis: int) -> np.ndarray:
    """Cell-centered linear interpolation along one axis (2x refinement).

    Child cells sit at ±h_c/4 from the parent center, so each child is
    0.75*parent + 0.25*neighbor-on-its-side; zero ghosts beyond the faces
    (homogeneous Dirichlet corrections vanish at the boundary).
    """
    a = np.moveaxis(a, axis, 0)
    n = a.shape[0]
    padded = np.concatenate(
        [np.zeros_like(a[:1]), a, np.zeros_like(a[:1])], axis=0
    )
    out = np.empty((2 * n,) + a.shape[1:], dtype=a.dtype)
    out[0::2] = 0.75 * a + 0.25 * padded[:n]       # lower child: neighbor i-1
    out[1::2] = 0.75 * a + 0.25 * padded[2 : n + 2]  # upper child: neighbor i+1
    return np.moveaxis(out, 0, axis)


def prolong_fv(uc: np.ndarray) -> np.ndarray:
    """Cell-centered trilinear prolongation (separable 1-D interpolations),
    the pairing HPGMG-FV uses with averaging restriction. ``uc``
    interior-only; returns the interior-only fine correction."""
    out = _interp_axis(uc, 0)
    out = _interp_axis(out, 1)
    return _interp_axis(out, 2)


def norm2(r: np.ndarray) -> float:
    """Squared L2 norm contribution (summed across ranks by the solvers)."""
    return float(np.sum(r * r))


def manufactured_slab(nz: int, nx: int, ny: int, h: float,
                      z0: int, z1: int) -> np.ndarray:
    """Planes ``[z0, z1)`` of the global manufactured solution u_exact on an
    (nz, nx, ny) grid, as a ghosted field: its z ghosts hold u_exact's planes
    ``z0 - 1`` and ``z1`` where those lie inside the grid and zero outside, so
    ``apply_op`` of it is the manufactured f on exactly those planes."""
    u = alloc_field((z1 - z0, nx, ny))
    lo, hi = max(z0 - 1, 0), min(z1 + 1, nz)
    sz = np.sin(np.pi * ((np.arange(lo, hi) + 0.5) * h))
    sx = np.sin(np.pi * ((np.arange(nx) + 0.5) * h))
    sy = np.sin(np.pi * ((np.arange(ny) + 0.5) * h))
    np.multiply(sz[:, None, None] * sx[None, :, None], sy[None, None, :],
                out=u[lo - z0 + 1 : hi - z0 + 1, 1:-1, 1:-1])
    return u


def manufactured_problem(nz: int, nx: int, ny: int,
                         h: float) -> Tuple[np.ndarray, np.ndarray]:
    """A discrete manufactured problem on the *global* grid: pick a smooth
    u_exact, compute f = A u_exact exactly in the discrete operator, so the
    discrete solution is u_exact to machine precision. Returns interior-only
    (u_exact, f)."""
    u = manufactured_slab(nz, nx, ny, h, 0, nz)
    return interior(u), apply_op(u, h)
