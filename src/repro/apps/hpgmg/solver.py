"""Distributed HPGMG-FV (paper §III-B, Fig. 4): V-cycles on a z-decomposed
grid with agglomeration of coarse levels onto rank 0, weak-scaled by keeping
the per-rank box volume constant.

Two variants, as in the paper's comparison:

- ``reference`` — MPI+OpenMP hybrid style: per half-sweep, a level-synchronous
  Isend/Irecv/Waitall halo exchange, then a ``forasync`` over the rank's
  boxes.
- ``hiper`` — the UPC++ + MPI composition: halos move by one-sided ``rput``
  and arrival is signalled by an ``rpc`` that satisfies a pre-registered
  promise on the receiver (futures all the way down); reductions and
  agglomeration gathers use the MPI module. The paper reports performance
  parity between the two — the exchange volume is identical and only the
  plumbing differs.

Both run the same numerics (GSRB V-cycles with variational transfers) and
produce identical iterates, checked against :class:`SerialMg` in tests.
"""

from __future__ import annotations

import dataclasses
import weakref
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.apps import variant_main
from repro.apps.hpgmg.ops import (
    SMOOTH_FLOPS_PER_CELL,
    alloc_field,
    apply_op,
    gsrb,
    interior,
    manufactured_slab,
    norm2,
    prolong_fv,
    residual,
    restrict_fv,
)
from repro.apps.hpgmg.serial import SerialMg
from repro.runtime.api import charge, current_runtime, forasync_future
from repro.runtime.future import Future, Promise
from repro.util.errors import ConfigError


@dataclasses.dataclass(frozen=True)
class HpgmgConfig:
    """Weak-scaling problem: each rank owns (nz_per_rank, nx, ny) cells,
    organized as boxes of ``box_dim``^3 (paper: log2(box_dim)=7, 8 boxes per
    rank; scaled down here)."""

    box_dim: int = 8
    boxes_xy: int = 2      # boxes along x and along y (global)
    boxes_z_per_rank: int = 2
    cycles: int = 8
    nu_pre: int = 2
    nu_post: int = 2
    nu_coarse: int = 60
    #: Stop distributed coarsening when the local slab gets this thin.
    agglomerate_below_nz: int = 4

    def __post_init__(self):
        if self.box_dim < 2 or self.box_dim & (self.box_dim - 1):
            raise ConfigError("box_dim must be a power of two >= 2")

    @property
    def nx(self) -> int:
        return self.box_dim * self.boxes_xy

    @property
    def ny(self) -> int:
        return self.box_dim * self.boxes_xy

    @property
    def nz_local(self) -> int:
        return self.box_dim * self.boxes_z_per_rank


class _Level:
    """One distributed level: this rank's slab with ghost shell."""

    __slots__ = ("nz", "nx", "ny", "h", "z0", "u", "f", "seq")

    def __init__(self, nz: int, nx: int, ny: int, h: float, z0: int):
        self.nz, self.nx, self.ny = nz, nx, ny
        self.h = h
        self.z0 = z0  # global z index of the first interior plane
        self.u = alloc_field((nz, nx, ny))
        self.f = alloc_field((nz, nx, ny))
        self.seq = 0  # per-level exchange sequence number


class _HaloExchanger:
    """Strategy interface: fill ``level.u``'s z ghost planes from neighbors."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.me = ctx.rank
        self.n = ctx.nranks
        self.down = self.me - 1 if self.me > 0 else None
        self.up = self.me + 1 if self.me < self.n - 1 else None

    def exchange(self, level: _Level, lidx: int):  # pragma: no cover - ABC
        raise NotImplementedError


class MpiHalo(_HaloExchanger):
    """Reference exchange: Isend/Irecv/Waitall each half-sweep."""

    def exchange(self, level: _Level, lidx: int):
        mpi = self.ctx.mpi
        tag = (lidx << 16) | (level.seq & 0xFFFF)
        level.seq += 1
        sends: List[Future] = []
        if self.down is not None:
            sends.append(mpi.isend(level.u[1].copy(), self.down, tag=tag))
        if self.up is not None:
            sends.append(mpi.isend(level.u[level.nz].copy(), self.up, tag=tag))
        if self.down is not None:
            data, _, _ = yield mpi.irecv(src=self.down, tag=tag)
            level.u[0] = data
        else:
            level.u[0] = 0.0
        if self.up is not None:
            data, _, _ = yield mpi.irecv(src=self.up, tag=tag)
            level.u[level.nz + 1] = data
        else:
            level.u[level.nz + 1] = 0.0
        for s in sends:
            yield s


class UpcxxHalo(_HaloExchanger):
    """HiPER exchange: rput the plane into the neighbor's ghost slot, then
    rpc a notification that satisfies the neighbor's pre-registered promise.
    One-sided end to end; no receive matching, no polling."""

    def __init__(self, ctx, levels: List[_Level]):
        super().__init__(ctx)
        self.u_handles = []
        # Register each level's u as a shared object (same order on every
        # rank -> matching obj ids).
        for lv in levels:
            self.u_handles.append(ctx.upcxx.backend.register_shared(lv.u))
        self._arrivals: Dict[Tuple[int, int, int], Promise] = \
            _ARRIVALS.setdefault(ctx.runtime, {})

    def exchange(self, level: _Level, lidx: int):
        from repro.upcxx import GlobalPtr

        u = level.u
        seq = level.seq
        level.seq += 1
        upcxx = self.ctx.upcxx
        ghost_cells = (level.nx + 2) * (level.ny + 2)
        obj_id = self.u_handles[lidx].obj_id

        # One-sided sends: rput my boundary plane into the neighbor's ghost
        # slot, with the notification rpc issued immediately behind it —
        # pairwise-FIFO delivery guarantees the plane is applied before the
        # rpc satisfies the neighbor's arrival promise (the analogue of a
        # UPC++ signaling put). Keys are from the receiver's perspective:
        # (+1) = "my lower ghost arrived from below".
        if self.down is not None:
            # my plane 1 -> down-neighbor's TOP ghost (their plane nz+1)
            gptr = GlobalPtr(self.down, obj_id, (level.nz + 1) * ghost_cells)
            upcxx.rput(u[1].reshape(-1), gptr)
            upcxx.rpc(self.down, _halo_arrived, (lidx, seq, -1))
        if self.up is not None:
            # my plane nz -> up-neighbor's BOTTOM ghost (their plane 0)
            gptr = GlobalPtr(self.up, obj_id, 0)
            upcxx.rput(u[level.nz].reshape(-1), gptr)
            upcxx.rpc(self.up, _halo_arrived, (lidx, seq, +1))

        # Await arrivals addressed to me (futures; overlap is free).
        if self.down is not None:
            yield _arrival(self._arrivals, (lidx, seq, +1)).get_future()
        else:
            u[0] = 0.0
        if self.up is not None:
            yield _arrival(self._arrivals, (lidx, seq, -1)).get_future()
        else:
            u[level.nz + 1] = 0.0


#: Each rank's halo arrival promises, found by the rank's runtime: the
#: notification rpc runs as a task on the receiving rank, so only its key
#: crosses the wire (and pickles, on the procs back end).
_ARRIVALS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _arrival(arrivals: Dict[Tuple[int, int, int], Promise], key) -> Promise:
    p = arrivals.get(key)
    if p is None:   # the rpc and the awaiting rank may race here on procs
        p = arrivals.setdefault(key, Promise(name=f"halo-{key}"))
    return p


def _halo_arrived(key) -> None:
    """The rpc body: satisfy the arrival promise ``key`` of the rank it runs
    on (which, in another process, may not have built its halo yet)."""
    _arrival(_ARRIVALS.setdefault(current_runtime(), {}), key).put(None)


class DistributedMg:
    """The per-rank V-cycle engine, parameterized by halo strategy."""

    def __init__(self, ctx, cfg: HpgmgConfig, halo: str):
        self.ctx = ctx
        self.cfg = cfg
        self.me = ctx.rank
        self.n = ctx.nranks
        self.core_flops = ctx.config.machine.core_flops

        # Build the distributed level hierarchy: halve all dims while the
        # local slab stays thick enough; then agglomerate to rank 0.
        self.levels: List[_Level] = []
        nz, nx, ny = cfg.nz_local, cfg.nx, cfg.ny
        h = 1.0 / (cfg.nz_local * self.n)  # cubic cells; global nz sets h
        z0 = self.me * nz
        while True:
            self.levels.append(_Level(nz, nx, ny, h, z0))
            if (nz // 2 < cfg.agglomerate_below_nz or nz % 2 or
                    nx % 2 or ny % 2 or nx // 2 < 2):
                break
            nz, nx, ny, h, z0 = nz // 2, nx // 2, ny // 2, h * 2, z0 // 2
        coarse = self.levels[-1]
        # Rank 0 solves the agglomerated global coarse problem serially.
        self.serial_coarse = SerialMg(
            (coarse.nz * self.n, coarse.nx, coarse.ny), coarse.h,
            nu_pre=cfg.nu_pre, nu_post=cfg.nu_post, nu_coarse=cfg.nu_coarse,
        ) if self.me == 0 else None

        if halo == "mpi":
            self.halo: _HaloExchanger = MpiHalo(ctx)
        elif halo == "upcxx":
            self.halo = UpcxxHalo(ctx, self.levels)
        else:
            raise ConfigError(f"unknown halo strategy {halo!r}")

    # -- building blocks -------------------------------------------------
    def _smooth_cost(self, level: _Level) -> float:
        cells = level.nz * level.nx * level.ny
        return cells * SMOOTH_FLOPS_PER_CELL / self.core_flops

    def _box_smooth(self, level: _Level, color: int):
        """One GSRB half-sweep as a parallel loop over z-boxes (the rank's
        within-node parallelism; ghost planes must be current)."""
        cfg = self.cfg
        nboxes = max(1, level.nz // cfg.box_dim)
        per_box = level.nz // nboxes
        cost = self._smooth_cost(level) / nboxes

        def one_box(b: int) -> None:
            lo = 1 + b * per_box
            hi = 1 + (b + 1) * per_box if b < nboxes - 1 else level.nz + 1
            gsrb(level.u, level.f, level.h, color,
                 z_slice=slice(lo, hi), global_z0=level.z0)

        return forasync_future(nboxes, one_box, cost_per_item=cost,
                               name=f"hpgmg-gsrb-{color}")

    def smooth(self, level: _Level, lidx: int, sweeps: int):
        """GSRB smoothing: exchange + red half-sweep + exchange + black."""
        for _ in range(sweeps):
            for color in (0, 1):
                yield from self.halo.exchange(level, lidx)
                yield self._box_smooth(level, color)

    # -- the V-cycle -------------------------------------------------------
    def vcycle(self, lidx: int = 0):
        cfg = self.cfg
        level = self.levels[lidx]
        if lidx == len(self.levels) - 1:
            yield from self._coarse_solve(level)
            return
        yield from self.smooth(level, lidx, cfg.nu_pre)
        yield from self.halo.exchange(level, lidx)
        r = residual(level.u, level.f, level.h)
        charge(r.size * 8.0 / self.core_flops)
        nxt = self.levels[lidx + 1]
        interior(nxt.f)[...] = restrict_fv(r)
        nxt.u[...] = 0.0
        yield from self.vcycle(lidx + 1)
        interior(level.u)[...] += prolong_fv(interior(nxt.u))
        charge(level.u.size * 4.0 / self.core_flops)
        yield from self.smooth(level, lidx, cfg.nu_post)

    def _coarse_solve(self, level: _Level):
        """Agglomerate the coarsest distributed level onto rank 0, solve it
        with the serial hierarchy, scatter the correction back (HPGMG's
        agglomeration strategy)."""
        mpi = self.ctx.mpi
        blocks = yield mpi.gather_async(interior(level.f).copy(), root=0)
        if self.me == 0:
            f_global = np.concatenate(blocks, axis=0)
            assert self.serial_coarse is not None
            charge(
                f_global.size * SMOOTH_FLOPS_PER_CELL
                * (self.cfg.nu_coarse / 4.0) / self.core_flops
            )
            u_global, _ = self.serial_coarse.solve(
                f_global, cycles=4, rtol=1e-12)
            ui = interior(u_global)
            pieces = [
                ui[r * level.nz : (r + 1) * level.nz].copy()
                for r in range(self.n)
            ]
        else:
            pieces = None
        mine = yield mpi.scatter_async(pieces, root=0)
        interior(level.u)[...] = mine

    # -- top-level solve ---------------------------------------------------
    def residual_norm(self, need_halo: bool = True):
        level = self.levels[0]
        if need_halo:
            yield from self.halo.exchange(level, 0)
        local = norm2(residual(level.u, level.f, level.h))
        total = yield self.ctx.mpi.allreduce_async(local, lambda a, b: a + b)
        return float(np.sqrt(total))

    def solve(self):
        """Run ``cfg.cycles`` V-cycles; returns the residual-norm history."""
        history = [(yield from self.residual_norm())]
        for _ in range(self.cfg.cycles):
            yield from self.vcycle(0)
            history.append((yield from self.residual_norm()))
        return history


def setup_problem(mg: DistributedMg) -> None:
    """Install the manufactured RHS on the fine level: this rank's planes
    only, from its slab of u_exact plus one neighbor plane on each side."""
    cfg = mg.cfg
    level = mg.levels[0]
    z0 = mg.me * cfg.nz_local
    u = manufactured_slab(cfg.nz_local * mg.n, cfg.nx, cfg.ny, level.h,
                          z0, z0 + cfg.nz_local)
    apply_op(u, level.h, out=interior(level.f))


def run_reference(ctx, cfg: HpgmgConfig):
    """MPI+OpenMP-style HPGMG (level-synchronous two-sided halos)."""
    mg = DistributedMg(ctx, cfg, halo="mpi")
    setup_problem(mg)
    history = yield from mg.solve()
    return history, interior(mg.levels[0].u).copy()


def run_hiper(ctx, cfg: HpgmgConfig):
    """HiPER HPGMG: UPC++ one-sided halos + MPI reductions, composed."""
    mg = DistributedMg(ctx, cfg, halo="upcxx")
    setup_problem(mg)
    history = yield from mg.solve()
    return history, interior(mg.levels[0].u).copy()


VARIANTS = {"reference": run_reference, "hiper": run_hiper}


def hpgmg_main(variant: str, cfg: HpgmgConfig) -> Callable:
    return variant_main("HPGMG", VARIANTS, variant, cfg)
