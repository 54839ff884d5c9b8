"""HPGMG-FV: operator identities, serial convergence, distributed solver
equivalence across both halo strategies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.hpgmg import (
    DistributedMg,
    HpgmgConfig,
    SerialMg,
    apply_op,
    hpgmg_main,
    interior,
    manufactured_problem,
    prolong_fv,
    restrict_fv,
)
from repro.apps.hpgmg.ops import (alloc_field, gsrb, jacobi, neighbor_sum,
                                  norm2, residual)
from repro.apps.hpgmg.solver import setup_problem
from repro.apps.registry import APPS
from repro.distrib import ClusterConfig, spmd_run
from repro.mpi import mpi_factory
from repro.platform import machine
from repro.upcxx import upcxx_factory
from repro.util.errors import ConfigError


def run_hpgmg(variant, cfg, nranks=2, workers=2):
    cluster = ClusterConfig(nodes=nranks, ranks_per_node=1,
                            workers_per_rank=workers,
                            machine=machine("edison"))
    return spmd_run(hpgmg_main(variant, cfg), cluster,
                    module_factories=[mpi_factory(), upcxx_factory()])


class TestOperators:
    def test_apply_op_on_constant_interiorless(self):
        u = alloc_field((4, 4, 4))
        interior(u)[...] = 1.0
        au = apply_op(u, 0.5)
        # center cells see 6 neighbors -> Au = 0; face cells see ghosts (0)
        assert au[1, 1, 1] == pytest.approx(0.0)
        assert au[0, 1, 1] == pytest.approx(1.0 / 0.25)

    def test_residual_zero_at_solution(self):
        n = 8
        h = 1.0 / n
        u_exact, f = manufactured_problem(n, n, n, h)
        u = alloc_field((n, n, n))
        interior(u)[...] = u_exact
        fg = alloc_field((n, n, n))
        interior(fg)[...] = f
        assert np.max(np.abs(residual(u, fg, h))) < 1e-10

    def test_jacobi_reduces_residual(self):
        n = 8
        h = 1.0 / n
        _, f = manufactured_problem(n, n, n, h)
        fg = alloc_field((n, n, n))
        interior(fg)[...] = f
        u = alloc_field((n, n, n))
        r0 = norm2(residual(u, fg, h))
        for _ in range(5):
            interior(u)[...] = jacobi(u, fg, h)
        assert norm2(residual(u, fg, h)) < r0

    def test_gsrb_colors_partition_cells(self):
        u = alloc_field((4, 4, 4))
        f = alloc_field((4, 4, 4))
        interior(f)[...] = 1.0
        gsrb(u, f, 1.0, 0)
        red_cells = int(np.count_nonzero(interior(u)))
        gsrb(u, f, 1.0, 1)
        all_cells = int(np.count_nonzero(interior(u)))
        assert red_cells == 32 and all_cells == 64

    def test_gsrb_global_parity_offset(self):
        """Distributed slabs must color by GLOBAL z; offsetting by one plane
        flips the mask."""
        u1 = alloc_field((2, 2, 2))
        f = alloc_field((2, 2, 2))
        interior(f)[...] = 1.0
        gsrb(u1, f, 1.0, 0, global_z0=0)
        u2 = alloc_field((2, 2, 2))
        gsrb(u2, f, 1.0, 0, global_z0=1)
        assert not np.array_equal(u1, u2)

    def test_restrict_prolong_adjoint_pair(self):
        """<P uc, rf> == 8 <uc, R rf> (the variational scaling)."""
        rng = np.random.default_rng(1)
        uc = rng.random((2, 2, 2))
        rf = rng.random((4, 4, 4))
        lhs = float(np.sum(prolong_fv(uc) * rf))
        rhs = 8.0 * float(np.sum(uc * restrict_fv(rf)))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_restrict_constant_preserved(self):
        r = np.ones((4, 4, 4))
        rc = restrict_fv(r)
        # interior coarse cell of a constant field restricts to < 1 only at
        # boundaries (zero ghosts); all values bounded by 1
        assert rc.max() <= 1.0 + 1e-12


# ----------------------------------------------------------------------
# The kernels as plain expressions, one temporary per operator: the
# in-place kernels must reproduce them bit for bit.
# ----------------------------------------------------------------------
def _neighbor_sum_oracle(u):
    return (
        u[:-2, 1:-1, 1:-1] + u[2:, 1:-1, 1:-1]
        + u[1:-1, :-2, 1:-1] + u[1:-1, 2:, 1:-1]
        + u[1:-1, 1:-1, :-2] + u[1:-1, 1:-1, 2:]
    )


def _gsrb_oracle(u, f, h, color, z_slice, global_z0):
    zs = z_slice
    lo = zs.start
    hi = zs.stop if zs.stop >= 0 else u.shape[0] + zs.stop
    nz = hi - lo
    _, nxg, nyg = u.shape
    nx, ny = nxg - 2, nyg - 2
    k = (np.arange(nz) + global_z0 + lo - 1)[:, None, None]
    i = np.arange(nx)[None, :, None]
    j = np.arange(ny)[None, None, :]
    mask = ((k + i + j) & 1) == color
    nbr = (
        u[lo - 1 : hi - 1, 1:-1, 1:-1] + u[lo + 1 : hi + 1, 1:-1, 1:-1]
        + u[lo:hi, :-2, 1:-1] + u[lo:hi, 2:, 1:-1]
        + u[lo:hi, 1:-1, :-2] + u[lo:hi, 1:-1, 2:]
    )
    gs = (h * h * f[lo:hi, 1:-1, 1:-1] + nbr) / 6.0
    tgt = u[lo:hi, 1:-1, 1:-1]
    tgt[mask] = gs[mask]


def _manufactured_oracle(nz, nx, ny, h):
    z = (np.arange(nz) + 0.5) * h
    x = (np.arange(nx) + 0.5) * h
    y = (np.arange(ny) + 0.5) * h
    zz, xx, yy = np.meshgrid(z, x, y, indexing="ij")
    u_exact = np.sin(np.pi * zz) * np.sin(np.pi * xx) * np.sin(np.pi * yy)
    u_g = alloc_field((nz, nx, ny))
    interior(u_g)[...] = u_exact
    return u_exact, (6.0 * interior(u_g) - _neighbor_sum_oracle(u_g)) / (h * h)


def _field(rng, shape, scale):
    """A ghosted field of mixed magnitudes, so that a reassociated sum would
    round differently."""
    full = tuple(d + 2 for d in shape)
    return rng.standard_normal(full) * 10.0 ** rng.integers(
        -scale, scale + 1, size=full)


_SHAPES = st.tuples(st.integers(1, 9), st.integers(1, 7), st.integers(1, 7))


@settings(max_examples=60, deadline=None)
@given(shape=_SHAPES, scale=st.integers(0, 6), h=st.floats(1e-3, 4.0),
       seed=st.integers(0, 2**32 - 1))
def test_kernel_operator_bit_identical_to_oracle(shape, scale, h, seed):
    rng = np.random.default_rng(seed)
    u, f = _field(rng, shape, scale), _field(rng, shape, scale)
    nbr = _neighbor_sum_oracle(u)
    au = (6.0 * interior(u) - nbr) / (h * h)
    assert np.array_equal(neighbor_sum(u), nbr)
    assert np.array_equal(apply_op(u, h), au)
    assert np.array_equal(residual(u, f, h), interior(f) - au)


@settings(max_examples=80, deadline=None)
@given(shape=_SHAPES, scale=st.integers(0, 6), h=st.floats(1e-3, 4.0),
       color=st.integers(0, 1), global_z0=st.integers(0, 40),
       from_end=st.booleans(), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_kernel_gsrb_bit_identical_to_oracle(shape, scale, h, color,
                                             global_z0, from_end, seed, data):
    nz = shape[0]
    lo = data.draw(st.integers(1, nz))
    hi = data.draw(st.integers(lo + 1, nz + 1))
    z_slice = slice(lo, hi - (nz + 2) if from_end else hi)
    rng = np.random.default_rng(seed)
    want, f = _field(rng, shape, scale), _field(rng, shape, scale)
    got = want.copy()
    _gsrb_oracle(want, f, h, color, z_slice, global_z0)
    gsrb(got, f, h, color, z_slice=z_slice, global_z0=global_z0)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("shape", [(4, 4, 4), (16, 16, 16), (7, 5, 9),
                                   (64, 32, 32)])
def test_kernel_manufactured_problem_bit_identical_to_oracle(shape):
    h = 1.0 / shape[0]
    u_exact, f = manufactured_problem(*shape, h)
    want_u, want_f = _manufactured_oracle(*shape, h)
    assert np.array_equal(u_exact, want_u) and np.array_equal(f, want_f)


def _local_rhs(cfg):
    def main(ctx):
        mg = DistributedMg(ctx, cfg, halo="mpi")
        setup_problem(mg)
        return interior(mg.levels[0].f).copy()
        yield

    return main


@pytest.mark.parametrize("nranks", [1, 2, 4, 16])
def test_kernel_rank_local_rhs_is_the_global_slice(nranks):
    cfg = HpgmgConfig(box_dim=4, boxes_xy=1, boxes_z_per_rank=2)
    cluster = ClusterConfig(nodes=nranks, ranks_per_node=1,
                            workers_per_rank=1, machine=machine("edison"))
    res = spmd_run(_local_rhs(cfg), cluster, module_factories=[mpi_factory()])
    nz = cfg.nz_local
    _, f_global = _manufactured_oracle(nz * nranks, cfg.nx, cfg.ny,
                                       1.0 / (nz * nranks))
    for rank, f in enumerate(res.results):
        assert np.array_equal(f, f_global[rank * nz : (rank + 1) * nz]), rank


def test_registry_answer_digest_pinned():
    """``repro run --backend sim --app hpgmg``: every variant's answer,
    pinned at the commit before the in-place kernels."""
    pinned = ("hpgmg", 6,
              "16a416c1a2f016ec42a4667e1c549e030ee3618146fc922331af06bfb1432e6f")
    hpgmg = APPS["hpgmg"]
    assert {v: hpgmg.run(v)[0] for v in hpgmg.variants} == {
        v: pinned for v in hpgmg.variants}


class TestSerialMg:
    def test_mesh_independent_convergence(self):
        for n in (16, 32):
            h = 1.0 / n
            _, f = manufactured_problem(n, n, n, h)
            mg = SerialMg((n, n, n), h)
            _, hist = mg.solve(f, cycles=12, rtol=0)
            factor = hist[-1] / hist[-2]
            assert factor < 0.55, f"n={n} factor {factor}"

    def test_converges_to_discrete_solution(self):
        n = 16
        h = 1.0 / n
        u_exact, f = manufactured_problem(n, n, n, h)
        mg = SerialMg((n, n, n), h)
        u, hist = mg.solve(f, cycles=30, rtol=1e-12)
        assert np.max(np.abs(interior(u) - u_exact)) < 1e-8

    def test_jacobi_smoother_option(self):
        n = 16
        h = 1.0 / n
        _, f = manufactured_problem(n, n, n, h)
        mg = SerialMg((n, n, n), h, smoother="jacobi", nu_pre=3, nu_post=3)
        _, hist = mg.solve(f, cycles=15, rtol=0)
        assert hist[-1] < hist[0] * 1e-2

    def test_rejects_tiny_grid(self):
        with pytest.raises(ConfigError):
            SerialMg((1, 4, 4), 0.25)

    def test_rejects_unknown_smoother(self):
        with pytest.raises(ConfigError):
            SerialMg((8, 8, 8), 0.125, smoother="chebyshev")


class TestDistributed:
    CFG = HpgmgConfig(box_dim=8, boxes_xy=1, boxes_z_per_rank=1, cycles=6)

    @pytest.mark.parametrize("variant", ["reference", "hiper"])
    def test_converges(self, variant):
        res = run_hpgmg(variant, self.CFG, nranks=2)
        hist = res.results[0][0]
        assert hist[-1] < hist[0] * 1e-3

    def test_all_ranks_agree_on_history(self):
        res = run_hpgmg("reference", self.CFG, nranks=4)
        hists = [r[0] for r in res.results]
        assert all(h == hists[0] for h in hists)

    def test_variants_produce_identical_iterates(self):
        a = run_hpgmg("reference", self.CFG, nranks=2)
        b = run_hpgmg("hiper", self.CFG, nranks=2)
        ua = np.concatenate([r[1] for r in a.results], axis=0)
        ub = np.concatenate([r[1] for r in b.results], axis=0)
        assert np.array_equal(ua, ub)

    def test_matches_serial_solution(self):
        cfg = self.CFG
        nranks = 2
        res = run_hpgmg("reference", cfg, nranks=nranks)
        u_dist = np.concatenate([r[1] for r in res.results], axis=0)
        nzg = cfg.nz_local * nranks
        h = 1.0 / nzg
        u_exact, _ = manufactured_problem(nzg, cfg.nx, cfg.ny, h)
        # after 6 cycles the distributed solve is close to the true solution
        assert np.max(np.abs(u_dist - u_exact)) < 1e-4

    def test_single_rank(self):
        res = run_hpgmg("reference", self.CFG, nranks=1)
        hist = res.results[0][0]
        assert hist[-1] < hist[0] * 1e-3

    def test_weak_scaling_parity_between_variants(self):
        """Fig. 4 shape: HiPER and the reference hybrid are comparable."""
        cfg = HpgmgConfig(box_dim=8, boxes_xy=2, boxes_z_per_rank=2, cycles=4)
        t_ref = run_hpgmg("reference", cfg, nranks=4, workers=4).makespan
        t_hip = run_hpgmg("hiper", cfg, nranks=4, workers=4).makespan
        assert 0.5 < t_hip / t_ref < 2.0

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            HpgmgConfig(box_dim=6)
        with pytest.raises(ConfigError, match="unknown HPGMG variant"):
            hpgmg_main("amr", HpgmgConfig())


class TestFullMultigrid:
    def test_fcycle_big_first_step(self):
        """One F-cycle must beat several V-cycles' worth of reduction."""
        n = 32
        h = 1.0 / n
        _, f = manufactured_problem(n, n, n, h)
        mg = SerialMg((n, n, n), h)
        _, hist = mg.fmg_solve(f, vcycles=0)
        assert hist[1] < hist[0] * 0.05  # >20x from the single F-cycle

    def test_fmg_plus_vcycles_converges(self):
        n = 16
        h = 1.0 / n
        u_exact, f = manufactured_problem(n, n, n, h)
        mg = SerialMg((n, n, n), h)
        u, hist = mg.fmg_solve(f, vcycles=6)
        assert np.max(np.abs(interior(u) - u_exact)) < 1e-6
        assert hist[-1] < hist[0] * 1e-5

    def test_fmg_history_monotone(self):
        n = 16
        h = 1.0 / n
        _, f = manufactured_problem(n, n, n, h)
        mg = SerialMg((n, n, n), h)
        _, hist = mg.fmg_solve(f, vcycles=3)
        assert all(b < a for a, b in zip(hist, hist[1:]))
