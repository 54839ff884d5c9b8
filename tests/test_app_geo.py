"""GEO stencil application: kernel math, workload determinism, and all three
variants validated against the serial reference."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.geo import (
    GeoConfig,
    check_result,
    geo_main,
    initial_slab,
    reference_solution,
    stencil_planes,
)
from repro.apps.geo.common import C0, C1, plane_compute_seconds
from repro.apps.registry import APPS
from repro.distrib import ClusterConfig, spmd_run
from repro.cuda import cuda_factory
from repro.mpi import mpi_factory
from repro.platform import machine
from repro.util.errors import ConfigError


def run_geo(variant, cfg, nranks=2, workers=4):
    cluster = ClusterConfig(nodes=nranks, ranks_per_node=1,
                            workers_per_rank=workers,
                            machine=machine("titan"))
    return spmd_run(geo_main(variant, cfg), cluster,
                    module_factories=[mpi_factory(), cuda_factory()])


class TestKernel:
    def test_stencil_is_convex_average(self):
        assert C0 + 6 * C1 == pytest.approx(1.0)

    def test_single_cell_update(self):
        src = np.zeros((3, 3, 3))
        src[1, 1, 1] = 1.0
        dst = np.zeros_like(src)
        stencil_planes(src, dst, 1, 2)
        assert dst[1, 1, 1] == pytest.approx(C0)

    def test_neighbor_contributions(self):
        src = np.zeros((3, 3, 3))
        src[0, 1, 1] = 1.0  # z-below neighbor
        src[2, 1, 1] = 2.0  # z-above
        dst = np.zeros_like(src)
        stencil_planes(src, dst, 1, 2)
        assert dst[1, 1, 1] == pytest.approx(3.0 * C1)

    def test_dirichlet_edges_do_not_wrap(self):
        src = np.ones((3, 4, 4))
        dst = np.zeros_like(src)
        stencil_planes(src, dst, 1, 2)
        # corner cell has 2 zero neighbors (one x face, one y face)
        assert dst[1, 0, 0] == pytest.approx(C0 + 4 * C1)
        # interior x/y cell has all 6 neighbors
        assert dst[1, 1, 1] == pytest.approx(C0 + 6 * C1)

    def test_conservation_under_interior_average(self):
        # with all-ones field and full neighborhood, value is preserved
        src = np.ones((5, 6, 6))
        dst = np.zeros_like(src)
        stencil_planes(src, dst, 2, 3)
        assert dst[2, 2, 2] == pytest.approx(1.0)


def _stencil_oracle(src, dst, z_lo, z_hi):
    """The stencil written as plain expressions, one temporary per step: the
    in-place kernel must reproduce it bit for bit."""
    zs = slice(z_lo, z_hi)
    up = src[z_lo + 1 : z_hi + 1]
    down = src[z_lo - 1 : z_hi - 1]
    center = src[zs]
    acc = up + down
    acc[:, 1:, :] += center[:, :-1, :]
    acc[:, :-1, :] += center[:, 1:, :]
    acc[:, :, 1:] += center[:, :, :-1]
    acc[:, :, :-1] += center[:, :, 1:]
    dst[zs] = C0 * center + C1 * acc


@settings(max_examples=80, deadline=None)
@given(nz=st.integers(1, 10), nx=st.integers(1, 9), ny=st.integers(1, 9),
       scale=st.integers(0, 6), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_kernel_bit_identical_to_oracle(nz, nx, ny, scale, seed, data):
    z_lo = data.draw(st.integers(1, nz))
    z_hi = data.draw(st.integers(z_lo + 1, nz + 1))
    rng = np.random.default_rng(seed)
    # Mixed magnitudes, so a reassociated sum would round differently.
    src = rng.standard_normal((nz + 2, nx, ny)) * 10.0 ** rng.integers(
        -scale, scale + 1, size=(nz + 2, nx, ny))
    want = rng.standard_normal(src.shape)
    got = want.copy()
    _stencil_oracle(src, want, z_lo, z_hi)
    stencil_planes(src, got, z_lo, z_hi)
    assert np.array_equal(got, want)


def _one_block_reference(cfg, nranks):
    """The serial evolution as one double-buffered stencil call per step
    over the whole grid: the blocked, in-place reference must equal it."""
    nz_g = cfg.nz * nranks
    u = np.zeros((nz_g + 2, cfg.nx, cfg.ny))
    for r in range(nranks):
        u[1 + r * cfg.nz : 1 + (r + 1) * cfg.nz] = initial_slab(
            cfg, r, nranks)[1 : cfg.nz + 1]
    nxt = np.zeros_like(u)
    for _ in range(cfg.timesteps):
        stencil_planes(u, nxt, 1, nz_g + 1)
        u, nxt = nxt, u
    return u[1 : nz_g + 1]


@settings(max_examples=40, deadline=None)
@given(nx=st.integers(3, 6), ny=st.integers(3, 6), nz=st.integers(3, 6),
       nranks=st.integers(1, 5), timesteps=st.integers(1, 4),
       seed=st.integers(0, 2**16))
def test_blocked_reference_bit_identical_to_one_block(nx, ny, nz, nranks,
                                                      timesteps, seed):
    cfg = GeoConfig(nx=nx, ny=ny, nz=nz, timesteps=timesteps, seed=seed)
    assert np.array_equal(reference_solution(cfg, nranks),
                          _one_block_reference(cfg, nranks))


_NUDGES = st.tuples(
    st.sampled_from([0.0, 1e-6, 9.99e-6, 1e-5, 1.001e-5, 1e-3]),  # relative
    st.sampled_from([0.0, 5e-13, 1e-12, 2e-12]),  # absolute
    st.sampled_from([1.0, -1.0]),
    st.sampled_from([None, float("nan"), float("inf")]),  # replaces the cell
)


@settings(max_examples=60, deadline=None)
@given(nranks=st.integers(1, 3), seed=st.integers(0, 2**16), data=st.data())
def test_streaming_check_agrees_with_allclose(nranks, seed, data):
    """Slab-by-slab ``check_result`` gives ``np.allclose(atol=1e-12)``'s
    verdict on the whole grid, and its max abs error on failure."""
    cfg = GeoConfig(nx=4, ny=3, nz=3, timesteps=2, seed=seed)
    want = reference_solution(cfg, nranks)
    got = want.copy()
    cells = st.integers(0, got.size - 1)
    for cell, (rel, atol, sign, value) in data.draw(
            st.lists(st.tuples(cells, _NUDGES), max_size=4)):
        if value is None:
            got.flat[cell] += sign * (atol + rel * abs(want.flat[cell]))
        else:
            got.flat[cell] = sign * value
    slabs = np.split(got, nranks)
    if np.allclose(got, want, atol=1e-12):
        check_result(cfg, slabs)
    else:
        err = float(np.max(np.abs(got - want)))
        with pytest.raises(AssertionError,
                           match=re.escape(f"max abs error {err:.3e}")):
            check_result(cfg, slabs)


def test_check_result_refuses_a_misshapen_slab():
    cfg = GeoConfig(nx=4, ny=3, nz=3, timesteps=1)
    slabs = np.split(reference_solution(cfg, 2), 2)
    with pytest.raises(AssertionError, match="rank 1 slab has shape"):
        check_result(cfg, [slabs[0], slabs[1][:2]])


def test_registry_answer_digest_pinned():
    """``repro run --backend sim --app geo``: every variant's answer, pinned
    at the commit before the in-place kernel."""
    pinned = ("geo",
              "a2f445a25c1ca2167a04e0306c3dde7b0468bdf45d4b9c89b3cc58dd3e40bb81")
    geo = APPS["geo"]
    assert {v: geo.run(v)[0] for v in geo.variants} == {
        v: pinned for v in geo.variants}


class TestWorkload:
    def test_initial_slab_deterministic_per_rank(self):
        cfg = GeoConfig(nx=4, ny=4, nz=4)
        a = initial_slab(cfg, 1, 4)
        b = initial_slab(cfg, 1, 4)
        c = initial_slab(cfg, 2, 4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_halo_planes_zero_initial(self):
        cfg = GeoConfig(nx=4, ny=4, nz=4)
        s = initial_slab(cfg, 0, 2)
        assert np.all(s[0] == 0) and np.all(s[-1] == 0)

    def test_reference_matches_per_rank_decomposition(self):
        cfg = GeoConfig(nx=5, ny=4, nz=4, timesteps=3)
        ref2 = reference_solution(cfg, 2)
        assert ref2.shape == (8, 5, 4)

    def test_cost_helper_scales(self):
        cfg = GeoConfig(nx=8, ny=8, nz=8)
        assert plane_compute_seconds(cfg, 2, 1e9) == pytest.approx(
            2 * 64 * 8.0 / 1e9)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            GeoConfig(nx=2, ny=8, nz=8)
        with pytest.raises(ConfigError):
            GeoConfig(timesteps=0)

    def test_unknown_variant(self):
        with pytest.raises(ConfigError, match="unknown GEO variant"):
            geo_main("openacc", GeoConfig())


class TestVariantsCorrectness:
    @pytest.mark.parametrize("variant", ["mpi_omp", "mpi_cuda", "hiper"])
    def test_matches_serial_reference(self, variant):
        cfg = GeoConfig(nx=8, ny=6, nz=6, timesteps=4)
        res = run_geo(variant, cfg, nranks=3)
        check_result(cfg, res.results)

    @pytest.mark.parametrize("variant", ["mpi_omp", "mpi_cuda", "hiper"])
    def test_single_rank(self, variant):
        cfg = GeoConfig(nx=6, ny=6, nz=6, timesteps=3)
        res = run_geo(variant, cfg, nranks=1)
        check_result(cfg, res.results)

    def test_many_ranks_thin_slabs(self):
        cfg = GeoConfig(nx=6, ny=6, nz=4, timesteps=3)
        res = run_geo("mpi_omp", cfg, nranks=6, workers=2)
        check_result(cfg, res.results)

    def test_hiper_rejects_too_thin_slab(self):
        cfg = GeoConfig(nx=6, ny=6, nz=3, timesteps=1)
        with pytest.raises(ConfigError, match="nz >= 4"):
            run_geo("hiper", cfg, nranks=2)

    def test_variants_agree_bitwise(self):
        cfg = GeoConfig(nx=6, ny=6, nz=8, timesteps=3)
        outs = {}
        for v in ("mpi_omp", "mpi_cuda", "hiper"):
            res = run_geo(v, cfg, nranks=2)
            outs[v] = np.concatenate(res.results, axis=0)
        assert np.array_equal(outs["mpi_omp"], outs["mpi_cuda"])
        assert np.array_equal(outs["mpi_omp"], outs["hiper"])


def test_cuda_byte_counts_are_what_moved():
    """An indexed device-to-host copy counts its region, not the whole
    source array: the op carries the size the device priced it at. Here
    four halo planes and the interior come back (5 120 bytes, not five
    whole 5 120-byte slabs), and the uploads move 7 168."""
    res = run_geo("hiper", GeoConfig(nx=8, ny=8, nz=8, timesteps=2), nranks=1)
    stats = res.merged_stats()
    assert stats.counter("cuda", "bytes_d2h") == 5120
    assert stats.counter("cuda", "bytes_h2d") == 7168


class TestVariantsTiming:
    def test_hiper_not_slower_than_blocking_cuda_baseline(self):
        """Fig. 6 shape: the future-based composition beats the version with
        blocking cudaMemcpy in the critical path."""
        cfg = GeoConfig(nx=16, ny=16, nz=16, timesteps=4)
        t_cuda = run_geo("mpi_cuda", cfg, nranks=2).makespan
        t_hiper = run_geo("hiper", cfg, nranks=2).makespan
        assert t_hiper < t_cuda

    def test_weak_scaling_flatish(self):
        """Weak scaling: makespan grows only mildly with rank count."""
        cfg = GeoConfig(nx=8, ny=8, nz=8, timesteps=3)
        t2 = run_geo("mpi_omp", cfg, nranks=2).makespan
        t6 = run_geo("mpi_omp", cfg, nranks=6).makespan
        assert t6 < t2 * 2.0
