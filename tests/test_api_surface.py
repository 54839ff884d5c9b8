"""The paper-facing API surface: the module-injected HiPER namespace
(``runtime.ops``, paper §II-C item 4), combinator APIs in tasks, presets,
and a literal rendering of the paper's §II-D composition listing."""

import numpy as np
import pytest

from repro.apps import presets
from repro.cuda import cuda_factory
from repro.distrib import ClusterConfig, spmd_run
from repro.mpi import mpi_factory
from repro.platform import machine
from repro.runtime.api import async_copy_await, async_future
from repro.runtime.future import satisfied_future, when_any
from repro.shmem import shmem_factory
from repro.upcxx import upcxx_factory
from repro.util.errors import ConfigError


def titan_cluster(nodes=2, workers=4):
    return ClusterConfig(nodes=nodes, ranks_per_node=1,
                         workers_per_rank=workers, machine=machine("titan"))


class TestOpsNamespace:
    """The paper's global-namespace extension: familiar spellings."""

    def test_mpi_namespace_functions(self):
        def main(ctx):
            ops = ctx.runtime.ops
            me, n = ctx.rank, ctx.nranks
            # the paper's spellings, straight off the runtime namespace
            f = ops.MPI_Isend(me * 2, (me + 1) % n, tag=1)
            data, _, _ = yield ops.MPI_Irecv(src=(me - 1) % n, tag=1)
            yield f
            total = ops.MPI_Allreduce(data, lambda a, b: a + b)
            return total

        res = spmd_run(main, titan_cluster(),
                       module_factories=[mpi_factory()])
        assert res.results == [0 + 2] * 2

    def test_shmem_namespace_functions(self):
        def main(ctx):
            ops = ctx.runtime.ops
            sh = ctx.shmem
            sym = ops.shmem_malloc(2, np.int64)  # paper spelling
            yield sh.barrier_all_async()
            old = yield sh.atomic_fetch_add_async(sym, 5, 0)
            yield sh.barrier_all_async()
            # the blocking spellings exist in the namespace (single-rank /
            # leaf use); SPMD mains use the async forms above
            assert callable(ops.shmem_int_fadd)
            assert callable(ops.shmem_barrier_all)
            return int(sym.arr[0]) if ctx.rank == 0 else old

        res = spmd_run(main, titan_cluster(),
                       module_factories=[shmem_factory()])
        assert res.results[0] == 10

    def test_cuda_and_upcxx_namespaces_present(self):
        def main(ctx):
            ops = ctx.runtime.ops
            for name in ("cudaMalloc", "cudaMemcpyAsync", "forasync_cuda",
                         "upcxx_rput", "upcxx_rpc", "upcxx_barrier",
                         "shmem_async_when", "MPI_Isend_await"):
                assert hasattr(ops, name), name
            return True

        res = spmd_run(main, titan_cluster(), module_factories=[
            mpi_factory(), shmem_factory(), cuda_factory(), upcxx_factory()])
        assert all(res.results)


class TestPaperListing:
    def test_section_iid_composition(self):
        """The paper's §II-D HiPER listing, rendered with this API: a ghost
        future feeding MPI_Isend_await, receives feeding a CUDA kernel, and
        async_copy_await stitching them — one timestep of the pattern."""
        def main(ctx):
            me, n = ctx.rank, ctx.nranks
            mpi, cu, rt = ctx.mpi, ctx.cuda, ctx.runtime
            N = 64
            ghost = np.zeros(N)

            # ghost_fut = forasync_future([&] (z) { ... });
            def fill_ghost():
                ghost[:] = me + 1.0

            ghost_fut = async_future(fill_ghost, cost=1e-5)

            # reqs[0] = MPI_Isend_await(..., ghost_fut);
            send = mpi.isend_await(lambda: ghost.copy(), (me + 1) % n,
                                   ghost_fut, tag=0)
            # reqs[2] = MPI_Irecv(...);
            recv = mpi.irecv(src=(me - 1) % n, tag=0)

            # forasync_cuda(..., &reqs[2], ...);
            d = cu.malloc(N)
            halo = np.zeros(N)

            def on_recv(_f):
                halo[:] = recv.value()[0]

            recv.on_ready(on_recv)
            kernel = cu.forasync_cuda(
                N, lambda idx: np.add.at(d.data, idx, 1.0),
                await_futures=[recv])

            # async_copy_await(..., reqs[2], ...);
            back = np.zeros(N)
            copy = async_copy_await(back, rt.sysmem, halo, rt.sysmem,
                                    halo.nbytes, [recv, kernel], runtime=rt)
            yield copy
            yield send
            return float(back[0])

        res = spmd_run(main, titan_cluster(),
                       module_factories=[mpi_factory(), cuda_factory()])
        # each rank's halo came from its left neighbor's ghost value
        assert res.results == [2.0, 1.0]


class TestCombinatorsInTasks:
    def test_when_any_in_task(self, sim_rt):
        from repro.runtime.api import charge, timer_future

        def main():
            slow = timer_future(1e-2)
            fast = async_future(lambda: (charge(1e-3), "fast")[1])
            idx, val = when_any([slow, fast]).wait()
            return (idx, val)

        assert sim_rt.run(main) == (1, "fast")

    def test_async_copy_await_failure_propagates(self, sim_rt):
        def main():
            bad = async_future(lambda: 1 / 0)
            f = async_copy_await(np.zeros(4), sim_rt.sysmem, np.ones(4),
                                 sim_rt.sysmem, 32, [bad], runtime=sim_rt)
            with pytest.raises(ZeroDivisionError):
                f.wait()
            return "ok"

        assert sim_rt.run(main) == "ok"

    def test_async_copy_await_with_satisfied_future(self, sim_rt):
        dst = np.zeros(4)

        def main():
            async_copy_await(dst, sim_rt.sysmem, np.ones(4), sim_rt.sysmem,
                             32, [satisfied_future()], runtime=sim_rt).wait()

        sim_rt.run(main)
        assert np.all(dst == 1.0)


class TestPresets:
    def test_all_presets_build(self):
        assert presets.isx_weak_scaling().keys_per_pe > 0
        assert presets.uts_t1xxl().root_children >= 100
        assert presets.graph500_reference().scale == 12
        assert presets.hpgmg_paper().box_dim == 8
        assert presets.hpgmg_paper(scale=2).box_dim == 16
        assert presets.geo_weak_scaling(2.0).nx == 64

    def test_scale_bounds(self):
        with pytest.raises(ConfigError):
            presets.uts_t1xxl(scale=1000)
        with pytest.raises(ConfigError):
            presets.graph500_reference(scale_exponent=40)
