"""Allocation budget of the completion path (docs/sim-internals.md).

CPython's cyclic collector walks every GC-tracked object it has not yet
promoted, and walks the whole heap again at each 25 % of growth, so what an
operation *in flight* costs is the number of tracked objects it holds — and a
reference cycle among them keeps all of it alive until a full pass. These
tests count tracked objects by type around operations that have been issued
and not yet driven; the bounds leave one object of slack per operation for
interpreter versions that track a tuple or a bound method differently.

Fails at 958b3d5: a put in flight held 22 tracked objects, a fetching AMO 13
(bound 7), a completed future 4 (bound 2), a scalar transmit made three
closures, and every future ever made waited for the collector. Fails at
1dee314, whose send snapshots came from a buffer pool: a put in flight held
9.05 tracked objects (bound 8), an ``rput`` 8.00 (bound 7) and an ``isend``
11.02 (bound 7). The module-level rows held, at a80e79e, 12 tracked objects
per ``MpiModule.isend``, 14 per funneled ``ShmemModule.put_async`` (now 12:
its task body is a module-level generator instead of a closure) and 20 per
``CudaModule.memcpy_async``. At 83d6929 a pending task-graph node held 10
tracked objects (bound 6), and every graph was a node <-> handle cycle that
waited for a full pass.

The numpy kernel rows measure bytes, not objects: an array buffer is not a
tracked object, but ``tracemalloc`` sees it, and each block-sized temporary
costs an allocation and its page faults. At 9bb5379, on a 46-plane 96x96
block, ``stencil_planes`` peaked at 3.00 blocks (bound 1.1) and a warm-mask
``gsrb`` at 2.63 (bound 2.1; 3.14 on a 16-plane 32x32 box), and
``setup_problem`` on rank 15 of 16 at 114.7x the rank's right-hand side,
because every rank built the global problem (bound 3). NumPy adds one
64 KiB iterator buffer per strided operand on top of the temporaries, which
is why the rows use blocks of megabytes.

The GEO rows fail at b39cff0: its oracle peaked at 4.13 global grids (bound
1.5), a finished run still held 3.09 slabs per rank (bound 1.5), and both
CUDA variants left their two device slabs allocated.

The ISx all-to-all rows fail at dbc9a93: a 64-rank flat run peaked at 381
traced bytes per message (bound 340), because it kept every consumed
reservation future until its exchange ended; the pairwise-FIFO table was a
dict of 147 544 bytes where 32 768 hold every pair; and ``validate_isx``
peaked at 3.00 global key sets (bound 1.5).

The ``put_nbi`` rows fail at 88ad999, where a put could only be issued with
its local-completion future: a ``put`` in flight held 8.05 tracked objects
(``put_nbi`` bound 5, measured 4.00) and a funneled ``put_async`` 12.00
(``put_nbi`` bound 6, measured 5.00), and flat ISx suspended on every
put's future before its barrier.
"""

import collections
import gc
import sys
import tracemalloc
import types

import numpy as np
import pytest

from repro.apps.geo import (GeoConfig, check_result, geo_main,
                            reference_solution, stencil_planes)
from repro.apps.hpgmg import DistributedMg, HpgmgConfig
from repro.apps.hpgmg.ops import alloc_field, gsrb
from repro.apps.hpgmg.solver import setup_problem
from repro.apps.isx import IsxConfig, isx_main, validate_isx
from repro.cuda import cuda_factory
from repro.distrib.spmd import ClusterConfig, spmd_run
from repro.exec.sim import SimExecutor
from repro.mpi import mpi_factory
from repro.mpi.backend import MpiBackend, MpiRequest
from repro.net import FabricMux, NetworkModel, SimFabric
from repro.platform import discover, machine
from repro.runtime.runtime import HiperRuntime
from repro.runtime.future import satisfied_future, when_all
from repro.shmem import ShmemBackend, shmem_factory
from repro.shmem.heap import SignatureTable, SymmetricHeap
from repro.taskgraph import (TaskGraph, hetero_workload, isx_dag_workload,
                             reduction_workload)
from repro.upcxx import GlobalPtr, UpcxxBackend
from tests.test_app_isx import _sorted_buckets
from tests.test_taskgraph import _spec_triples

N = 1000
BLOCK = np.arange(8, dtype=np.int64)

OPS = {
    "put": lambda pe, sym: pe.put(sym, BLOCK, 1),
    "amo-fetch": lambda pe, sym: pe.amo("add", sym, 0, 1, operand=1),
    "amo": lambda pe, sym: pe.amo("add", sym, 0, 1, operand=1, fetch=False),
}


def _world():
    """Two PEs on one simulated fabric, nothing driven yet."""
    ex = SimExecutor()
    fab = SimFabric(ex, 2, NetworkModel())
    registry, sigs = {}, SignatureTable()
    pes = [ShmemBackend(FabricMux(fab, rank), rank,
                        SymmetricHeap(rank, shared_signatures=sigs), registry)
           for rank in range(2)]
    sym = [pe.heap.allocate((8,), dtype=np.int64, fill=0) for pe in pes][0]
    return ex, fab, pes[0], sym


def _shmem_op(op):
    ex, _, pe, sym = _world()
    return ex, lambda: OPS[op](pe, sym)


def _rput_op():
    """Two UPC++ ranks; rank 0 rputs into rank 1's shared array."""
    ex = SimExecutor()
    fab = SimFabric(ex, 2, NetworkModel())
    peers = {}
    ranks = [UpcxxBackend(FabricMux(fab, rank), rank, peers,
                          spawn_rpc=lambda body: satisfied_future(body()))
             for rank in range(2)]
    for b in ranks:
        b.register_shared(np.zeros(8, dtype=np.int64))
    return ex, lambda: ranks[0].rput(BLOCK, GlobalPtr(1, 0))


def _isend_op():
    """Rank 0 isends to a rank 1 that discards what arrives, so only the
    send side is counted."""
    ex = SimExecutor()
    fab = SimFabric(ex, 2, NetworkModel())
    sender = MpiBackend(FabricMux(fab, 0), 0)
    FabricMux(fab, 1).register_channel("mpi", lambda src, env, t: None)
    return ex, lambda: sender.isend(BLOCK, 1)


OP_WORLDS = {
    "put": lambda: _shmem_op("put"),
    "amo-fetch": lambda: _shmem_op("amo-fetch"),
    "amo": lambda: _shmem_op("amo"),
    "rput": _rput_op,
    "isend": _isend_op,
}


def _done(handle) -> bool:
    return handle.test() if isinstance(handle, MpiRequest) else handle.satisfied


def _census():
    return collections.Counter(type(o).__name__ for o in gc.get_objects())


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.fixture
def saved_garbage():
    """Everything the cyclic collector finds unreachable lands in the list
    this yields, instead of being freed."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield gc.garbage
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


@pytest.mark.parametrize("op, in_flight", [("put", 8), ("amo-fetch", 7),
                                           ("amo", 8), ("rput", 7),
                                           ("isend", 7)])
def test_tracked_objects_per_operation(op, in_flight, collector_off):
    ex, issue = OP_WORLDS[op]()
    warm = [issue() for _ in range(10)]  # warm-up
    ex.drain()
    del warm
    before = _census()
    handles = [issue() for _ in range(N)]
    flying = _census() - before
    assert sum(flying.values()) <= in_flight * N + 50, flying
    ex.drain()
    assert all(_done(h) for h in handles)
    held = _census() - before
    # The application still holds every future or request: one object each.
    assert sum(held.values()) <= 2 * N + 50, held


def test_tracked_objects_per_put_nbi(collector_off):
    """A ``put_nbi`` in flight (the backend's ``count_put`` then
    ``send_put`` with no hook) is its message alone: the payload, the
    channel envelope, the delivery's arguments and its event-heap key. No
    future, no injection event; once driven, nothing is left."""
    ex, _, pe, sym = _world()
    for _ in range(10):  # warm-up
        pe.send_put(pe.count_put(sym, BLOCK, 1))
    ex.drain()
    before = _census()
    for _ in range(N):
        pe.send_put(pe.count_put(sym, BLOCK, 1))
    flying = _census() - before
    assert sum(flying.values()) <= 5 * N + 50, flying
    ex.drain()
    assert pe.outstanding_remote == 0
    held = _census() - before
    assert sum(held.values()) <= 50, held


def _mpi_isend(ctx):
    """Rank 0's polling-flow isends; rank 1 receives them all."""
    if ctx.rank == 1:
        for _ in range(N + 10):
            yield ctx.mpi.irecv(src=0)
    return lambda: ctx.mpi.isend(BLOCK, 1), None


def _shmem_put(ctx):
    """Funneled puts: each is a task at the Interconnect place."""
    sym = ctx.shmem.malloc(8)
    yield ctx.shmem.barrier_all_async()
    return (lambda: ctx.shmem.put_async(sym, BLOCK, 1)), ctx.shmem.quiet_async


def _shmem_put_nbi(ctx):
    """Funneled ``put_nbi``: a comm task each, no future; quiet settles."""
    sym = ctx.shmem.malloc(8)
    yield ctx.shmem.barrier_all_async()
    return (lambda: ctx.shmem.put_nbi(sym, BLOCK, 1)), ctx.shmem.quiet_async


def _cuda_memcpy(ctx):
    cuda = ctx.runtime.module("cuda")
    dev = cuda.malloc(8, dtype=np.int64)
    return lambda: cuda.memcpy_async(dev, BLOCK), None
    yield


MODULE_FLOWS = {
    "mpi-isend": (mpi_factory(), 2, "workstation", _mpi_isend),
    "shmem-put": (shmem_factory(), 2, "workstation", _shmem_put),
    "shmem-put_nbi": (shmem_factory(), 2, "workstation", _shmem_put_nbi),
    "cuda-memcpy": (cuda_factory(), 1, "titan", _cuda_memcpy),
}


def _all_done(handles):
    """The handles' joint future; a ``put_nbi`` returns no handle."""
    return when_all([h for h in handles if h is not None])


@pytest.mark.parametrize("flow, in_flight", [("mpi-isend", 13),
                                             ("shmem-put", 13),
                                             ("shmem-put_nbi", 6),
                                             ("cuda-memcpy", 21)])
def test_tracked_objects_per_module_operation(flow, in_flight, collector_off):
    """The same count one layer up, through the module's completion flow
    (polling, taskify, device copy), issued by rank 0's main in a run."""
    factory, nodes, machine_name, setup = MODULE_FLOWS[flow]
    flying = {}

    def main(ctx):
        issue, settle = yield from setup(ctx)
        if ctx.rank != 0:
            return None
        yield _all_done([issue() for _ in range(10)])  # warm-up
        before = _census()
        handles = [issue() for _ in range(N)]
        flying.update(_census() - before)
        yield _all_done(handles)
        if settle is not None:
            yield settle()
        return None

    spmd_run(main, ClusterConfig(nodes=nodes, workers_per_rank=2,
                                 machine=machine(machine_name)),
             module_factories=[factory])
    assert 0 < sum(flying.values()) <= in_flight * N + 50, flying


def test_scalar_transmit_makes_no_closure(collector_off):
    ex = SimExecutor()
    fab = SimFabric(ex, 2, NetworkModel())
    injected, delivered = [], []
    fab.register_sink(1, lambda src, payload, t: delivered.append(payload))
    before = _census()
    for i in range(N):
        fab.transmit(0, 1, 64, i, on_injected=injected.append)
    made = _census() - before
    assert made["function"] == 0 and made["cell"] == 0, made
    ex.drain()
    assert delivered == list(range(N)) and len(injected) == N


def test_dropped_futures_leave_nothing_for_the_collector(saved_garbage):
    ex, _, pe, sym = _world()
    futures = [issue(pe, sym) for issue in OPS.values() for _ in range(N)]
    ex.drain()
    assert all(f.satisfied for f in futures)
    del futures
    gc.collect()
    found = collections.Counter(type(o).__name__ for o in saved_garbage)
    assert not {"Promise", "Future", "lock", "list"} & set(found), found


def test_flat_isx_run_leaves_no_future_for_the_collector(saved_garbage):
    cfg = IsxConfig(keys_per_pe=1 << 8, byte_scale=1 << 7)
    cluster = ClusterConfig(nodes=4, ranks_per_node=4, workers_per_rank=1)
    res = spmd_run(isx_main("flat", cfg), cluster,
                   module_factories=[shmem_factory(direct=True)])
    validate_isx(cfg, res.nranks, res.results)
    del res
    gc.collect()
    found = collections.Counter(type(o).__name__ for o in saved_garbage)
    # The 16 runtimes are cyclic and do wait for the collector; the futures
    # of the run must not be among what it finds.
    assert found["Promise"] == 0 and found["Future"] == 0, found
    assert found  # the probe works: the dropped world was seen


# ----------------------------------------------------------------------
# the task graph (docs/taskgraph.md, "Node lifetime")
# ----------------------------------------------------------------------
def _run_graph(root):
    """``root`` as the root task of a fresh 4-worker simulated runtime."""
    ex = SimExecutor()
    rt = HiperRuntime(discover(machine("workstation"), num_workers=4,
                               with_interconnect=False), ex).start()
    try:
        return rt.run(root, name="budget-root")
    finally:
        rt.shutdown()
        ex.shutdown()


def _graph_body():
    """No closure: only what the graph itself allocates is counted."""


def _raise_in_body():
    raise ValueError("head exploded")


def test_tracked_objects_per_pending_graph_node(collector_off):
    pending = {}

    def root():
        g = TaskGraph(name="budget")
        e, d = g.handle(name="e"), g.handle(name="d")
        g.submit(_graph_body, read=[e], write=[d])  # the one dispatched now
        before = _census()
        futures = [g.submit(_graph_body, read=[e], write=[d])
                   for _ in range(N)]
        pending.update(_census() - before)
        g.wait()
        return all(f.satisfied for f in futures)

    assert _run_graph(root)
    # TaskNode, its Future, the reads and writes tuples, and the successor
    # list its predecessor holds it in.
    assert sum(pending.values()) <= 6 * N + 50, pending


def _failing_head(n=64):
    """A head that raises, and ``n`` writers of its datum with a reader each
    cascading behind it. The root does not wait (its task's scope joins the
    graph), so none of its frames is in the traceback."""

    def root():
        failed = []
        g = TaskGraph(name="cascade")
        d = g.handle(np.zeros(1))
        g.submit(_raise_in_body, write=[d], cost=1e-3)
        for _ in range(n):
            g.submit(_graph_body, write=[d])
            last = g.submit(_graph_body, read=[d])
        last.on_ready(lambda f: failed.extend([f._exception.args]))
        return failed  # filled when the cascade fails the last reader

    return root


GRAPH_SHAPES = {
    "hetero.dmda": hetero_workload(2, 3, policy="dmda"),
    "hetero.help_first": hetero_workload(2, 3, policy="help-first"),
    "reduce.commute": reduction_workload(16, commute=True),
    "reduce.ordered": reduction_workload(16, commute=False),
    "isx_dag": isx_dag_workload(IsxConfig(keys_per_pe=1 << 8), 4),
    "spec.rollback": _spec_triples(16, speculation=True),
    "failing_head": _failing_head(),
}


@pytest.mark.parametrize("shape", sorted(GRAPH_SHAPES))
def test_dropped_graph_leaves_nothing_for_the_collector(shape, saved_garbage):
    assert _run_graph(GRAPH_SHAPES[shape])
    gc.collect()
    found = collections.Counter(type(o).__name__ for o in saved_garbage)
    # The runtime is cyclic and does wait for the collector; no graph
    # object may be among what it finds.
    graph = {"TaskNode", "DataHandle", "CommuteRun", "RunJoin", "Future"}
    assert not graph & set(found), found
    assert found  # the probe works: the dropped runtime was seen


# ----------------------------------------------------------------------
# the app kernels' numpy temporaries (docs/sim-internals.md)
# ----------------------------------------------------------------------
KERNEL_BLOCK = (46, 96, 96)  # a GEO hiper rank's interior update


def _peak_bytes(fn) -> int:
    """Peak bytes ``fn()`` holds at once, numpy buffers included; what
    existed before the call is not counted."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _stencil_call():
    nz, nx, ny = KERNEL_BLOCK
    src = np.random.default_rng(0).random((nz + 4, nx, ny))
    dst = np.zeros_like(src)
    return lambda: stencil_planes(src, dst, 2, nz + 2), KERNEL_BLOCK


def _gsrb_call():
    u, f = alloc_field(KERNEL_BLOCK), alloc_field(KERNEL_BLOCK)
    f[...] = 1.0
    gsrb(u, f, 0.1, 0)  # the red/black mask is built once, then cached
    return lambda: gsrb(u, f, 0.1, 0), KERNEL_BLOCK


def _setup_problem_call():
    """Rank 15 of 16 of the stencil_modules HPGMG leg; its RHS block is the
    rank's interior."""
    cfg = HpgmgConfig(box_dim=16, boxes_xy=2, boxes_z_per_rank=2)
    ctx = types.SimpleNamespace(
        rank=15, nranks=16,
        config=types.SimpleNamespace(machine=machine("titan")))
    mg = DistributedMg(ctx, cfg, halo="mpi")
    return lambda: setup_problem(mg), (cfg.nz_local, cfg.nx, cfg.ny)


KERNEL_CALLS = {
    "stencil_planes": _stencil_call,
    "gsrb": _gsrb_call,
    "setup_problem": _setup_problem_call,
}


@pytest.mark.parametrize("kernel, blocks", [("stencil_planes", 1.1),
                                            ("gsrb", 2.1),
                                            ("setup_problem", 3.0)])
def test_kernel_peak_numpy_bytes(kernel, blocks):
    call, block = KERNEL_CALLS[kernel]()
    block_bytes = 8 * int(np.prod(block))
    assert _peak_bytes(call) <= blocks * block_bytes


# ----------------------------------------------------------------------
# the GEO stencil leg (docs/sim-internals.md, "Memory of the stencil leg")
# ----------------------------------------------------------------------
GEO_ORACLE = GeoConfig(nx=64, ny=64, nz=16, timesteps=4)
GEO_RUN = GeoConfig(nx=32, ny=32, nz=16, timesteps=2)


def test_stencil_leg_oracle_peak_bytes():
    """``check_result`` on 8 correct rank slabs: the reference grid and
    slab-sized scratch (4.13 global grids at b39cff0)."""
    nranks = 8
    slabs = np.split(reference_solution(GEO_ORACLE, nranks), nranks)
    grid_bytes = 8 * nranks * GEO_ORACLE.cells_per_rank()
    assert _peak_bytes(lambda: check_result(GEO_ORACLE, slabs)) <= (
        1.5 * grid_bytes)


def _geo_run(variant):
    cluster = ClusterConfig(nodes=4, workers_per_rank=2,
                            machine=machine("titan"))
    return spmd_run(geo_main(variant, GEO_RUN), cluster,
                    module_factories=[mpi_factory(), cuda_factory()])


@pytest.mark.parametrize("variant", ["hiper", "mpi_cuda"])
def test_stencil_leg_frees_device_buffers(variant):
    res = _geo_run(variant)
    check_result(GEO_RUN, res.results)
    devices = [dev for ctx in res.contexts
               for dev in ctx.runtime.module("cuda").devices]
    assert len(devices) == res.nranks
    assert all(not dev._live and dev.mem_used == 0 for dev in devices)


def test_stencil_leg_hiper_run_keeps_only_results():
    """What a finished ``hiper`` run still holds: each rank's result and
    none of its host or device slabs (3.09 slabs per rank at b39cff0)."""
    gc.collect()
    tracemalloc.start()
    try:
        res = _geo_run("hiper")
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    slab_bytes = 8 * (GEO_RUN.nz + 2) * GEO_RUN.plane_cells
    assert held <= 1.5 * slab_bytes * res.nranks


# ----------------------------------------------------------------------
# the ISx all-to-all (docs/comm-internals.md, "What a message in flight
# holds")
# ----------------------------------------------------------------------
ISX_A2A = IsxConfig(keys_per_pe=1 << 8, byte_scale=1 << 7)
ISX_ORACLE = IsxConfig(keys_per_pe=1 << 12)


def _isx_a2a(main):
    """A flat ISx all-to-all on 4 Titan nodes x 16 core-PEs."""
    cluster = ClusterConfig(nodes=4, ranks_per_node=16, workers_per_rank=1,
                            machine=machine("titan"))
    return spmd_run(main, cluster,
                    module_factories=[shmem_factory(direct=True)])


def test_isx_a2a_peak_bytes_per_message():
    """The most a flat run holds at once past its set-up (every rank is
    built before the first main starts), per message the fabric priced:
    381 B at dbc9a93, which kept every consumed reservation future and a
    boxed pairwise-FIFO entry per pair."""
    inner = isx_main("flat", ISX_A2A)
    built = []

    def main(ctx):
        if not built:
            built.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
        return (yield from inner(ctx))

    gc.collect()
    tracemalloc.start()
    try:
        res = _isx_a2a(main)
        peak = tracemalloc.get_traced_memory()[1] - built[0]
    finally:
        tracemalloc.stop()
    validate_isx(ISX_A2A, res.nranks, res.results)
    assert peak <= 340 * res.fabric.messages_sent


def test_isx_a2a_pair_table_is_one_flat_array():
    """After the all-to-all the pairwise-FIFO table is one object of 8·n²
    bytes that refers to no other object but its type (at dbc9a93 a dict
    of 147 544 bytes, with a boxed key and a boxed float per pair used)."""
    res = _isx_a2a(isx_main("flat", ISX_A2A))
    n, table = res.nranks, res.fabric._pair_last
    assert sys.getsizeof(table) <= 8 * n * n + 128
    assert gc.get_referents(table) == [type(table)]
    assert memoryview(table).nbytes == 8 * n * n


def test_isx_oracle_peak_bytes():
    """``validate_isx`` on 64 correct PE results: one sorted copy of the
    input and one rank's generated keys (3.00 global key sets at dbc9a93,
    which sorted a concatenation of the results and of the input)."""
    npes = 64
    results = _sorted_buckets(ISX_ORACLE, npes)
    key_set_bytes = 8 * npes * ISX_ORACLE.keys_per_pe
    assert _peak_bytes(lambda: validate_isx(ISX_ORACLE, npes, results)) <= (
        1.5 * key_set_bytes)
