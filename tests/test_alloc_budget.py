"""Allocation budget of the completion path (docs/sim-internals.md).

CPython's cyclic collector walks every GC-tracked object it has not yet
promoted, and walks the whole heap again at each 25 % of growth, so what an
operation *in flight* costs is the number of tracked objects it holds — and a
reference cycle among them keeps all of it alive until a full pass. These
tests count tracked objects by type around operations that have been issued
and not yet driven; the bounds leave one object of slack per operation for
interpreter versions that track a tuple or a bound method differently.

Fails at 958b3d5: a put in flight held 22 tracked objects (bound 10), a
fetching AMO 13 (bound 7), a completed future 4 (bound 2), a scalar transmit
made three closures, and every future ever made waited for the collector.
"""

import collections
import gc

import numpy as np
import pytest

from repro.apps.isx import IsxConfig, isx_main, validate_isx
from repro.distrib.spmd import ClusterConfig, spmd_run
from repro.exec.sim import SimExecutor
from repro.net import FabricMux, NetworkModel, SimFabric
from repro.shmem import ShmemBackend, shmem_factory
from repro.shmem.heap import SignatureTable, SymmetricHeap

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


@pytest.mark.parametrize("op, in_flight", [("put", 10), ("amo-fetch", 7),
                                           ("amo", 8)])
def test_tracked_objects_per_operation(op, in_flight, collector_off):
    ex, _, pe, sym = _world()
    issue = OPS[op]
    warm = [issue(pe, sym) for _ in range(10)]  # slab growth, pool classes
    ex.drain()
    del warm
    before = _census()
    futures = [issue(pe, sym) for _ in range(N)]
    flying = _census() - before
    assert sum(flying.values()) <= in_flight * N + 50, flying
    ex.drain()
    assert all(f.satisfied for f in futures)
    held = _census() - before
    # The application still holds every future: one object each.
    assert sum(held.values()) <= 2 * N + 50, held


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
