"""Communication-path micro-benchmarks (the overheads behind the comm-stack
overhaul: message coalescing, polling sweeps).

These measure REAL wall time of the framework machinery — ops/second of the
Python implementation — not virtual time. The headline pair is
``test_small_put_per_message`` vs. ``test_small_put_coalesced``: identical
workloads (small SHMEM puts to remote PEs), one paying a fabric event + mux
dispatch per message, the other per *batch*. The ISx pair repeats the
comparison end-to-end on the Fig. 5 bucket-exchange benchmark at 8 ranks.

The pair carries the ``perf_smoke`` marker CI runs. Run under plain
pytest-benchmark (``--benchmark-json=<file>``, or ``--benchmark-autosave``
then ``--benchmark-compare`` for before/after); ``BENCH_comm.json`` is the
frozen history of earlier runs.
"""

import numpy as np
import pytest

from repro.apps.isx import IsxConfig, isx_main, validate_isx
from repro.apps.presets import comm_coalesce
from repro.bench.harness import cluster_for
from repro.distrib import spmd_run
from repro.exec.sim import SimExecutor
from repro.net.costmodel import NetworkModel
from repro.net.fabric import SimFabric
from repro.net.mux import FabricMux
from repro.platform import discover, machine
from repro.runtime.future import Promise
from repro.runtime.polling import PollingService
from repro.runtime.runtime import HiperRuntime
from repro.shmem import shmem_factory
from repro.shmem.backend import ShmemBackend
from repro.shmem.heap import SignatureTable, SymmetricHeap

N_PUTS = 4000
PUT_ELEMS = 8  # 64-byte payloads: the fine-grained PGAS regime


def _shmem_world(n=2):
    """Raw backend world (no runtime): SimExecutor + fabric + per-PE
    backends, the same harness the backend unit tests use."""
    ex = SimExecutor()
    fab = SimFabric(ex, n, NetworkModel())
    sigs = SignatureTable()
    peers: dict = {}
    backends = []
    for r in range(n):
        mux = FabricMux(fab, r)
        heap = SymmetricHeap(r, shared_signatures=sigs)
        backends.append(ShmemBackend(mux, r, heap, peers))
    windows = [b.heap.allocate(PUT_ELEMS, dtype=np.int64) for b in backends]
    return ex, backends, windows


@pytest.mark.perf_smoke
def test_small_put_per_message(benchmark):
    """Baseline: every put is one fabric transmit + one mux dispatch."""
    ex, backends, windows = _shmem_world()
    data = np.arange(PUT_ELEMS, dtype=np.int64)

    def run():
        for _ in range(N_PUTS):
            backends[0].put(windows[1], data, 1)
        ex.drain()

    run()  # warm up; timed rounds then run steady-state
    benchmark(run)
    benchmark.extra_info["puts_per_call"] = N_PUTS
    benchmark.extra_info["payload_bytes"] = int(data.nbytes)


@pytest.mark.perf_smoke
def test_small_put_coalesced(benchmark):
    """Same puts, coalesced: one transmit/dispatch per 32-message batch."""
    ex, backends, windows = _shmem_world()
    backends[0].enable_coalescing(comm_coalesce())
    data = np.arange(PUT_ELEMS, dtype=np.int64)

    def run():
        for _ in range(N_PUTS):
            backends[0].put(windows[1], data, 1)
        backends[0].mux.flush("shmem")
        ex.drain()

    run()  # warm up; timed rounds then run steady-state
    benchmark(run)
    benchmark.extra_info["puts_per_call"] = N_PUTS
    benchmark.extra_info["payload_bytes"] = int(data.nbytes)
    co = backends[0].mux.coalescer("shmem")
    benchmark.extra_info["batches_sent"] = co.batches_sent
    benchmark.extra_info["msgs_coalesced"] = co.msgs_coalesced


def test_polling_sweep_cost(benchmark):
    """Cost of one polling sweep over a pending list that completes
    nothing."""
    ex = SimExecutor()
    model = discover(machine("workstation"), num_workers=2)
    rt = HiperRuntime(model, ex).start()
    svc = PollingService(rt, rt.interconnect, module="mpi")
    for _ in range(256):
        svc._pending.append((lambda: (False, None), Promise()))

    def run():
        for _ in range(100):
            svc._sweep()

    benchmark(run)
    benchmark.extra_info["pending_ops"] = 256
    benchmark.extra_info["sweeps_per_call"] = 100


def _isx_8rank(coalesce):
    cfg = IsxConfig(keys_per_pe=1 << 10, byte_scale=1 << 7)
    factory = (shmem_factory(coalesce=comm_coalesce()) if coalesce
               else shmem_factory())
    cluster = cluster_for("titan", 8, layout="hybrid", workers_cap=2)
    res = spmd_run(isx_main("hiper", cfg), cluster,
                   module_factories=[factory])
    validate_isx(cfg, res.nranks, res.results)
    return res


def test_isx_exchange_8rank_per_message(benchmark):
    """End-to-end Fig. 5 ISx (hiper variant, 8 ranks), per-message comms."""
    res = benchmark(_isx_8rank, False)
    benchmark.extra_info["ranks"] = 8
    benchmark.extra_info["virtual_makespan_s"] = res.makespan
    benchmark.extra_info["fabric_messages"] = res.fabric.messages_sent


def test_isx_exchange_8rank_coalesced(benchmark):
    """Same run with the shmem channel coalesced (comm_coalesce preset)."""
    res = benchmark(_isx_8rank, True)
    benchmark.extra_info["ranks"] = 8
    benchmark.extra_info["virtual_makespan_s"] = res.makespan
    benchmark.extra_info["fabric_messages"] = res.fabric.messages_sent
