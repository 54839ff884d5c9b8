"""One SPMD program on every back end ``spmd_run`` can select.

``TestConformance`` runs the same SHMEM program (put, fetch-add, barrier,
reduce) in-process, across two OS-process shards, and one OS process per
rank on both launchers, and holds all four to one contract: equal results,
one :class:`SpmdResult` type, wall time, virtual time except on procs, and
merged ``shmem.*`` counters. A failing rank surfaces as one ``ConfigError``
under one rule everywhere; the out-of-process back ends append the remote
traceback. ``TestRefusals`` is the capability rule spmd_run checks before
any child starts: fault injection runs in-process only.

Mains are module-level so the ``subprocess`` launcher can pickle them (the
exec'd child imports ``tests.test_spmd_backends`` from the repository root).
"""

import numpy as np
import pytest

from repro.distrib.spmd import ClusterConfig, SpmdResult, spmd_run
from repro.exec.procs import ProcessExecutor
from repro.exec.sim import SimExecutor
from repro.resilience import FaultInjector, FaultPlan
from repro.shmem import shmem_factory
from repro.shmem.shared import leaked_segments
from repro.util.errors import ConfigError
from tests.procutil import child_pids

NRANKS = 3


def shmem_program(ctx):
    """Ring put, fetch-add on rank 0, barriers, and an allreduce."""
    sh = ctx.shmem
    me, n = ctx.rank, ctx.nranks
    ring = sh.malloc((n,), dtype=np.int64, fill=0)
    counter = sh.malloc((1,), dtype=np.int64, fill=0)
    yield sh.barrier_all_async()
    yield sh.put_async(ring, np.asarray([100 + me], dtype=np.int64),
                       (me + 1) % n, offset=me)
    yield sh.atomic_fetch_add_async(counter, me + 1, 0)
    yield sh.quiet_async()
    yield sh.barrier_all_async()
    got = [int(x) for x in np.asarray((yield sh.get_async(ring, me)))]
    count = int((yield sh.get_async(counter, 0))[0])
    total = yield sh.reduce_async(sum(got), lambda a, b: a + b)
    yield sh.barrier_all_async()
    return (me, got, count, int(total))


def failing_program(ctx):
    """Every rank passes the barrier; then rank 1 raises."""
    yield ctx.shmem.barrier_all_async()
    if ctx.rank == 1:
        raise ValueError("rank 1 gives up")
    return ctx.rank


BACKENDS = {
    "in-process": lambda: SimExecutor(),
    "shards=2": lambda: SimExecutor(shards=2),
    "procs-local": lambda: ProcessExecutor(launcher="local", timeout=60.0),
    "procs-subprocess": lambda: ProcessExecutor(launcher="subprocess",
                                                timeout=90.0),
}


def _run(main, backend, **kw):
    return spmd_run(main, ClusterConfig(nodes=NRANKS),
                    module_factories=[shmem_factory()],
                    executor=BACKENDS[backend](), **kw)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
class TestConformance:
    def test_one_result_on_every_back_end(self, backend):
        res = _run(shmem_program, backend)
        assert type(res) is SpmdResult
        n = NRANKS
        want = []
        for r in range(n):
            left = (r - 1) % n   # whose put landed here, at its own offset
            want.append((r, [100 + left if i == left else 0 for i in range(n)],
                         n * (n + 1) // 2, sum(100 + p for p in range(n))))
        assert res.results == want
        assert res.nranks == NRANKS
        assert res.wall_s > 0
        assert (res.makespan is None) == backend.startswith("procs")
        assert res.counters["shmem.puts"] == NRANKS
        assert res.merged_stats().counter("shmem", "puts") == NRANKS

    def test_a_failing_rank_is_reported_one_way(self, backend):
        before = child_pids()
        with pytest.raises(ConfigError, match=r"^1 rank\(s\) failed; first "
                           r"failure on rank 1: ValueError: rank 1 gives up"
                           ) as ei:
            _run(failing_program, backend)
        text = str(ei.value)
        remote = backend != "in-process"
        assert ("\n--- rank 1 traceback ---\n" in text) == remote
        assert ("in failing_program" in text) == remote
        assert child_pids() == before and leaked_segments() == []


@pytest.mark.parametrize("backend", ["shards=2", "procs-local"])
class TestRefusals:
    def test_fault_injection_is_refused_before_any_child_starts(
            self, backend):
        before = child_pids()
        injector = FaultInjector(FaultPlan.preset("drop"))
        with pytest.raises(ConfigError, match=rf"fault injection runs "
                           rf"in-process only, not on the "
                           rf"{backend.split('-')[0]} back end"):
            _run(shmem_program, backend, fault_injector=injector)
        assert child_pids() == before and leaked_segments() == []
