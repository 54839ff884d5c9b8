"""Runtime micro-benchmarks (the overheads behind paper §II's design and the
tooling discussion in §V): task spawn/dispatch, future satisfaction chains,
steal throughput, and taskified-communication round trips.

These measure REAL wall time of the framework machinery (ops/second of the
Python implementation) — unlike the figure benches, where the science is in
virtual time. The spawn/join storm and the future chain carry the
``perf_smoke`` marker CI runs; ``BENCH_scheduler.json`` is the frozen history
of earlier runs.
"""

import numpy as np
import pytest

from repro.exec.sim import SimExecutor
from repro.exec.threaded import ThreadedExecutor
from repro.platform import discover, machine
from repro.runtime.api import async_, async_future, finish, forasync
from repro.runtime.future import Promise
from repro.runtime.runtime import HiperRuntime

N_TASKS = 2000


def _sim_rt(workers=4):
    ex = SimExecutor()
    model = discover(machine("workstation"), num_workers=workers)
    return HiperRuntime(model, ex).start()


@pytest.mark.perf_smoke
def test_spawn_and_join_throughput_sim(benchmark):
    rt = _sim_rt()

    def run():
        rt.run(lambda: finish(
            lambda: [async_(lambda: None) for _ in range(N_TASKS)]))

    benchmark(run)
    benchmark.extra_info["tasks_per_call"] = N_TASKS


def test_spawn_and_join_throughput_sim_w16(benchmark):
    """Same spawn/join storm at 16 workers: stresses worker selection and
    the steal/wake machinery, where per-dispatch O(W) costs dominate."""
    rt = _sim_rt(workers=16)

    def run():
        rt.run(lambda: finish(
            lambda: [async_(lambda: None) for _ in range(N_TASKS)]))

    benchmark(run)
    benchmark.extra_info["tasks_per_call"] = N_TASKS
    benchmark.extra_info["workers"] = 16


@pytest.mark.perf_smoke
def test_future_chain_throughput_sim(benchmark):
    rt = _sim_rt(workers=1)

    def run():
        def main():
            f = async_future(lambda: 0)
            for _ in range(500):
                f = async_future(lambda: 1)
            return f.get()

        rt.run(main)

    benchmark(run)
    benchmark.extra_info["chain_length"] = 500


def test_forasync_chunking_throughput_sim(benchmark):
    rt = _sim_rt()
    data = np.zeros(1 << 14)

    def run():
        rt.run(lambda: finish(lambda: forasync(
            range(0, data.size, 64),
            lambda i: data[i : i + 64].sum(), chunks=64)))

    benchmark(run)


def test_spawn_and_join_armed_injector_sim(benchmark):
    """No-fault resilience overhead: the same spawn/join storm as
    test_spawn_and_join_throughput_sim, but with a FaultInjector armed whose
    one task rule never matches. Measures what the fault hook and redirect
    checks cost on the hot path when nothing is actually injected — compare
    the two benches in the ledger to see the tax."""
    from repro.resilience import FaultInjector, FaultPlan

    rt = _sim_rt()
    plan = FaultPlan.from_spec({
        "seed": 0,
        "faults": [{"kind": "task_fail", "name": "never-spawned"}],
    })
    FaultInjector(plan).attach(rt.executor)

    def run():
        rt.run(lambda: finish(
            lambda: [async_(lambda: None) for _ in range(N_TASKS)]))

    benchmark(run)
    benchmark.extra_info["tasks_per_call"] = N_TASKS
    benchmark.extra_info["injector"] = "armed, zero matching rules"


def test_promise_callback_overhead(benchmark):
    def run():
        for _ in range(1000):
            p = Promise()
            p.get_future().on_ready(lambda f: None)
            p.put(1)

    benchmark(run)
    benchmark.extra_info["promises_per_call"] = 1000


def test_steal_path_search_overhead(benchmark):
    """Cost of one pop/steal round over a full-detail platform."""
    from repro.runtime.worker import find_task

    ex = SimExecutor()
    model = discover(machine("edison"), num_workers=8, detail="full")
    rt = HiperRuntime(model, ex).start()
    worker = rt.workers[3]

    def run():
        for _ in range(1000):
            find_task(worker)  # empty deques: full path scan

    benchmark(run)
    benchmark.extra_info["searches_per_call"] = 1000


def test_spawn_and_join_throughput_threads(benchmark):
    ex = ThreadedExecutor(block_timeout=30.0)
    model = discover(machine("workstation"), num_workers=4,
                     with_interconnect=False)
    rt = HiperRuntime(model, ex).start()

    def run():
        rt.run(lambda: finish(
            lambda: [async_(lambda: None) for _ in range(200)]))

    benchmark(run)
    ex.shutdown()
    benchmark.extra_info["tasks_per_call"] = 200
