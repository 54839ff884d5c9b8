"""Task-graph benchmarks: cost-model placement and commute reordering.

Two bake-offs, each a recorded pair whose headline lives in ``extra_info``
as *virtual makespans* (the DES clock is the quantity the policies
compete on; wall time just measures the graph machinery's overhead):

- **dmda vs. help-first** (the CI perf-smoke pair): the hetero chains
  workload — big kernels cheap on the GPU variant, small fix-ups cheap on
  CPU — under the calibrating dmda policy vs. the CPU-only help-first
  baseline. Digests must match; ``virtual_makespan`` must show dmda
  beating help-first (the cost model learned the split).

- **commute vs. ordered**: K producers of maximally unequal costs folding
  into one accumulator, with ``commute`` vs. ``write`` accesses on the
  fold. Same sum either way; the commuted run's folds start in readiness
  order and drain the pipeline faster. Recorded at 12 folds (the makespan
  headline) and at 2 000 (the CI perf-smoke pair: bookkeeping that grows
  faster than the run — a per-grant rescan once made the commute side 1.3x
  the ordered one here, 2.6x at 6 000 folds — shows as a wall-time gap
  that 12 folds cannot reveal).

The hetero pair and the 2 000-fold pair carry the ``perf_smoke`` marker
CI runs. Run under plain pytest-benchmark (``--benchmark-json=<file>``, or
``--benchmark-autosave`` then ``--benchmark-compare``);
``BENCH_taskgraph.json`` is the frozen history of earlier runs.
"""

import pytest

from repro.exec.sim import SimExecutor
from repro.platform.hwloc import discover, machine
from repro.runtime.runtime import HiperRuntime
from repro.taskgraph import hetero_workload, reduction_workload


def _run(workload):
    ex = SimExecutor()
    model = discover(machine("workstation"), num_workers=4,
                     with_interconnect=False)
    rt = HiperRuntime(model, ex).start()
    try:
        result = rt.run(workload, name="bench-taskgraph")
    finally:
        rt.shutdown()
        ex.shutdown()
    return result, ex.makespan()


# ---------------------------------------------------------------------------
# placement: dmda vs. help-first on the hetero chains
# ---------------------------------------------------------------------------
def _bench_hetero(benchmark, policy):
    last = {}

    def run():
        result, makespan = _run(hetero_workload(nchains=4, depth=6,
                                                policy=policy))
        last["digest"], last["makespan"] = result[2], makespan

    benchmark.pedantic(run, rounds=10, iterations=1, warmup_rounds=1)
    benchmark.extra_info.update(
        policy=policy, digest=last["digest"],
        virtual_makespan=last["makespan"])


@pytest.mark.perf_smoke
def test_taskgraph_hetero_help_first(benchmark):
    _bench_hetero(benchmark, "help-first")


@pytest.mark.perf_smoke
def test_taskgraph_hetero_dmda(benchmark):
    _bench_hetero(benchmark, "dmda")


# ---------------------------------------------------------------------------
# commute: readiness-order folds vs. the submission-order write chain
# ---------------------------------------------------------------------------
def _bench_reduce(benchmark, commute, nproducers=12, rounds=10):
    last = {}

    def run():
        result, makespan = _run(reduction_workload(nproducers=nproducers,
                                                   commute=commute))
        last["total"], last["reordered"] = result[2], result[3]
        last["makespan"] = makespan

    benchmark.pedantic(run, rounds=rounds, iterations=1, warmup_rounds=1)
    benchmark.extra_info.update(
        commute=commute, folds=nproducers, total=last["total"],
        reordered=last["reordered"], virtual_makespan=last["makespan"])


def test_taskgraph_reduce_ordered(benchmark):
    _bench_reduce(benchmark, commute=False)


def test_taskgraph_reduce_commute(benchmark):
    _bench_reduce(benchmark, commute=True)


@pytest.mark.perf_smoke
def test_taskgraph_reduce_ordered_2000(benchmark):
    _bench_reduce(benchmark, commute=False, nproducers=2000, rounds=5)


@pytest.mark.perf_smoke
def test_taskgraph_reduce_commute_2000(benchmark):
    _bench_reduce(benchmark, commute=True, nproducers=2000, rounds=5)
