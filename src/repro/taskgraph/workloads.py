"""Task-graph workloads: the DAG-ported ISx sort plus the bench shapes.

Three families:

- :func:`isx_dag_workload` — the hand-wired-futures ISx bucket sort from
  :mod:`repro.verify.differential` re-expressed as declared accesses. It
  returns the **identical digest tuple** (``("isx", size, sha256)``) so the
  DAG-vs-futures differential can compare them bit-for-bit: same kernels,
  same data, only the dependency wiring differs.
- :func:`reduction_workload` — K producers of wildly different costs
  folding into one accumulator. With ``commute=True`` the folds take a
  ``commute`` access on the accumulator (readiness-order, serialized);
  with ``commute=False`` they take ``write`` accesses (submission-order
  chain). The sum is order-independent, so both digests match while the
  makespans differ — the commute-reordering bake-off shape.
- :func:`hetero_workload` — chains alternating a large kernel (cheap on
  the GPU variant, expensive on CPU) and a small fix-up step (cheap on
  CPU, launch-overhead-dominated on GPU). Run under ``policy="dmda"`` the
  cost model learns to split variants across devices; under help-first
  everything stays on the CPU — the cost-model-placement bake-off shape.

Every root returns ``(tag, ..., digest)`` tuples that are engine- and
policy-independent, so the same factories feed the differential harness,
the tests, and the bench suite. Virtual makespans are read off the
executor by the caller.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Optional, Tuple

import numpy as np

from repro.apps.isx.common import (IsxConfig, generate_keys, local_sort,
                                   route_keys)
from repro.taskgraph.cost import TaskImpl
from repro.taskgraph.graph import TaskGraph

__all__ = ["isx_dag_workload", "reduction_workload", "hetero_workload"]


def isx_dag_workload(cfg: Optional[IsxConfig] = None, nbuckets: int = 8,
                     *, policy: Any = "help-first") -> Callable[[], Tuple]:
    """ISx bucket sort with graph-inferred dependencies.

    Partition tasks read the key array (grouped by bucket once, up front,
    by the ISx apps' stable ``route_keys``) and write one bucket slice
    each; sort
    tasks read a bucket and write its sorted image; the concatenation
    reads every sorted bucket. No future is wired by hand — every edge is
    inferred from the declared accesses. Digest-tuple-compatible with
    :func:`repro.verify.differential.isx_workload`.
    """
    cfg = cfg or IsxConfig(keys_per_pe=1 << 11)

    def root() -> Tuple:
        keys = generate_keys(cfg, 0, 1)
        grouped, counts = route_keys(cfg, nbuckets, keys)
        bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
        g = TaskGraph(name="isx-dag", policy=policy)
        keys_h = g.handle(grouped, name="keys")
        buckets = [g.handle(None, name=f"bucket{b}") for b in range(nbuckets)]
        sorted_h = [g.handle(None, name=f"sorted{b}") for b in range(nbuckets)]
        out_h = g.handle(None, name="out")

        def partition(b: int) -> Callable[[], None]:
            def body() -> None:
                buckets[b].data = keys_h.data[bounds[b]:bounds[b + 1]]
            return body

        def sort(b: int) -> Callable[[], None]:
            def body() -> None:
                sorted_h[b].data = local_sort(buckets[b].data)
            return body

        def concat() -> None:
            out_h.data = np.concatenate([h.data for h in sorted_h])

        for b in range(nbuckets):
            g.submit(partition(b), read=[keys_h], write=[buckets[b]],
                     kind="isx-partition", name=f"isx-partition-{b}")
        for b in range(nbuckets):
            g.submit(sort(b), read=[buckets[b]], write=[sorted_h[b]],
                     kind="isx-sort", name=f"isx-sort-{b}")
        g.submit(concat, read=list(sorted_h), write=[out_h], kind="isx-concat")
        g.wait()
        out = out_h.data
        if not np.array_equal(out, np.sort(keys)):
            raise AssertionError("DAG bucketed sort diverged from np.sort")
        return ("isx", int(out.size),
                hashlib.sha256(out.tobytes()).hexdigest())

    root.__name__ = "isx_dag_sort"
    return root


def reduction_workload(nproducers: int = 12, *, commute: bool = True,
                       policy: Any = "help-first",
                       base_cost: float = 2e-4) -> Callable[[], Tuple]:
    """K unequal producers folding into one accumulator.

    Producer ``i`` charges ``base_cost * (nproducers - i)`` — the earliest
    submissions are the slowest — so submission order and completion order
    disagree maximally. The fold is an order-independent sum, so the
    digest is identical either way; the makespan is not: commute folds
    start as soon as *their* producer lands, while the write chain stalls
    behind producer 0.
    """

    def root() -> Tuple:
        g = TaskGraph(name=f"reduce-{'commute' if commute else 'ordered'}",
                      policy=policy)
        slots = [g.handle(None, name=f"slot{i}") for i in range(nproducers)]
        acc = g.handle(np.zeros(1, dtype=np.int64), name="acc")

        def produce(i: int) -> Callable[[], None]:
            def body() -> None:
                slots[i].data = np.full(8, i + 1, dtype=np.int64)
            return body

        def fold(i: int) -> Callable[[], None]:
            def body() -> None:
                acc.data[0] += int(slots[i].data.sum())
            return body

        for i in range(nproducers):
            g.submit(produce(i), write=[slots[i]], kind="reduce-produce",
                     cost=base_cost * (nproducers - i),
                     name=f"produce-{i}")
        for i in range(nproducers):
            mode = {"commute": [acc]} if commute else {"write": [acc]}
            g.submit(fold(i), read=[slots[i]], kind="reduce-fold",
                     cost=base_cost / 4, name=f"fold-{i}", **mode)
        g.wait()
        total = int(acc.data[0])
        return ("reduce", nproducers, total, int(g.commute_reorders > 0))

    root.__name__ = f"reduction_{'commute' if commute else 'ordered'}"
    return root


def hetero_workload(nchains: int = 4, depth: int = 6, *,
                    policy: Any = "help-first",
                    big_cpu: float = 4e-3, big_gpu: float = 5e-4,
                    small_cpu: float = 1e-4, small_gpu: float = 2e-3
                    ) -> Callable[[], Tuple]:
    """Chains alternating big kernels and small fix-ups, each with a CPU
    and a GPU implementation of very different declared costs.

    The computation itself is implementation-independent (both variants of
    a step apply the same update), so the digest is policy-invariant; the
    makespan rewards a scheduler that offloads the big kernels and keeps
    the small steps on the CPU.
    """

    def root() -> Tuple:
        g = TaskGraph(name="hetero", policy=policy)
        states = [g.handle(np.arange(256, dtype=np.int64) + c, name=f"chain{c}")
                  for c in range(nchains)]

        def big_step(c: int) -> Callable[[], None]:
            def body() -> None:
                s = states[c].data
                states[c].data = (s * 31 + 7) % 1000003
            return body

        def small_step(c: int) -> Callable[[], None]:
            def body() -> None:
                states[c].data += 1
            return body

        for _ in range(depth):
            for c in range(nchains):
                fn = big_step(c)
                g.submit(fn, read=[], write=[states[c]], kind="hetero-big",
                         name=f"big-{c}",
                         impls=[TaskImpl(fn, "cpu", big_cpu),
                                TaskImpl(fn, "gpu", big_gpu)])
                fn2 = small_step(c)
                g.submit(fn2, write=[states[c]], kind="hetero-small",
                         name=f"small-{c}",
                         impls=[TaskImpl(fn2, "cpu", small_cpu),
                                TaskImpl(fn2, "gpu", small_gpu)])
        g.wait()
        h = hashlib.sha256()
        for s in states:
            h.update(s.data.tobytes())
        return ("hetero", nchains * depth * 2, h.hexdigest())

    root.__name__ = "hetero_chains"
    return root
