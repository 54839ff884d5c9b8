"""SPMD digest workloads: the differential's apps over a *real* fabric.

The single-runtime workloads in :mod:`repro.verify.differential` express
ISx/UTS/Graph500 as finish/async fan-outs inside one runtime. These are the
same computations written as SPMD ``main(ctx)`` programs over the SHMEM
module — one-sided puts, fetch-add cursors, collectives — so the whole
protocol stack is in the checked loop. Each workload is constructed so its
digest is *identical* to the single-runtime version's digest:

- **ISx** — the global key array is strided across ranks, exchanged into
  range buckets by fetch-add + put, sorted locally; concatenating the rank
  buckets in rank order *is* ``np.sort`` of the global array, which is what
  the single-runtime workload hashes.
- **UTS** — the root's child subtrees are strided across ranks, each
  counted locally, summed with an allreduce; the total is the sequential
  node count the single-runtime workload reports.
- **Graph500** — the graph is replicated (Kronecker generation is
  deterministic), frontier chunks are strided across ranks, candidate edges
  allgathered per level and merged *in chunk order* on every rank — the
  same first-claim-wins order the single-runtime merge uses, so the parent
  arrays (and their hashes) agree bit-for-bit.

Because the multiprocess backend's digests can be compared against the
simulator's and the thread pool's, a divergence isolates a bug in the procs
mechanism (fabric framing, shared-memory heap, completion acks) — the
workload math is pinned by the other two engines.

Each factory returns a ``functools.partial`` of a module-level main, so
every launcher — the pickling ``subprocess`` one included — can ship it.
:func:`run_spmd_workload` runs one on whichever back end its executor
selects.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.apps.graph500.common import (
    Graph500Config,
    build_csr,
    kronecker_edges,
    pick_root,
    validate_bfs,
)
from repro.apps.isx.common import IsxConfig, generate_keys, local_sort
from repro.apps.uts.common import UtsConfig, children, root_node
from repro.verify.differential import bfs_expand, bfs_merge

__all__ = [
    "SPMD_WORKLOADS",
    "isx_spmd_factory",
    "isx_exchange_factory",
    "uts_spmd_factory",
    "graph500_spmd_factory",
    "isx_combine",
    "uts_combine",
    "graph500_combine",
    "run_spmd_workload",
]


# ----------------------------------------------------------------------
# ISx: key exchange via fetch-add cursor + one-sided puts
# ----------------------------------------------------------------------
def isx_spmd_factory(**cfg_kwargs) -> Callable:
    """SPMD bucket sort; combine with :func:`isx_combine`."""
    cfg_kwargs.setdefault("keys_per_pe", 1 << 11)
    return functools.partial(isx_spmd_main, IsxConfig(**cfg_kwargs))


def isx_spmd_main(cfg: IsxConfig, ctx):
    sh = ctx.shmem
    me, n = ctx.rank, ctx.nranks
    keys = generate_keys(cfg, 0, 1)   # the single-runtime global array
    mine = keys[me::n]                # this rank's stride of it
    width = (cfg.max_key + n - 1) // n
    recv = sh.malloc((int(keys.size),), dtype=np.int64, fill=0)
    cursor = sh.malloc((1,), dtype=np.int64, fill=0)
    yield sh.barrier_all_async()
    for dest in range(n):
        lo, hi = dest * width, (dest + 1) * width
        sel = mine[(mine >= lo) & (mine < hi)]
        if sel.size == 0:
            continue
        idx = yield sh.atomic_fetch_add_async(cursor, int(sel.size), dest)
        yield sh.put_async(recv, np.ascontiguousarray(sel), dest, int(idx))
    yield sh.quiet_async()
    yield sh.barrier_all_async()
    cnt = int((yield sh.get_async(cursor, me))[0])
    bucket = np.asarray((yield sh.get_async(recv, me, 0, cnt)))
    out = local_sort(bucket)
    yield sh.barrier_all_async()
    return np.asarray(out)


def isx_combine(results: List[Any]) -> Tuple:
    out = np.concatenate([np.asarray(r, dtype=np.int64) for r in results])
    return ("isx", int(out.size), hashlib.sha256(out.tobytes()).hexdigest())


def isx_exchange_factory(**cfg_kwargs) -> Callable:
    """Weak-scaling ISx for the procs *benchmark* (not the differential).

    Unlike :func:`isx_spmd_factory` — which replicates the global key array
    on every rank so its digest matches the single-runtime workload — this
    is the paper's actual Fig. 5 shape: each PE generates its *own*
    ``keys_per_pe`` keys (per-rank streams), single-pass bucket-routes them
    by value, and sorts what it receives. Per-rank compute is O(keys_per_pe)
    regardless of rank count, so aggregate throughput (keys/s) measures the
    backend's real parallel scaling. Returns ``(count, sha16)`` per rank —
    deliberately small, so result pickling stays off the measured path.
    """
    cfg_kwargs.setdefault("keys_per_pe", 1 << 20)
    cfg = IsxConfig(**cfg_kwargs)

    def main(ctx):
        sh = ctx.shmem
        me, n = ctx.rank, ctx.nranks
        mine = generate_keys(cfg, me, n)
        width = (cfg.max_key + n - 1) // n
        window = int(cfg.keys_per_pe * cfg.slack) + 64
        recv = sh.malloc((window,), dtype=np.int64, fill=0)
        cursor = sh.malloc((1,), dtype=np.int64, fill=0)
        dest = mine // width
        order = np.argsort(dest, kind="stable")
        routed = mine[order]
        bounds = np.searchsorted(dest[order], np.arange(n + 1))
        yield sh.barrier_all_async()
        for d in range(n):
            sel = routed[bounds[d]:bounds[d + 1]]
            if sel.size == 0:
                continue
            idx = yield sh.atomic_fetch_add_async(cursor, int(sel.size), d)
            yield sh.put_async(recv, np.ascontiguousarray(sel), d, int(idx))
        yield sh.quiet_async()
        yield sh.barrier_all_async()
        cnt = int((yield sh.get_async(cursor, me, 0, 1))[0])
        out = local_sort(np.asarray(recv.arr[:cnt]))
        yield sh.barrier_all_async()
        return (int(out.size),
                hashlib.sha256(out.tobytes()).hexdigest()[:16])

    main.__name__ = "isx_exchange_main"
    return main


# ----------------------------------------------------------------------
# UTS: strided subtree counts + allreduce
# ----------------------------------------------------------------------
def _subtree_count(cfg: UtsConfig, node) -> int:
    stack = [node]
    count = 0
    while stack:
        count += 1
        stack.extend(children(cfg, stack.pop()))
    return count


def uts_spmd_factory(**cfg_kwargs) -> Callable:
    """SPMD tree count; combine with :func:`uts_combine`."""
    cfg_kwargs.setdefault("root_children", 40)
    cfg_kwargs.setdefault("mean_children", 0.8)
    cfg_kwargs.setdefault("node_cost", 0.0)
    return functools.partial(uts_spmd_main, UtsConfig(**cfg_kwargs))


def uts_spmd_main(cfg: UtsConfig, ctx):
    sh = ctx.shmem
    me, n = ctx.rank, ctx.nranks
    local = 1 if me == 0 else 0       # rank 0 accounts for the root
    for kid in children(cfg, root_node(cfg))[me::n]:
        local += _subtree_count(cfg, kid)
    total = yield sh.reduce_async(local, lambda a, b: a + b)
    yield sh.barrier_all_async()
    return (int(local), int(total))


def uts_combine(results: List[Any]) -> Tuple:
    locals_, totals = zip(*results)
    if len(set(totals)) != 1:
        raise AssertionError(f"UTS allreduce disagreed across ranks: {totals}")
    if sum(locals_) != totals[0]:
        raise AssertionError(
            f"UTS local counts sum to {sum(locals_)}, allreduce says "
            f"{totals[0]}")
    return ("uts", int(totals[0]))


# ----------------------------------------------------------------------
# Graph500: replicated BFS, strided chunk expansion, allgather merge
# ----------------------------------------------------------------------
def graph500_spmd_factory(chunk: int = 128, **cfg_kwargs) -> Callable:
    """SPMD level-synchronous BFS; combine with :func:`graph500_combine`.

    ``chunk`` must match the single-runtime workload's chunking — chunk
    boundaries define the deterministic merge order both versions share.
    """
    cfg_kwargs.setdefault("scale", 8)
    return functools.partial(graph500_spmd_main, Graph500Config(**cfg_kwargs),
                             chunk)


def graph500_spmd_main(cfg: Graph500Config, chunk: int, ctx):
    sh = ctx.shmem
    me, n = ctx.rank, ctx.nranks
    edges = kronecker_edges(cfg)
    nv = cfg.nvertices
    row_starts, cols = build_csr(edges, nv)
    src = pick_root(cfg, row_starts)
    parent = np.full(nv, -1, dtype=np.int64)
    parent[src] = src
    frontier = np.array([src], dtype=np.int64)
    while frontier.size:
        chunks = [
            (ci, bfs_expand(row_starts, cols, parent,
                            frontier[i:i + chunk]))
            for ci, i in enumerate(range(0, frontier.size, chunk))
            if ci % n == me
        ]
        gathered = yield sh.fcollect_async(chunks)
        # Same merge the single-runtime workload does: chunk order, first
        # claim wins — every rank applies the identical sequence, so the
        # replicated parent arrays never diverge.
        frontier = bfs_merge(parent, [
            claims for _, claims in sorted(
                (c for per_rank in gathered for c in per_rank),
                key=lambda c: c[0])])
    reached = validate_bfs(cfg, edges, src, parent)
    yield sh.barrier_all_async()
    return ("graph500", int(reached),
            hashlib.sha256(parent.tobytes()).hexdigest())


def graph500_combine(results: List[Any]) -> Tuple:
    first = tuple(results[0])
    for rank, r in enumerate(results[1:], start=1):
        if tuple(r) != first:
            raise AssertionError(
                f"Graph500 replicated BFS diverged on rank {rank}: "
                f"{tuple(r)} != {first}")
    return first


#: name -> (factory, combiner).
SPMD_WORKLOADS: Dict[str, Tuple[Callable[..., Callable],
                                Callable[[List[Any]], Tuple]]] = {
    "isx": (isx_spmd_factory, isx_combine),
    "uts": (uts_spmd_factory, uts_combine),
    "graph500": (graph500_spmd_factory, graph500_combine),
}


def run_spmd_workload(
    name: str,
    executor,
    *,
    nranks: int = 4,
    workers_per_rank: int = 1,
    seed: int = 0,
    cfg_kwargs: Optional[Dict[str, Any]] = None,
):
    """Run one named workload's SPMD twin with ``executor``, whichever back
    end it selects (``SimExecutor(shards=N)``, ``ProcessExecutor(...)``).

    Returns ``(digest, SpmdResult)``; the digest is comparable with the
    single-runtime differential workloads'. Ranks map one per node, so any
    shard count up to ``nranks`` is valid.
    """
    from repro.distrib.spmd import ClusterConfig, spmd_run
    from repro.shmem import shmem_factory
    from repro.verify.strategies import VerificationError

    try:
        factory, combine = SPMD_WORKLOADS[name]
    except KeyError:
        raise VerificationError(
            f"unknown SPMD workload {name!r}; "
            f"choose from {sorted(SPMD_WORKLOADS)}") from None
    cfg = ClusterConfig(nodes=nranks, ranks_per_node=1,
                        workers_per_rank=workers_per_rank, seed=seed)
    res = spmd_run(factory(**dict(cfg_kwargs or {})), cfg,
                   module_factories=[shmem_factory()], executor=executor)
    return combine(res.results), res
