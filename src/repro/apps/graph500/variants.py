"""Graph500 BFS variants (paper §III-C2):

- :func:`run_mpi` — the reference style: level-synchronous BFS with a 1-D
  vertex partition; per level, each rank expands its local frontier, routes
  (vertex, parent) discoveries to their owners with an MPI alltoall, drains
  what it receives, and an allreduce decides whether another level follows.
  Reference codes "must constantly poll for incoming data"; the alltoall is
  that polling made collective.
- :func:`run_hiper` — HiPER/AsyncSHMEM style, following the paper: owners do
  not poll. Discoveries are *put* into the owner's symmetric queue after an
  atomic reservation, and the paper's novel ``shmem_async_when`` predicates
  drain tasks on the queue's tail counter advancing — the runtime fires the
  drain exactly when data lands. A barrier + allreduce still delimits levels
  (BFS levels must be exact), so the paper's observation holds here too:
  little performance difference, much simpler receive logic.

Both produce minimal BFS parent trees validated by
:func:`repro.apps.graph500.common.validate_bfs`.
"""

from __future__ import annotations

from typing import Callable, List

import numpy as np

from repro.apps import variant_main
from repro.apps.graph500.common import (
    Graph500Config,
    block_bounds,
    build_csr,
    kronecker_edges,
    neighbors,
    owner_of,
    pick_root,
)
from repro.runtime.api import charge
from repro.runtime.future import Future, when_all
from repro.util.errors import ConfigError

#: Host cost charged per traversed edge (memory-bound graph walk).
SECONDS_PER_EDGE_FACTOR = 12.0  # flops-equivalent per edge


class _BfsRank:
    """Shared per-rank BFS state: local CSR block, visited/parent arrays."""

    def __init__(self, ctx, cfg: Graph500Config):
        self.ctx = ctx
        self.cfg = cfg
        self.me = ctx.rank
        self.n = ctx.nranks
        self.nv = cfg.nvertices
        # Every rank generates the same edge list deterministically and keeps
        # its own CSR rows (the reference generator distributes generation;
        # same data, different plumbing — see DESIGN.md).
        edges = kronecker_edges(cfg)
        self.row_starts, self.cols = build_csr(edges, self.nv)
        self.root = pick_root(cfg, self.row_starts)
        self.lo, self.hi = block_bounds(self.nv, self.n, self.me)
        self.parent = np.full(self.hi - self.lo, -1, dtype=np.int64)
        self.core_flops = ctx.config.machine.core_flops

    def expand(self, frontier: np.ndarray):
        """Expand local frontier vertices; returns (neighbors, parents)
        arrays of the discovered candidate edges (unfiltered)."""
        if frontier.size == 0:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        nbrs, pars = neighbors(self.row_starts, self.cols, frontier)
        charge(nbrs.size * SECONDS_PER_EDGE_FACTOR / self.core_flops)
        return nbrs, pars

    def absorb(self, verts: np.ndarray, pars: np.ndarray) -> np.ndarray:
        """Mark newly discovered local vertices; returns the new frontier
        (global vertex ids). First writer wins (any BFS parent is valid)."""
        if verts.size == 0:
            return np.empty(0, dtype=np.int64)
        charge(verts.size * SECONDS_PER_EDGE_FACTOR / self.core_flops)
        local = verts - self.lo
        fresh_mask = self.parent[local] < 0
        # np.unique-style first-wins within the batch:
        local_fresh = local[fresh_mask]
        pars_fresh = pars[fresh_mask]
        uniq, first_idx = np.unique(local_fresh, return_index=True)
        self.parent[uniq] = pars_fresh[first_idx]
        return uniq + self.lo


def _route(st: _BfsRank, nbrs: np.ndarray, pars: np.ndarray) -> List:
    """Group candidate (vertex, parent) pairs by owner rank."""
    out: List = [None] * st.n
    if nbrs.size == 0:
        return out
    owners = owner_of(st.nv, st.n, nbrs)
    order = np.argsort(owners, kind="stable")
    nbrs, pars, owners = nbrs[order], pars[order], owners[order]
    bounds = np.searchsorted(owners, np.arange(st.n + 1))
    for r in range(st.n):
        if bounds[r + 1] > bounds[r]:
            out[r] = np.stack(
                [nbrs[bounds[r] : bounds[r + 1]], pars[bounds[r] : bounds[r + 1]]]
            )
    return out


def run_mpi(ctx, cfg: Graph500Config):
    """Reference: level-synchronous BFS over MPI alltoall."""
    st = _BfsRank(ctx, cfg)
    mpi = ctx.mpi
    frontier = np.empty(0, dtype=np.int64)
    if st.lo <= st.root < st.hi:
        st.parent[st.root - st.lo] = st.root
        frontier = np.array([st.root], dtype=np.int64)

    while True:
        nbrs, pars = st.expand(frontier)
        outgoing = _route(st, nbrs, pars)
        incoming = yield mpi.alltoall_async(outgoing)
        verts = np.concatenate(
            [m[0] for m in incoming if m is not None]
            or [np.empty(0, dtype=np.int64)]
        )
        parents = np.concatenate(
            [m[1] for m in incoming if m is not None]
            or [np.empty(0, dtype=np.int64)]
        )
        frontier = st.absorb(verts, parents)
        total = yield mpi.allreduce_async(int(frontier.size), lambda a, b: a + b)
        if total == 0:
            break
    return st.parent


def run_hiper(ctx, cfg: Graph500Config, queue_slack: int = 6):
    """HiPER: puts into owner queues + shmem_async_when-driven drains.

    The receive queue is partitioned into one region per sender, so each
    region has a single writer: a sender writes its rows, then bumps its
    region's tail counter with an atomic add. Pairwise FIFO delivery makes
    the rows visible before the counter moves, so the owner's drain task —
    predicated on the counter via ``shmem_async_when`` — never reads
    unwritten slots. Drains overlap the level's communication; no polling.
    """
    st = _BfsRank(ctx, cfg)
    sh = ctx.shmem
    me, n = st.me, st.n

    # Tail counters are monotone across the whole search (no per-level
    # reset), so size each sender region for the worst case: the number of
    # my adjacency entries owned by that sender bounds what it can ever send
    # me (one candidate per cross edge). Take the global max so the
    # symmetric allocation has identical shape everywhere.
    my_cols = st.cols[st.row_starts[st.lo] : st.row_starts[st.hi]]
    incoming = np.bincount(owner_of(st.nv, n, my_cols), minlength=n)
    tails = sh.malloc(n, dtype=np.int64)
    percap = yield sh.reduce_async(
        int(incoming.max()) + 8, lambda a, b: max(a, b))
    queue = sh.malloc((n, percap, 2), dtype=np.int64)
    drained = [0] * n        # rows consumed per sender region
    sent = [0] * n           # rows written per target (sender side)
    new_frontier: List[np.ndarray] = []
    # Drains run as tasks beside this one; on the threaded and procs back
    # ends, in parallel (a no-op lock on the simulator).
    mutex = ctx.runtime.executor.lock_class()

    def absorb_new(s: int) -> None:
        """Absorb the rows region ``s`` received since its last drain."""
        t = int(tails.arr[s])
        if t > drained[s]:
            rows = queue.arr[s, drained[s] : t]
            drained[s] = t
            new_frontier.append(
                st.absorb(rows[:, 0].copy(), rows[:, 1].copy()))

    def arm_drain(s: int):
        """Drain region ``s`` when its tail advances (shmem_async_when)."""
        target = drained[s] + 1

        def drain():
            with mutex:
                absorb_new(s)
            arm_drain(s)

        sh.async_when(tails, "ge", target, drain, index=s, daemon=True)

    for s in range(n):
        if s != me:
            arm_drain(s)
    yield sh.barrier_all_async()

    frontier = np.empty(0, dtype=np.int64)
    if st.lo <= st.root < st.hi:
        st.parent[st.root - st.lo] = st.root
        frontier = np.array([st.root], dtype=np.int64)

    while True:
        nbrs, pars = st.expand(frontier)
        outgoing = _route(st, nbrs, pars)
        for r in range(n):
            block = outgoing[r]
            if block is None:
                continue
            rows = block.T.copy()  # (k, 2)
            if r == me:
                with mutex:
                    new_frontier.append(st.absorb(rows[:, 0], rows[:, 1]))
                continue
            k = rows.shape[0]
            if sent[r] + k > percap:
                raise ConfigError(
                    "graph500 receive region overflow; raise queue_slack"
                )
            # write rows into my region at the target, then publish
            offset = (me * percap + sent[r]) * 2
            yield sh.put_async(queue, rows, r, offset=offset)
            yield sh.atomic_add_async(tails, k, r, index=me)
            sent[r] += k

        # Level boundary: barrier implies quiet, so all rows have LANDED —
        # but their async_when drain tasks may still be queued behind this
        # continuation. Sweep stragglers synchronously; the drains then see
        # ``drained`` already advanced and no-op (absorb is first-wins).
        yield sh.barrier_all_async()
        with mutex:
            for s in range(n):
                if s != me:
                    absorb_new(s)
            frontier = (
                np.concatenate(new_frontier) if new_frontier
                else np.empty(0, dtype=np.int64)
            )
            new_frontier.clear()
        total = yield sh.reduce_async(int(frontier.size), lambda a, b: a + b)
        if total == 0:
            break
    return st.parent


VARIANTS = {"mpi": run_mpi, "hiper": run_hiper}


def graph500_main(variant: str, cfg: Graph500Config) -> Callable:
    return variant_main("Graph500", VARIANTS, variant, cfg)
