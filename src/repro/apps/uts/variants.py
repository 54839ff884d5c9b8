"""UTS variants (paper §III-C1, Fig. 7):

- :func:`run_shmem_omp` — "OpenSHMEM+OpenMP": continuous worker-parallel
  expansion within a rank, *lock-based synchronous* distributed stealing
  (lock victim, read, copy, update, unlock — 4-5 round trips, thieves
  serialized per victim). This is the variant whose "contention from
  distributed load balancing" degrades beyond ~128 ranks in the paper.
- :func:`run_omp_tasks` — "OpenSHMEM+OpenMP Tasks": expansion in task waves
  with a taskwait barrier after each wave ("repeatedly use coarse-grain
  synchronization to wait on all pending tasks before checking for
  completion and performing distributed load balancing").
- :func:`run_hiper` — "AsyncSHMEM": the same parallel structure as
  shmem_omp (paper: "identical in the structure of their parallelism"), but
  stealing is asynchronous and lock-free (read cursor/top, one
  compare-and-swap claim, one get — never a held lock), and communication
  composes with tasks on one runtime.

Shared machinery (:class:`_UtsRank`): a per-PE shared steal stack in
symmetric memory with a monotone write cursor (owner is the only producer,
so rows below ``top`` are always fully written), a take-cursor for disjoint
thief claims, a global outstanding-node counter for exact termination
detection, and a done flag broadcast by whichever rank retires the last node.
"""

from __future__ import annotations

from typing import Callable, List

import numpy as np

from repro.apps import variant_main
from repro.apps.uts.common import (
    Node,
    UtsConfig,
    expand_chunk,
    pack,
    root_node,
    unpack,
)
from repro.runtime.api import async_future, timer_future
from repro.runtime.future import Future, Promise, when_all, when_any

#: Rows of the per-PE steal stack (cumulative exports; generous bound).
STACK_ROWS = 1 << 14
#: Local backlog (in chunks) above which a rank exports work to its stack.
EXPORT_THRESHOLD_CHUNKS = 1
#: Victims probed per steal round.
PROBE_FANOUT = 4
#: Idle backoff bounds (virtual seconds).
BACKOFF_MIN = 5e-6
BACKOFF_MAX = 2e-4


def _broadcast_done_body(st: "_UtsRank"):
    """Body of PE0's termination watcher task: tell every PE we are done."""
    yield from st.broadcast_done()


class _UtsRank:
    """Per-rank state and the shared steal-stack / termination protocol."""

    def __init__(self, ctx, cfg: UtsConfig):
        self.ctx = ctx
        self.cfg = cfg
        self.sh = ctx.shmem
        self.me = ctx.rank
        self.n = ctx.nranks
        self.local: List[Node] = []
        self.active = 0
        self.processed = 0
        self.max_active = ctx.runtime.num_workers * 2
        self.export_rows_used = 0
        self.pending_delta = 0
        self.flush_threshold = cfg.chunk * 4
        self._export_chain = None  # serializes publish_export calls
        self._idle_promise = None
        #: Guards the rank's bookkeeping above against its own workers,
        #: which run chunk tasks in parallel on the threaded and procs
        #: back ends (a no-op lock on the simulator).
        self.mutex = ctx.runtime.executor.lock_class()
        self._steal_rng = ctx.runtime.rng_factory.stream("uts-steal")
        # Symmetric state (identical allocation order on every PE).
        self.stack = self.sh.malloc((STACK_ROWS, 2), dtype=np.int64)
        self.top = self.sh.malloc(1, dtype=np.int64)        # readable height
        self.cursor = self.sh.malloc(1, dtype=np.int64)     # take cursor
        self.lock = self.sh.malloc(1, dtype=np.int64)       # per-PE lock
        self.outstanding = self.sh.malloc(1, dtype=np.int64)  # PE0 only
        self.done_sym = self.sh.malloc(1, dtype=np.int64)

    # -- lifecycle -----------------------------------------------------
    def setup(self):
        if self.me == 0:
            self.sh.local_store(self.outstanding, 0, 1)  # the root
            self.local.append(root_node(self.cfg))
            # Termination detection lives at PE0: the paper's novel
            # shmem_async_when predicates the done-broadcast task on the
            # global counter reaching zero — re-checked on every atomic
            # update that lands here, no polling loop anywhere.
            self.sh.async_when(
                self.outstanding, "eq", 0,
                lambda: _broadcast_done_body(self),
            )
        yield self.sh.barrier_all_async()

    @property
    def done(self) -> bool:
        return bool(self.done_sym.arr[0] == 1)

    def done_future(self) -> Future:
        return self.sh.wait_until_async(self.done_sym, "eq", 1)

    def broadcast_done(self):
        puts = [self.sh.put_async(self.done_sym, np.array([1]), pe)
                for pe in range(self.n)]
        for f in puts:
            yield f

    def account(self, expanded: int, created: int):
        """Retire ``expanded`` nodes / register ``created`` children with the
        global counter at PE0.

        Accounting is batched locally (as in the reference UTS-SHMEM code)
        and flushed with *non-fetching* adds — zero detection happens at PE0
        via the ``shmem_async_when`` watcher armed in :meth:`setup`.
        Correctness relies on credit-before-debit causality: a node's credit
        reaches PE0 before any debit of that node can (same-pair FIFO for
        locally-processed nodes; the pre-export ``quiet`` barrier in
        :meth:`publish_export` for stolen ones), so the counter never
        transiently touches zero.
        """
        with self.mutex:
            self.pending_delta += created - expanded
            flush = abs(self.pending_delta) >= self.flush_threshold
        if flush:
            yield from self.flush_account()

    def flush_account(self):
        """Push any pending delta to the global counter (also called before
        idling/stealing/exporting so termination cannot stall on a hoarded
        delta)."""
        with self.mutex:   # issue in the order the deltas were taken
            delta, self.pending_delta = self.pending_delta, 0
            if delta == 0:
                return
            added = self.sh.atomic_add_async(self.outstanding, delta, 0)
        yield added

    # -- idle signalling -------------------------------------------------
    def idle_future(self) -> Future:
        with self.mutex:
            self._idle_promise = Promise(name=f"uts-idle-pe{self.me}")
            return self._idle_promise.get_future()

    def wake_idle(self) -> None:
        with self.mutex:
            p, self._idle_promise = self._idle_promise, None
        if p is not None and not p.satisfied:
            p.put(None)

    # -- export (owner is the only producer of its stack) ----------------
    def take_export_rows(self):
        """Synchronously decide and remove surplus work for export; returns
        ``(rows, base)`` or ``None``. Kept separate from the (asynchronous)
        publish so callers can keep spawning compute before the puts fly.
        The caller holds :attr:`mutex`."""
        cfg = self.cfg
        threshold = cfg.chunk * EXPORT_THRESHOLD_CHUNKS
        surplus = len(self.local) - threshold
        if surplus < cfg.chunk:
            return None
        nexport = min(surplus // 2 + 1, cfg.chunk * 4)
        if self.export_rows_used + nexport > STACK_ROWS:
            return None  # stack exhausted; keep work local
        rows = np.array(
            [pack(self.local.pop(0)) for _ in range(nexport)], dtype=np.int64
        )
        base = self.export_rows_used
        self.export_rows_used += nexport
        return rows, base

    def publish_export(self, export):
        """Write rows, then publish by raising top: rows below top are always
        complete, so lock-free thieves never read garbage.

        The flush+quiet BEFORE raising ``top`` guarantees every exported
        node's credit has been applied at PE0 before any thief can see (and
        later debit) it — the causality that keeps the termination counter
        strictly positive until the true end."""
        rows, base = export
        # Serialize publications: ``top`` certifies a fully-written prefix,
        # so export i+1 must not raise it before export i's rows landed.
        with self.mutex:
            prev, gate = self._export_chain, \
                Promise(name=f"uts-export-pe{self.me}")
            self._export_chain = gate.get_future()
        if prev is not None:
            yield prev
        try:
            yield from self.flush_account()
            yield self.sh.quiet_async()
            yield self.sh.put_async(self.stack, rows, self.me, offset=base * 2)
            yield self.sh.atomic_fetch_add_async(self.top, len(rows), self.me)
        finally:
            gate.put(None)

    def maybe_export(self):
        with self.mutex:
            export = self.take_export_rows()
        if export is not None:
            yield from self.publish_export(export)

    # -- stealing ---------------------------------------------------------
    def victims(self) -> List[int]:
        """Steal candidates: own stack first (reclaiming exported surplus is
        cheap and keeps exports from being orphaned), then random others."""
        others = [r for r in range(self.n) if r != self.me]
        self._steal_rng.shuffle(others)
        return [self.me] + others[:PROBE_FANOUT]

    def steal_lockfree(self):
        """AsyncSHMEM steal: read cursor/top, claim rows with one
        compare-and-swap, fetch them. No lock is ever held, so concurrent
        thieves never serialize behind each other's round trips."""
        for v in self.victims():
            cur = int((yield self.sh.get_async(self.cursor, v))[0])
            top_v = int((yield self.sh.get_async(self.top, v))[0])
            avail = top_v - cur
            if avail <= 0:
                continue
            take = min(self.cfg.chunk, avail)
            old = yield self.sh.atomic_compare_swap_async(
                self.cursor, cur, cur + take, v)
            if old != cur:
                continue  # lost the claim race; move on
            rows = yield self.sh.get_async(
                self.stack, v, offset=cur * 2, count=take * 2)
            rows = rows.reshape(take, 2)
            return [unpack(r[0], r[1]) for r in rows]
        return []

    def steal_locked(self):
        """Reference steal: lock the victim, inspect, copy, update, unlock.
        Serializes thieves per victim and holds the lock across ~4 RTTs —
        the paper's contention mechanism."""
        for v in self.victims():
            yield self.sh.set_lock_async(self.lock, home=v)
            cur = int((yield self.sh.get_async(self.cursor, v))[0])
            top_v = int((yield self.sh.get_async(self.top, v))[0])
            avail = top_v - cur
            if avail > 0:
                take = min(self.cfg.chunk, avail)
                rows = yield self.sh.get_async(
                    self.stack, v, offset=cur * 2, count=take * 2)
                yield self.sh.put_async(
                    self.cursor, np.array([cur + take]), v)
                yield self.sh.quiet_async()
                yield self.sh.clear_lock_async(self.lock, home=v)
                rows = rows.reshape(take, 2)
                return [unpack(r[0], r[1]) for r in rows]
            yield self.sh.clear_lock_async(self.lock, home=v)
        return []


def _continuous_engine(st: _UtsRank, steal_gen: Callable, lock_exports: bool):
    """Shared main loop for the two continuously-scheduled variants: chunk
    tasks self-sustain (each spawns successors), the main coroutine only
    handles idleness, stealing, and termination."""
    cfg = st.cfg
    rt = st.ctx.runtime

    def spawn_chunks():   # the caller holds st.mutex
        while st.local and st.active < st.max_active:
            take = min(cfg.chunk, len(st.local))
            chunk = [st.local.pop() for _ in range(take)]
            st.active += 1
            rt.spawn(
                _make_chunk_task(st, chunk, spawn_chunks),
                cost=len(chunk) * cfg.node_cost,
                name="uts-chunk", return_future=False,
            )

    yield from st.setup()
    with st.mutex:
        spawn_chunks()
    done_fut = st.done_future()
    backoff = BACKOFF_MIN
    while not st.done:
        if st.active == 0 and not st.local:
            yield from st.flush_account()
            got = yield from steal_gen()
            if got:
                with st.mutex:
                    st.local.extend(got)
                    spawn_chunks()
                backoff = BACKOFF_MIN
                continue
            if st.done:
                break
            yield when_any([done_fut, timer_future(backoff)])
            backoff = min(backoff * 2, BACKOFF_MAX)
        else:
            yield when_any([done_fut, st.idle_future()])
    yield st.sh.barrier_all_async()
    return st.processed


def _make_chunk_task(st: _UtsRank, chunk: List[Node], spawn_chunks):
    def chunk_task():  # coroutine task
        kids = expand_chunk(st.cfg, chunk)
        with st.mutex:
            st.processed += len(chunk)
            st.local.extend(kids)
            export = st.take_export_rows()  # decide before re-spawning
            st.active -= 1
            spawn_chunks()
        if export is not None:
            yield from st.publish_export(export)
        yield from st.account(len(chunk), len(kids))
        if st.active == 0 and not st.local:
            st.wake_idle()

    return chunk_task


def run_hiper(ctx, cfg: UtsConfig):
    """AsyncSHMEM: continuous tasks + lock-free asynchronous stealing."""
    st = _UtsRank(ctx, cfg)
    result = yield from _continuous_engine(st, st.steal_lockfree,
                                           lock_exports=False)
    return result


def run_shmem_omp(ctx, cfg: UtsConfig):
    """OpenSHMEM+OpenMP: same task structure, lock-based stealing."""
    st = _UtsRank(ctx, cfg)
    result = yield from _continuous_engine(st, st.steal_locked,
                                           lock_exports=True)
    return result


def run_omp_tasks(ctx, cfg: UtsConfig):
    """OpenSHMEM+OpenMP Tasks: wave-parallel expansion with a taskwait
    barrier between waves; balancing/termination only at wave boundaries."""
    st = _UtsRank(ctx, cfg)
    yield from st.setup()
    cfg_chunk = cfg.chunk
    backoff = BACKOFF_MIN
    while not st.done:
        if st.local:
            wave, st.local = st.local, []
            chunks = [wave[i : i + cfg_chunk]
                      for i in range(0, len(wave), cfg_chunk)]
            kid_lists: List[List[Node]] = [None] * len(chunks)  # type: ignore

            def make_body(i, c):
                def body():
                    kid_lists[i] = expand_chunk(cfg, c)
                return body

            futs = [
                async_future(make_body(i, c), cost=len(c) * cfg.node_cost,
                             name=f"uts-wave-{i}")
                for i, c in enumerate(chunks)
            ]
            yield when_all(futs)  # <-- the coarse-grain taskwait
            created = 0
            for kl in kid_lists:
                created += len(kl)
                st.local.extend(kl)
            st.processed += len(wave)
            yield from st.maybe_export()
            yield from st.account(len(wave), created)
            backoff = BACKOFF_MIN
        else:
            yield from st.flush_account()
            got = yield from st.steal_locked()
            if got:
                st.local.extend(got)
                continue
            if st.done:
                break
            yield when_any([st.done_future(), timer_future(backoff)])
            backoff = min(backoff * 2, BACKOFF_MAX)
    yield st.sh.barrier_all_async()
    return st.processed


VARIANTS = {
    "shmem_omp": run_shmem_omp,
    "omp_tasks": run_omp_tasks,
    "hiper": run_hiper,
}


def uts_main(variant: str, cfg: UtsConfig) -> Callable:
    return variant_main("UTS", VARIANTS, variant, cfg)
