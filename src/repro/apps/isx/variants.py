"""ISx variants (paper Fig. 5):

- :func:`run_flat` — "Flat OpenSHMEM": one single-threaded PE per core,
  direct library calls. Fastest at small scale; collapses at large node
  counts because every core-PE participates in the global all-to-all
  (per-node NICs serialize P·cores incoming messages).
- :func:`run_hybrid` — "OpenSHMEM+OpenMP": one PE per node, worker-parallel
  bucketizing/sorting, same exchange with node-count participants only.
- :func:`run_hiper` — "AsyncSHMEM"/HiPER: hybrid layout, but bucket blocks
  are produced by tasks and each put chains on its block's future, letting
  the exchange overlap the remaining bucketize work. The paper reports this
  comparable to the hybrid reference (the exchange dominates), which is the
  expected shape here too.

All variants share the key generator, router, and validator in ``common``.
"""

from __future__ import annotations

from typing import Callable, List

import numpy as np

from repro.apps import variant_main
from repro.apps.isx.common import (
    BUCKETIZE_OPS_PER_KEY,
    SORT_OPS_PER_KEY,
    IsxConfig,
    compute_seconds,
    generate_keys,
    local_sort,
    route_keys,
)
from repro.runtime.api import async_future, charge, forasync_future
from repro.runtime.future import Future, when_all
from repro.util.errors import ConfigError


def _flops(ctx) -> float:
    return ctx.config.machine.core_flops


def _exchange(ctx, cfg: IsxConfig, grouped: np.ndarray, counts: np.ndarray,
              window, tail):
    """The put/fadd all-to-all: reserve space in each target's window with an
    atomic fetch-add, then put the key block. Coroutine (yield from)."""
    sh = ctx.shmem
    me, n = ctx.rank, ctx.nranks
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    # Pipeline the space reservations: fire every fetch-add, then collect —
    # the round trips overlap instead of serializing (as real ISx's
    # nonblocking AMOs do). The whole reservation sweep goes out as one
    # wave, priced by the fabric in a single vectorized pass.
    res_pes: List[int] = []
    res_cnts: List[int] = []
    for k in range(n):
        pe = (me + k) % n  # stagger targets to avoid systematic hotspots
        cnt = int(counts[pe])
        if cnt:
            res_pes.append(pe)
            res_cnts.append(cnt)
    reservations = list(zip(
        res_pes, res_cnts, sh.atomic_fetch_add_wave(tail, res_cnts, res_pes)))
    puts: List[Future] = []
    for pe, cnt, fut in reservations:
        base = yield fut
        if base + cnt > window.size:
            raise ConfigError(
                f"ISx receive window overflow on PE {pe}: "
                f"{base + cnt} > {window.size}; raise IsxConfig.slack"
            )
        block = grouped[offsets[pe] : offsets[pe] + cnt]
        puts.append(sh.put_async(window, block, pe, offset=int(base),
                                 nbytes=block.nbytes * cfg.byte_scale))
    for f in puts:
        yield f
    yield sh.barrier_all_async()  # barrier implies quiet: all puts landed


def run_flat(ctx, cfg: IsxConfig):
    """Flat OpenSHMEM: sequential local phases, direct exchange."""
    sh = ctx.shmem
    me, n = ctx.rank, ctx.nranks
    flops = _flops(ctx)
    window = sh.malloc(cfg.window_size(), dtype=np.int64)
    tail = sh.malloc(1, dtype=np.int64)
    yield sh.barrier_all_async()

    keys = generate_keys(cfg, me, n)
    grouped, counts = route_keys(cfg, n, keys)
    charge(cfg.byte_scale
           * compute_seconds(keys.size, BUCKETIZE_OPS_PER_KEY, flops))

    yield from _exchange(ctx, cfg, grouped, counts, window, tail)

    nrecv = int(tail.arr[0])
    result = local_sort(window.arr[:nrecv].copy())
    charge(cfg.byte_scale * compute_seconds(nrecv, SORT_OPS_PER_KEY, flops))
    yield sh.barrier_all_async()
    return result


def run_hybrid(ctx, cfg: IsxConfig):
    """OpenSHMEM+OpenMP: worker-parallel local phases, same exchange."""
    sh = ctx.shmem
    me, n = ctx.rank, ctx.nranks
    flops = _flops(ctx)
    nworkers = ctx.runtime.num_workers
    window = sh.malloc(cfg.window_size(), dtype=np.int64)
    tail = sh.malloc(1, dtype=np.int64)
    yield sh.barrier_all_async()

    keys = generate_keys(cfg, me, n)
    # Parallel bucketize: chunk the keys across workers, then merge counts.
    chunk_results: List = [None] * nworkers
    bounds = np.linspace(0, keys.size, nworkers + 1, dtype=np.int64)

    def bucketize(i):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        chunk_results[i] = route_keys(cfg, n, keys[lo:hi])

    yield forasync_future(
        nworkers, bucketize,
        cost_per_item=cfg.byte_scale * compute_seconds(
            keys.size // max(nworkers, 1), BUCKETIZE_OPS_PER_KEY, flops),
        name="isx-bucketize",
    )
    counts = np.sum([c for _, c in chunk_results], axis=0).astype(np.int64)
    grouped = _merge_groups(n, chunk_results)

    yield from _exchange(ctx, cfg, grouped, counts, window, tail)

    nrecv = int(tail.arr[0])
    received = window.arr[:nrecv].copy()
    # Parallel local sort: sort worker-chunks, then merge (cost-charged).
    result_box = [None]

    def do_sort():
        result_box[0] = local_sort(received)

    yield async_future(
        do_sort,
        cost=cfg.byte_scale
        * compute_seconds(nrecv, SORT_OPS_PER_KEY, flops) / max(nworkers, 1),
    )
    yield sh.barrier_all_async()
    return result_box[0]


def run_hiper(ctx, cfg: IsxConfig):
    """AsyncSHMEM: bucket blocks produced by tasks; puts chain on futures so
    the exchange overlaps the remaining local work."""
    sh = ctx.shmem
    me, n = ctx.rank, ctx.nranks
    flops = _flops(ctx)
    nworkers = ctx.runtime.num_workers
    window = sh.malloc(cfg.window_size(), dtype=np.int64)
    tail = sh.malloc(1, dtype=np.int64)
    yield sh.barrier_all_async()

    keys = generate_keys(cfg, me, n)
    nchunks = max(nworkers, 1)
    bounds = np.linspace(0, keys.size, nchunks + 1, dtype=np.int64)
    chunk_cost = cfg.byte_scale * compute_seconds(
        keys.size // nchunks, BUCKETIZE_OPS_PER_KEY, flops)

    # Each chunk task routes its keys, immediately reserves space at each
    # target (atomic) and fires the puts — exchange begins while other
    # chunks are still bucketizing.
    def make_chunk(i: int):
        def chunk():  # coroutine task
            lo, hi = int(bounds[i]), int(bounds[i + 1])
            grouped, counts = route_keys(cfg, n, keys[lo:hi])
            offs = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=offs[1:])
            res_pes: List[int] = []
            res_cnts: List[int] = []
            for k in range(n):
                pe = (me + k) % n
                cnt = int(counts[pe])
                if cnt:
                    res_pes.append(pe)
                    res_cnts.append(cnt)
            reservations = list(zip(
                res_pes, res_cnts,
                sh.atomic_fetch_add_wave(tail, res_cnts, res_pes)))
            puts = []
            for pe, cnt, fut in reservations:
                base = yield fut
                if base + cnt > window.size:
                    raise ConfigError("ISx receive window overflow")
                block = grouped[offs[pe] : offs[pe] + cnt]
                puts.append(sh.put_async(window, block, pe, offset=int(base),
                                         nbytes=block.nbytes * cfg.byte_scale))
            for f in puts:
                yield f

        return chunk

    chunk_futs = [
        ctx.runtime.spawn(make_chunk(i), name=f"isx-chunk{i}",
                          cost=chunk_cost, return_future=True)
        for i in range(nchunks)
    ]
    yield when_all(chunk_futs)
    yield sh.barrier_all_async()

    nrecv = int(tail.arr[0])
    received = window.arr[:nrecv].copy()
    result_box = [None]

    def do_sort():
        result_box[0] = local_sort(received)

    yield async_future(
        do_sort,
        cost=cfg.byte_scale
        * compute_seconds(nrecv, SORT_OPS_PER_KEY, flops) / max(nworkers, 1),
    )
    yield sh.barrier_all_async()
    return result_box[0]


def _merge_groups(n: int, chunk_results) -> np.ndarray:
    """Concatenate per-chunk grouped arrays into target-major order, so the
    merged array is grouped by target PE with block sizes equal to the summed
    per-chunk counts."""
    chunk_offsets = []
    for _, counts in chunk_results:
        offs = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offs[1:])
        chunk_offsets.append(offs)
    pieces = [
        grouped[offs[pe] : offs[pe + 1]]
        for pe in range(n)
        for (grouped, _), offs in zip(chunk_results, chunk_offsets)
    ]
    return np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)


VARIANTS = {
    "flat": run_flat,
    "hybrid": run_hybrid,
    "hiper": run_hiper,
}


def isx_main(variant: str, cfg: IsxConfig) -> Callable:
    return variant_main("ISx", VARIANTS, variant, cfg)
