"""The ISx key exchange the procs benchmarks time.

The paper's apps run on every back end from :mod:`repro.apps.registry`;
this is the one SPMD program kept beside them, a stripped ISx exchange
(fetch-add cursor, one-sided puts, local sort) whose per-rank cost is
independent of the rank count, so aggregate keys/s measures how a back
end scales.
"""

from __future__ import annotations

import hashlib
from typing import Callable

import numpy as np

from repro.apps.isx.common import IsxConfig, generate_keys, local_sort

__all__ = ["isx_exchange_factory"]


def isx_exchange_factory(**cfg_kwargs) -> Callable:
    """Weak-scaling ISx for the procs *benchmark* (not the differential).

    The paper's Fig. 5 shape with nothing but the exchange: each PE
    generates its *own* ``keys_per_pe`` keys (per-rank streams),
    single-pass bucket-routes them by value, and sorts what it receives.
    Per-rank compute is O(keys_per_pe)
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
