"""Collective algorithms over the point-to-point backend.

These are the algorithms a production MPI library would run under the hood;
the module schedules each collective call as ONE coroutine task at the
Interconnect place (paper §II-C1: "for all collectives a single task from
each MPI rank is expected to participate").

Every function here is a *generator*: it suspends (``yield``) on request
futures instead of blocking its worker, so collectives from many ranks
interleave freely in the simulated executor without stacking call frames.

Algorithms: dissemination barrier, binomial-tree broadcast/reduce,
reduce+broadcast allreduce, gather/allgather, scatter, and pairwise-exchange
alltoall.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from repro.mpi.backend import MpiBackend
from repro.util.errors import MpiError


def barrier(backend: MpiBackend, tag: int):
    """Dissemination barrier: ceil(log2 P) rounds of pairwise signals."""
    n, r = backend.nranks, backend.rank
    if n == 1:
        return
    mask = 1
    rnd = 0
    while mask < n:
        dst = (r + mask) % n
        src = (r - mask) % n
        sreq = backend.isend(None, dst, tag=tag + rnd)
        rreq = backend.irecv(src=src, tag=tag + rnd)
        yield sreq.internal_future()
        yield rreq.internal_future()
        mask <<= 1
        rnd += 1


def bcast(backend: MpiBackend, data: Any, root: int, tag: int):
    """Binomial-tree broadcast; returns the broadcast value on every rank."""
    n, r = backend.nranks, backend.rank
    if not (0 <= root < n):
        raise MpiError(f"bcast root {root} out of range")
    vr = (r - root) % n  # virtual rank: root becomes 0
    mask = 1
    while mask < n:
        if vr & mask:
            src = (r - mask) % n
            (data, _, _) = yield backend.irecv(src=src, tag=tag).internal_future()
            break
        mask <<= 1
    # Forward to children: every mask below the bit we received on.
    mask >>= 1
    while mask > 0:
        if vr + mask < n:
            dst = (r + mask) % n
            backend.isend(data, dst, tag=tag)
        mask >>= 1
    return data


def reduce(
    backend: MpiBackend,
    value: Any,
    op: Callable[[Any, Any], Any],
    root: int,
    tag: int,
):
    """Binomial-tree reduction; returns the result on ``root``, None elsewhere.

    ``op`` must be associative and commutative (as for predefined MPI ops).
    """
    n, r = backend.nranks, backend.rank
    if not (0 <= root < n):
        raise MpiError(f"reduce root {root} out of range")
    vr = (r - root) % n
    acc = value
    mask = 1
    while mask < n:
        if vr & mask:
            parent = ((vr & ~mask) + root) % n
            backend.isend(acc, parent, tag=tag)
            return None
        partner = vr | mask
        if partner < n:
            (other, _, _) = yield backend.irecv(
                src=(partner + root) % n, tag=tag
            ).internal_future()
            acc = op(acc, other)
        mask <<= 1
    return acc


def allreduce(
    backend: MpiBackend, value: Any, op: Callable[[Any, Any], Any], tag: int
):
    """reduce-to-0 then broadcast (two binomial trees)."""
    acc = yield from reduce(backend, value, op, root=0, tag=tag)
    result = yield from bcast(backend, acc, root=0, tag=tag + 64)
    return result


def gather(backend: MpiBackend, value: Any, root: int, tag: int):
    """Gather one value per rank to ``root`` (rank-indexed list)."""
    n, r = backend.nranks, backend.rank
    if r != root:
        backend.isend((r, value), root, tag=tag)
        return None
    out: List[Any] = [None] * n
    out[r] = value
    for _ in range(n - 1):
        ((src, val), _, _) = yield backend.irecv(tag=tag).internal_future()
        out[src] = val
    return out


def allgather(backend: MpiBackend, value: Any, tag: int):
    vals = yield from gather(backend, value, root=0, tag=tag)
    result = yield from bcast(backend, vals, root=0, tag=tag + 64)
    return result


def scatter(backend: MpiBackend, values: Optional[Sequence[Any]], root: int,
            tag: int):
    n, r = backend.nranks, backend.rank
    if r == root:
        if values is None or len(values) != n:
            raise MpiError(f"scatter root needs exactly {n} values")
        for dst in range(n):
            if dst != root:
                backend.isend(values[dst], dst, tag=tag)
        return values[root]
    (val, _, _) = yield backend.irecv(src=root, tag=tag).internal_future()
    return val


def alltoall(backend: MpiBackend, values: Sequence[Any], tag: int):
    """Pairwise-exchange alltoall: ``values[d]`` goes to rank d; returns the
    rank-indexed list received. This is the pattern whose NIC incast produces
    the paper's Fig. 5 flat-OpenSHMEM collapse (same pattern, SHMEM spelling).
    """
    n, r = backend.nranks, backend.rank
    if len(values) != n:
        raise MpiError(f"alltoall needs exactly {n} send values, got {len(values)}")
    out: List[Any] = [None] * n
    out[r] = values[r]
    sends = []
    for k in range(1, n):
        dst = (r + k) % n
        sends.append(backend.isend(values[dst], dst, tag=tag))
    for _ in range(n - 1):
        (val, src, _) = yield backend.irecv(tag=tag).internal_future()
        out[src] = val
    for req in sends:
        yield req.internal_future()
    return out
