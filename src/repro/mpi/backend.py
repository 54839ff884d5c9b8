"""The underlying message-passing library the MPI module "taskifies".

The paper's MPI module sits on a production MPI (OpenMPI, MVAPICH...); this
backend is the reproduction's stand-in (DESIGN.md §2): tag matching with
MPI's semantics — ``(communicator, source, tag)`` triples, ``ANY_SOURCE`` /
``ANY_TAG`` wildcards, non-overtaking pairwise order, an unexpected-message
queue — over the simulated fabric.

Requests mirror ``MPI_Request``: ``test()`` reports completion (sends
complete at injection, i.e. buffered/eager semantics; receives at match +
delivery). The module layer converts requests to HiPER futures through the
polling service exactly as the paper describes; backend internals (collective
algorithms) may wait on a request's internal future directly.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.net.coalesce import CoalescePolicy
from repro.net.mux import FabricMux
from repro.runtime.future import Future, Promise
from repro.util.bufpool import BufferPool, release_if_pooled
from repro.util.errors import MpiError

ANY_SOURCE = -1
ANY_TAG = -1
COMM_WORLD = 0

#: Tags at or above this value are reserved for internal collectives.
_INTERNAL_TAG_BASE = 1 << 28


class MpiRequest:
    """Completion handle, analogous to ``MPI_Request``."""

    __slots__ = ("kind", "_done", "_value", "completion_time", "_promise", "seq")
    _seqs = itertools.count()

    def __init__(self, kind: str):
        self.kind = kind
        self._done = False
        self._value: Any = None
        self.completion_time = 0.0
        self._promise: Optional[Promise] = None
        self.seq = next(self._seqs)

    def test(self) -> bool:
        """Non-blocking completion probe (the polled predicate)."""
        return self._done

    @property
    def value(self) -> Any:
        if not self._done:
            raise MpiError(f"{self.kind} request read before completion")
        return self._value

    def internal_future(self) -> Future:
        """Library-internal future (collective algorithms); user code gets
        futures through the module's polling service instead."""
        if self._promise is None:
            self._promise = Promise(name=f"mpireq-{self.kind}-{self.seq}")
            if self._done:
                self._promise.put(self._value)
        return self._promise.get_future()

    def _complete(self, value: Any, time: float) -> None:
        if self._done:
            raise MpiError(f"{self.kind} request completed twice (internal)")
        self._done = True
        self._value = value
        self.completion_time = time
        if self._promise is not None:
            self._promise.put(value)

    def __repr__(self) -> str:
        return f"<MpiRequest {self.kind} #{self.seq} done={self._done}>"


class _Envelope:
    """Wire format: matching triple plus payload."""

    __slots__ = ("tag", "comm", "data", "nbytes")

    def __init__(self, tag: int, comm: int, data: Any, nbytes: int):
        self.tag = tag
        self.comm = comm
        self.data = data
        self.nbytes = nbytes


def _payload_nbytes(data: Any) -> int:
    if isinstance(data, np.ndarray):
        return int(data.nbytes)
    if isinstance(data, (bytes, bytearray, memoryview)):
        return len(data)
    if data is None:
        return 0
    return 64  # control-message estimate for small Python objects


class MpiBackend:
    """Per-rank matching engine over the fabric."""

    def __init__(
        self,
        mux: FabricMux,
        rank: int,
        *,
        on_progress: Optional[Callable[[], None]] = None,
        channel: str = "mpi",
        stats=None,
    ):
        self.mux = mux
        self.rank = rank
        self.nranks = mux.nranks
        self.channel = channel
        #: Hook invoked (from event context) whenever a request completes;
        #: the module points this at its polling service's ``kick``.
        self.on_progress = on_progress
        #: Optional RuntimeStats: match/unexpected-queue accounting under the
        #: backend's channel name.
        self.stats = stats if stats is not None else mux.stats
        self._posted: List[Tuple[int, int, int, Optional[np.ndarray], MpiRequest]] = []
        self._unexpected: List[Tuple[int, _Envelope, float]] = []
        # Guards the matching queues: on real backends irecv (worker thread)
        # races _on_delivery (delivery thread) on the same check-then-act.
        # The executor's pluggable lock keeps the sim path lock-free.
        self._qlock = mux.fabric.executor.lock_class()
        self._coll_seq = 0
        #: Recycles send-snapshot buffers (timing-neutral; wall-clock only).
        self.pool = BufferPool(stats=self.stats, module=channel)
        mux.register_channel(channel, self._on_delivery)

    def enable_retries(self, policy) -> None:
        """Retransmit dropped/corrupted messages on this backend's channel
        per ``policy`` (a :class:`repro.resilience.RetryPolicy`). Note MPI's
        non-overtaking guarantee is relaxed for the retried message — see
        ``docs/resilience.md``."""
        self.mux.set_retry_policy(self.channel, policy)

    def enable_coalescing(self, policy: Optional[CoalescePolicy] = None) -> None:
        """Batch small sends per destination into coalesced envelopes (see
        :mod:`repro.net.coalesce`). Opt-in: virtual-time schedules change."""
        self.mux.enable_coalescing(self.channel, policy)

    def _snapshot(self, data: Any) -> Any:
        """Copy mutable buffers so the sender may reuse them immediately.
        Array snapshots come from the buffer pool; the receive path releases
        them when it copies into a user buffer."""
        if isinstance(data, np.ndarray):
            return self.pool.take_copy(data)
        if isinstance(data, bytearray):
            return bytes(data)
        return data  # treated as immutable

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def isend(
        self, data: Any, dst: int, tag: int = 0, comm: int = COMM_WORLD,
        *, nbytes: Optional[int] = None,
    ) -> MpiRequest:
        """Asynchronous send; request completes when the source buffer is
        reusable (injection complete — eager/buffered semantics)."""
        self._check_peer(dst)
        self._check_tag(tag)
        req = MpiRequest("isend")
        env = _Envelope(tag, comm, self._snapshot(data),
                        _payload_nbytes(data) if nbytes is None else nbytes)
        self.mux.charge_send()
        self.mux.transmit(
            dst, self.channel, env, env.nbytes,
            on_injected=lambda t: self._finish(req, None, t),
        )
        return req

    def irecv(
        self,
        src: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        comm: int = COMM_WORLD,
        *,
        buffer: Optional[np.ndarray] = None,
    ) -> MpiRequest:
        """Asynchronous receive; request value is ``(data, src, tag)``.

        If ``buffer`` is given, matched array payloads are copied into it
        (size-checked), mirroring MPI's user-provided receive buffers.
        """
        if src != ANY_SOURCE:
            self._check_peer(src)
        req = MpiRequest("irecv")
        # Check the unexpected queue first, in arrival order. Match + remove
        # (or post) happens atomically; the delivery itself runs unlocked.
        matched = None
        with self._qlock:
            for i, (msrc, env, t) in enumerate(self._unexpected):
                if self._matches(src, tag, comm, msrc, env):
                    del self._unexpected[i]
                    matched = (msrc, env, t)
                    break
            else:
                self._posted.append((src, tag, comm, buffer, req))
        if matched is not None:
            msrc, env, t = matched
            self._count("msgs_matched")
            self._deliver_to(req, buffer, msrc, env, t)
        return req

    def _matches(self, want_src: int, want_tag: int, want_comm: int,
                 msrc: int, env: _Envelope) -> bool:
        return (
            want_comm == env.comm
            and (want_src == ANY_SOURCE or want_src == msrc)
            and (want_tag == ANY_TAG or want_tag == env.tag)
        )

    def _on_delivery(self, src: int, env: _Envelope, time: float) -> None:
        matched = None
        with self._qlock:
            for i, (wsrc, wtag, wcomm, buffer, req) in enumerate(self._posted):
                if self._matches(wsrc, wtag, wcomm, src, env):
                    del self._posted[i]
                    matched = (buffer, req)
                    break
            else:
                self._unexpected.append((src, env, time))
        if matched is not None:
            buffer, req = matched
            self._count("msgs_matched")
            self._deliver_to(req, buffer, src, env, time)
            return
        self._count("msgs_unexpected")

    def _count(self, op: str, n: int = 1) -> None:
        if self.stats is not None:
            self.stats.count(self.channel, op, n)

    def _deliver_to(self, req: MpiRequest, buffer: Optional[np.ndarray],
                    src: int, env: _Envelope, time: float) -> None:
        data = env.data
        if buffer is not None:
            if not isinstance(data, np.ndarray):
                raise MpiError(
                    f"receive posted a buffer but message from rank {src} "
                    f"(tag {env.tag}) carries {type(data).__name__}"
                )
            if data.size > buffer.size:
                raise MpiError(
                    f"message truncation: {data.size} elements into buffer of "
                    f"{buffer.size} (src={src}, tag={env.tag})"
                )
            flat = buffer.reshape(-1)
            flat[: data.size] = data.reshape(-1)
            release_if_pooled(data)  # contents copied out; recycle storage
            data = buffer
        self._finish(req, (data, src, env.tag), time)

    def _finish(self, req: MpiRequest, value: Any, time: float) -> None:
        req._complete(value, time)
        if self.on_progress is not None:
            self.on_progress()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def next_collective_tag(self) -> int:
        """Internal tag for one collective call. Correct because MPI requires
        all ranks to invoke collectives on a communicator in the same order."""
        tag = _INTERNAL_TAG_BASE + self._coll_seq
        self._coll_seq += 1
        return tag

    def _check_peer(self, peer: int) -> None:
        if not (0 <= peer < self.nranks):
            raise MpiError(f"peer rank {peer} out of range [0, {self.nranks})")

    def _check_tag(self, tag: int) -> None:
        if tag < 0:
            raise MpiError(f"negative user tag {tag} (wildcards are recv-side only)")

    @property
    def pending_recvs(self) -> int:
        return len(self._posted)

    @property
    def unexpected_count(self) -> int:
        return len(self._unexpected)

    def __repr__(self) -> str:
        return (
            f"MpiBackend(rank={self.rank}/{self.nranks}, posted={len(self._posted)}, "
            f"unexpected={len(self._unexpected)})"
        )
