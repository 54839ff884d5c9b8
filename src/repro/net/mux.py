"""Per-rank protocol multiplexer over the fabric.

A rank registers exactly one sink with the fabric; multiple communication
modules (MPI, OpenSHMEM, UPC++) coexist in one process in the paper, so each
module claims a named *channel* on its rank's mux. Payloads travel as
``(channel, inner_payload)`` and are dispatched to the owning module's
handler at delivery time. ``post``, ``track`` and ``reply`` are those
modules' one send seam (``docs/comm-internals.md``, "The send seam").
"""

from __future__ import annotations

import itertools
from typing import (Any, Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Tuple, Union)

from repro.net.coalesce import ChannelCoalescer, CoalescedBatch, CoalescePolicy
from repro.net.fabric import CorruptedPayload, SimFabric
from repro.runtime.context import current_context
from repro.runtime.future import Future
from repro.util.errors import CommError
from repro.util.stats import Histogram

ChannelHandler = Callable[[int, Any, float], None]  # (src, payload, time)


class _Reply(NamedTuple):
    """Wire form of :meth:`FabricMux.reply`."""

    req_id: int
    value: Any
    exc: bool


class _ChannelTally(Histogram):
    """One channel's traffic: the sent-size histogram (its ``n`` is the
    channel's ``msgs_sent``) plus bytes sent and messages received."""

    __slots__ = ("bytes_sent", "msgs_received")

    def __init__(self):
        super().__init__()
        self.bytes_sent = 0
        self.msgs_received = 0


class FabricMux:
    """One per rank; shared by every communication module on that rank.

    With a :class:`~repro.util.stats.RuntimeStats` attached, the mux accounts
    per-module communication volume — every channel is a module name, so
    ``stats.counter("mpi", "bytes_sent")`` etc. come for free for all
    communication modules (paper §V: the unified runtime sees all work,
    including every message each module moves). The per-message tallies
    are plain integers per channel, which the stats read when they are read.
    """

    def __init__(self, fabric: SimFabric, rank: int, *, stats=None):
        self.fabric = fabric
        self.rank = rank
        self.stats = stats
        self._handlers: Dict[str, ChannelHandler] = {}
        #: channel -> RetryPolicy; dropped/corrupted sends on these channels
        #: are retransmitted with backoff instead of silently vanishing.
        self._retry: Dict[str, Any] = {}
        #: channel -> ChannelCoalescer; sends on these channels are buffered
        #: per destination and transmitted as CoalescedBatch envelopes.
        self._coalescers: Dict[str, ChannelCoalescer] = {}
        #: req_id -> future of a request awaiting its reply (:meth:`track`).
        self._requests: Dict[int, Future] = {}
        self._req_seq = itertools.count()
        #: channel -> its tally; kept when the channel is torn down, so
        #: its counts outlive it as pushed counters would.
        self._tallies: Dict[str, _ChannelTally] = {}
        if stats is not None:
            stats.register(self._collect)
        fabric.register_sink(rank, self._dispatch)

    def register_channel(self, name: str, handler: ChannelHandler) -> None:
        if name in self._handlers:
            raise CommError(
                f"channel {name!r} already registered on rank {self.rank}"
            )
        self._handlers[name] = handler
        self._tallies.setdefault(name, _ChannelTally())

    def _collect(self, counters: Dict, histograms: Dict) -> None:
        for channel, t in self._tallies.items():
            if t.n:
                counters[(channel, "msgs_sent")] += t.n
                counters[(channel, "bytes_sent")] += t.bytes_sent
                histograms[(channel, "msg_size")].merge(t)
            if t.msgs_received:
                counters[(channel, "msgs_received")] += t.msgs_received

    def unregister_channel(self, name: str) -> None:
        """Tear down ``name``: pending coalesced messages are flushed first,
        then the handler, retry policy, and coalescer are dropped. Messages
        still in flight to this channel raise at delivery — unregister at
        quiesce points."""
        if name not in self._handlers:
            raise CommError(
                f"channel {name!r} not registered on rank {self.rank}"
            )
        co = self._coalescers.pop(name, None)
        if co is not None:
            co.flush(reason="teardown")
        del self._handlers[name]
        self._retry.pop(name, None)

    def close(self) -> None:
        """Tear down every channel and detach this mux from the fabric, so
        a replacement mux can claim the rank without ``replace=True``."""
        for name in list(self._handlers):
            self.unregister_channel(name)
        self.fabric.unregister_sink(self.rank)

    def channels(self) -> List[str]:
        """Registered channel names (registration order)."""
        return list(self._handlers)

    # ------------------------------------------------------------------
    def enable_coalescing(
        self, channel: str, policy: Union[CoalescePolicy, bool, None] = None,
    ) -> ChannelCoalescer:
        """Buffer sends on ``channel`` per destination and transmit packed
        :class:`CoalescedBatch` envelopes per ``policy`` (None or True: the
        default :class:`CoalescePolicy`). Opt-in: virtual-time schedules
        change (for the better, usually) when enabled. Returns the
        coalescer."""
        if channel not in self._handlers:
            raise CommError(
                f"cannot coalesce unregistered channel {channel!r} "
                f"(rank {self.rank})"
            )
        if channel in self._coalescers:
            raise CommError(
                f"coalescing already enabled on channel {channel!r} "
                f"(rank {self.rank})"
            )
        co = ChannelCoalescer(
            self, channel,
            policy if isinstance(policy, CoalescePolicy) else CoalescePolicy())
        self._coalescers[channel] = co
        return co

    def coalescer(self, channel: str) -> Optional[ChannelCoalescer]:
        return self._coalescers.get(channel)

    def flush(self, channel: Optional[str] = None,
              dst: Optional[int] = None) -> int:
        """Explicitly flush coalescing buffers (one channel or all; one
        destination or all). Ordering points — SHMEM ``quiet``, MPI waits on
        buffered sends, barriers — call this. Returns batches transmitted."""
        if channel is not None:
            co = self._coalescers.get(channel)
            return co.flush(dst) if co is not None else 0
        return sum(co.flush(dst) for co in self._coalescers.values())

    def set_retry_policy(self, channel: str, policy) -> None:
        """Retransmit dropped/corrupted messages on ``channel`` per
        ``policy`` (a :class:`repro.resilience.RetryPolicy`). The fabric
        reports fault verdicts synchronously at send time
        (:attr:`SimFabric.last_faults`), so retransmission is deterministic
        and requires no acknowledgement protocol. Retransmits relax the
        pairwise-FIFO guarantee for the retried message (as on real
        networks); see ``docs/resilience.md`` for the ordering caveats."""
        if channel not in self._handlers:
            raise CommError(
                f"cannot set a retry policy on unregistered channel "
                f"{channel!r} (rank {self.rank})"
            )
        self._retry[channel] = policy

    def charge_send(self) -> None:
        """Charge the calling task the fabric's per-message CPU send
        overhead; a no-op outside a worker (event context has no CPU)."""
        ctx = current_context()
        if ctx is not None and ctx.worker is not None:
            ctx.executor.charge(self.fabric.cpu_send_overhead())

    def charge_wave(self, n: int) -> List[float]:
        """:meth:`charge_send` ``n`` times; returns the ``n`` post-charge
        clocks, bit-equal to those of a loop of :meth:`post` calls."""
        ctx = current_context()
        if ctx is None or ctx.worker is None:
            return [self.fabric.executor.now()] * n
        ov = self.fabric.cpu_send_overhead()
        worker = ctx.worker
        clock = worker.clock
        ts: List[float] = []
        append = ts.append
        for _ in range(n):
            clock = clock + ov
            append(clock)
        worker.clock = clock
        return ts

    # ------------------------------------------------------------------
    # the send seam
    # ------------------------------------------------------------------
    def track(self, name: str = "") -> Tuple[int, Future]:
        """Register a request; returns its id and the future its
        :meth:`reply` satisfies."""
        req_id = next(self._req_seq)
        self._requests[req_id] = fut = Future(name)
        return req_id, fut

    def post(self, dst: int, channel: str, payload: Any, nbytes: int, *,
             on_injected: Optional[Callable[[float], None]] = None,
             req: Optional[int] = None) -> float:
        """:meth:`charge_send`, then :meth:`transmit`. A refused send raises
        having changed nothing (tracked ``req`` dropped, no stat counted), so
        callers count their operation after this returns."""
        self.charge_send()
        try:
            return self.transmit(dst, channel, payload, nbytes,
                                 on_injected=on_injected)
        except Exception:
            if req is not None:
                del self._requests[req]
            raise

    def post_wave(self, dsts: List[int], channel: str, payloads: List[Any],
                  nbytes: int, *, reqs: Iterable[int] = ()) -> List[float]:
        """:meth:`post` for a wave; a refused wave drops every ``reqs``."""
        ts = self.charge_wave(len(dsts))
        try:
            return self.transmit_wave(dsts, channel, payloads, nbytes, ts=ts)
        except Exception:
            for req in reqs:
                del self._requests[req]
            raise

    def reply(self, origin: int, channel: str, req_id: int, value: Any,
              nbytes: int, *, exc: bool = False) -> float:
        """Resolve ``origin``'s request ``req_id`` with ``value`` (raised
        when ``exc``). Delivery context: nothing is charged."""
        return self.transmit(origin, channel, _Reply(req_id, value, exc),
                             nbytes)

    def transmit(
        self,
        dst: int,
        channel: str,
        payload: Any,
        nbytes: int,
        *,
        on_injected: Optional[Callable[[float], None]] = None,
    ) -> float:
        if channel not in self._handlers:
            # Channels are registered symmetrically during module init, so a
            # send on an unknown channel is a local registration bug.
            raise CommError(
                f"rank {self.rank} sending on unregistered channel {channel!r}"
            )
        co = self._coalescers.get(channel)
        if co is not None:
            # Buffered: the envelope transmits at a flush point, but local
            # completion (on_injected) fires at buffer time — the caller
            # snapshotted the payload, so its buffer is already reusable.
            co.send(dst, payload, nbytes, on_injected)
            inject = self.fabric.executor.now()
        else:
            inject = self._transmit_attempt(dst, channel, payload, nbytes,
                                            on_injected, 0)
        # Counted only now: a send the fabric refused (it raised) was not
        # sent. Inline Histogram.add (the fabric refuses nbytes < 0).
        t = self._tallies[channel]
        t.bytes_sent += nbytes
        t.counts[int(nbytes).bit_length()] += 1
        t.total += nbytes
        t.n += 1
        if nbytes > t.max:
            t.max = nbytes
        return inject

    def wave_capable(self, channel: str) -> bool:
        """True when sends on ``channel`` can use :meth:`transmit_wave`:
        the channel is registered without a coalescer (waves are already
        batches; buffering them per-destination would double-batch) and the
        fabric prices waves. Fault verdicts and retries ride the wave row
        by row. Callers that fall back to a per-message loop get
        bit-identical schedules — the wave is an amortization of
        Python-level call overhead, not a timing change."""
        return (channel in self._handlers and channel not in self._coalescers
                and hasattr(self.fabric, "transmit_wave"))

    def transmit_wave(
        self,
        dsts: List[int],
        channel: str,
        payloads: List[Any],
        nbytes: int,
        *,
        ts: Optional[List[float]] = None,
    ) -> List[float]:
        """Send one message per ``(dsts[i], payloads[i])`` as a priced wave
        (see :meth:`SimFabric.transmit_wave`). ``nbytes`` is the wire size
        shared by every message; ``ts`` gives per-message issue times
        (callers that charge CPU per message pass the post-charge
        timestamps). Only valid when :meth:`wave_capable` holds for
        ``channel``."""
        if channel not in self._handlers:
            raise CommError(
                f"rank {self.rank} sending on unregistered channel {channel!r}"
            )
        fab = self.fabric
        injects = fab.transmit_wave(self.rank, dsts, nbytes,
                                    [(channel, p) for p in payloads], ts=ts)
        faults = fab.last_faults
        if faults is not None:
            if ts is None:
                ts = [fab.executor.now()] * len(dsts)
            for dst, p, verdict, t in zip(dsts, payloads, faults, ts):
                self._retry_lost(verdict, t, dst, channel, p, nbytes, 0)
        n = len(dsts)
        if n:
            t = self._tallies[channel]
            t.bytes_sent += nbytes * n
            t.counts[int(nbytes).bit_length()] += n
            total = t.total
            for _ in range(n):  # one add per message: the same float sum
                total += nbytes
            t.total = total
            t.n += n
            if nbytes > t.max:
                t.max = nbytes
        elif self.stats is not None:  # an empty wave still names its counters
            self.stats.count(channel, "msgs_sent", 0)
            self.stats.count(channel, "bytes_sent", 0)
        return injects

    def _transmit_attempt(
        self, dst: int, channel: str, payload: Any, nbytes: int,
        on_injected: Optional[Callable[[float], None]], attempt: int,
    ) -> float:
        fab = self.fabric
        # on_injected fires on the first attempt only: injection-complete
        # means "source buffer reusable", which stays true across retransmits.
        inject = fab.transmit(self.rank, dst, nbytes, (channel, payload),
                              on_injected=on_injected if attempt == 0 else None)
        faults = fab.last_faults
        if faults is not None:
            self._retry_lost(faults[0], fab.executor.now(), dst, channel,
                             payload, nbytes, attempt)
        return inject

    def _retry_lost(self, verdict: Optional[tuple], t: float, dst: int,
                    channel: str, payload: Any, nbytes: int,
                    attempt: int) -> None:
        """Schedule the retransmission of a message issued at ``t`` that
        ``verdict`` dropped or corrupted, per ``channel``'s retry policy."""
        if verdict is None or verdict[0] not in ("drop", "corrupt"):
            return
        policy = self._retry.get(channel)
        if policy is None:
            return
        if attempt + 1 < policy.max_attempts:
            if self.stats is not None:
                self.stats.count(channel, "retries")
            self.fabric.executor.call_at(
                t + policy.backoff.delay(attempt),
                lambda: self._transmit_attempt(
                    dst, channel, payload, nbytes, None, attempt + 1))
        elif self.stats is not None:
            self.stats.count(channel, "retries_exhausted")

    def _dispatch(self, src: int, wrapped: Any, time: float) -> None:
        if type(wrapped) is CorruptedPayload:
            # Models a receiver-side checksum failure: the message is
            # discarded; sender-side retransmission (set_retry_policy) is
            # what recovers it.
            if self.stats is not None:
                self.stats.count("net", "msgs_corrupt_discarded")
            return
        channel, payload = wrapped
        handler = self._handlers.get(channel)
        if handler is None:
            raise CommError(
                f"rank {self.rank} received message on unregistered channel "
                f"{channel!r} from rank {src}"
            )
        if type(payload) is CoalescedBatch:
            # Unpack and dispatch each inner payload in send order (FIFO
            # within the batch, and batches obey the fabric's pairwise FIFO).
            if self.stats is not None:
                self.stats.count(channel, "batches_received")
                self.stats.count(channel, "msgs_received", len(payload))
            for inner in payload.payloads:
                self._deliver(handler, src, inner, time)
            return
        self._tallies[channel].msgs_received += 1
        self._deliver(handler, src, payload, time)

    def _deliver(self, handler: ChannelHandler, src: int, payload: Any,
                 time: float) -> None:
        if type(payload) is not _Reply:
            handler(src, payload, time)
        elif payload.exc:
            self._requests.pop(payload.req_id)._resolve(None, payload.value)
        else:
            self._requests.pop(payload.req_id)._resolve(payload.value, None)

    @property
    def nranks(self) -> int:
        return self.fabric.nranks

    def __repr__(self) -> str:
        return f"FabricMux(rank={self.rank}, channels={sorted(self._handlers)})"
