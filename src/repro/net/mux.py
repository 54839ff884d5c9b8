"""Per-rank protocol multiplexer over the fabric.

A rank registers exactly one sink with the fabric; multiple communication
modules (MPI, OpenSHMEM, UPC++) coexist in one process in the paper, so each
module claims a named *channel* on its rank's mux. Payloads travel as
``(channel, inner_payload)`` and are dispatched to the owning module's
handler at delivery time.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.net.coalesce import ChannelCoalescer, CoalescedBatch, CoalescePolicy
from repro.net.fabric import CorruptedPayload, SimFabric
from repro.runtime.context import current_context
from repro.util.errors import CommError

ChannelHandler = Callable[[int, Any, float], None]  # (src, payload, time)


class FabricMux:
    """One per rank; shared by every communication module on that rank.

    With a :class:`~repro.util.stats.RuntimeStats` attached, the mux accounts
    per-module communication volume — every channel is a module name, so
    ``stats.counter("mpi", "bytes_sent")`` etc. come for free for all
    communication modules (paper §V: the unified runtime sees all work,
    including every message each module moves).
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
        fabric.register_sink(rank, self._dispatch)

    def register_channel(self, name: str, handler: ChannelHandler) -> None:
        if name in self._handlers:
            raise CommError(
                f"channel {name!r} already registered on rank {self.rank}"
            )
        self._handlers[name] = handler

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
        self, channel: str, policy: Optional[CoalescePolicy] = None,
    ) -> ChannelCoalescer:
        """Buffer sends on ``channel`` per destination and transmit packed
        :class:`CoalescedBatch` envelopes per ``policy`` (default
        :class:`CoalescePolicy`). Opt-in: virtual-time schedules change (for
        the better, usually) when enabled. Returns the coalescer."""
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
        co = ChannelCoalescer(self, channel,
                              policy if policy is not None else CoalescePolicy())
        self._coalescers[channel] = co
        return co

    def disable_coalescing(self, channel: str) -> None:
        """Flush any pending buffers and route ``channel`` sends per-message
        again."""
        co = self._coalescers.pop(channel, None)
        if co is not None:
            co.flush(reason="teardown")

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
        reports a fault verdict synchronously at send time
        (:attr:`SimFabric.last_fault`), so retransmission is deterministic
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
        # Counted only now: a send the fabric refused (it raised) was not sent.
        if self.stats is not None:
            self.stats.count(channel, "msgs_sent")
            self.stats.count(channel, "bytes_sent", nbytes)
            self.stats.observe(channel, "msg_size", nbytes)
        return inject

    def wave_capable(self, channel: str) -> bool:
        """True when sends on ``channel`` can use :meth:`transmit_wave`:
        the channel is registered without a coalescer (waves are already
        batches; buffering them per-destination would double-batch), the
        fabric prices waves, and no fault hook is installed (verdicts feed
        per-message retry state). Callers that fall back to a per-message
        loop get bit-identical schedules — the wave is an amortization of
        Python-level call overhead, not a timing change."""
        return (
            channel in self._handlers
            and channel not in self._coalescers
            and self.fabric.fault_hook is None
            and hasattr(self.fabric, "transmit_wave")
        )

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
        wrapped = [(channel, p) for p in payloads]
        injects = self.fabric.transmit_wave(self.rank, dsts, nbytes, wrapped,
                                            ts=ts)
        if self.stats is not None:
            n = len(dsts)
            self.stats.count(channel, "msgs_sent", n)
            self.stats.count(channel, "bytes_sent", nbytes * n)
            for _ in range(n):
                self.stats.observe(channel, "msg_size", nbytes)
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
        verdict = fab.last_fault
        if verdict is not None and verdict[0] in ("drop", "corrupt"):
            policy = self._retry.get(channel)
            if policy is not None:
                if attempt + 1 < policy.max_attempts:
                    if self.stats is not None:
                        self.stats.count(channel, "retries")
                    fab.executor.call_later(
                        policy.backoff.delay(attempt),
                        lambda: self._transmit_attempt(
                            dst, channel, payload, nbytes, None, attempt + 1),
                    )
                elif self.stats is not None:
                    self.stats.count(channel, "retries_exhausted")
        return inject

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
                handler(src, inner, time)
            return
        if self.stats is not None:
            self.stats.count(channel, "msgs_received")
        handler(src, payload, time)

    @property
    def nranks(self) -> int:
        return self.fabric.nranks

    def __repr__(self) -> str:
        return f"FabricMux(rank={self.rank}, channels={sorted(self._handlers)})"
