"""The simulated interconnect fabric: timestamped message delivery between
ranks, with per-node NIC contention and non-overtaking pairwise order.

The fabric is communication-library-agnostic: MPI matching, OpenSHMEM
symmetric-memory operations, and UPC++ RPCs are all payloads to it. Each rank
registers one *sink* callable; deliveries invoke it from event context at the
delivery timestamp.

Guarantees:

- **pairwise FIFO**: messages from rank s to rank d are delivered in the
  order `transmit` was called (MPI non-overtaking; SHMEM put ordering per
  target under the default context).
- **determinism**: identical call sequences produce identical timestamps.
- **failure atomicity**: a send that raises has priced, counted, posted and
  delivered nothing — every check runs before the first state change, and a
  wave is refused as a unit.

**Ownership.** A fabric *owns* a contiguous, node-aligned rank range
``[lo, hi)``: the whole cluster, unless the sharded engine
(:mod:`repro.exec.shards`) hands it one slice of a ``ShardPlan``. Only owned
ranks register sinks and send. A message to a rank owned elsewhere is priced
on the send side only (sender NIC, wire, topology hops) and parked in an
outbox; the window coordinator ferries it to the owning shard's fabric,
whose :meth:`SimFabric.inject_remote` finishes the receive side (receiver
NIC, pairwise FIFO) in ``(arrival, src, seq)`` order. The split follows the
cost model: what the sender's node contributes is known at send time, what
the receiver's contributes depends only on receiver-side state, and the wire
between is bounded below by :meth:`NetworkModel.lookahead`. Slices are
node-aligned, so "not owned" is one branch inside the inter-node arm.

**Two pricing sites.** The NIC → wire → NIC → FIFO recurrence is written
twice: :meth:`SimFabric.transmit` prices one message and carries the fault
verdicts; :meth:`SimFabric.transmit_wave` prices a same-size fan-out in one
loop with hoisted costs and one batched event post. Both are hot — lock-based
UTS sends ~200 k singletons, flat ISx fans out to every PE — and the caller's
message count selects between them.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.exec.sim import SimExecutor
from repro.net.costmodel import NetworkModel
from repro.net.topology import FlatTopology, Topology
from repro.util.errors import CommError, ConfigError

Sink = Callable[[int, Any, float], None]  # (src_rank, payload, time) -> None

#: Fault verdict for one transmit: ``None`` (healthy), ``("drop",)``,
#: ``("corrupt",)``, or ``("delay", extra_seconds)``.
FaultHook = Callable[[int, int, int, Any], Optional[tuple]]

#: A cross-shard message in flight: everything the owning shard needs to
#: finish pricing and deliver it. ``seq`` is a per-sending-fabric monotone
#: counter so same-arrival messages have a deterministic total order.
WireMsg = Tuple[float, int, int, int, int, Any]  # (arrival, src, seq, dst, nbytes, payload)


class CorruptedPayload:
    """Wrapper marking a payload corrupted in flight.

    Delivered in place of the original so receivers model a checksum
    failure: :class:`~repro.net.mux.FabricMux` discards it (sender-side
    retransmission recovers); raw sinks may inspect ``original``.
    """

    __slots__ = ("original",)

    def __init__(self, original: Any):
        self.original = original

    def __repr__(self) -> str:
        return f"CorruptedPayload({self.original!r})"


def _deliver(item: tuple) -> None:
    """Delivery trampoline — one shared function for every delivery event,
    scalar or batched, instead of one closure per message."""
    sink, src, payload, delivery = item
    sink(src, payload, delivery)


def channel_of(payload: Any) -> Optional[str]:
    """The mux channel ``payload`` travels on, or None for a raw payload.
    Payloads from a FabricMux arrive as (channel, inner); the channel doubles
    as the owning module's name in traces and fault rules."""
    if isinstance(payload, tuple) and payload and isinstance(payload[0], str):
        return payload[0]
    return None


class SimFabric:
    """Message transport in virtual time for the ranks ``[lo, hi)`` it owns."""

    def __init__(
        self,
        executor: SimExecutor,
        nranks: int,
        network: NetworkModel,
        ranks_per_node: int = 1,
        topology: Optional[Topology] = None,
        max_message_bytes: Optional[int] = None,
        *,
        plan=None,
        shard_id: int = 0,
    ):
        if nranks < 1:
            raise ConfigError(f"nranks must be >= 1, got {nranks}")
        if ranks_per_node < 1:
            raise ConfigError(f"ranks_per_node must be >= 1, got {ranks_per_node}")
        self.executor = executor
        self.nranks = nranks
        self.network = network
        self.ranks_per_node = ranks_per_node
        #: Hop-distance model refining the wire latency (paper §I-A's
        #: "non-uniform interconnect"); flat (uniform) by default.
        self.topology = topology if topology is not None else FlatTopology()
        self.nnodes = (nranks + ranks_per_node - 1) // ranks_per_node
        #: The owned slice: shard ``shard_id`` of ``plan`` (a
        #: :class:`repro.exec.shards.ShardPlan`), or everything without one.
        self.plan = plan
        self.shard_id = shard_id
        self.lo, self.hi = (0, nranks) if plan is None else plan.bounds[shard_id]
        self._sinks: Dict[int, Sink] = {}
        # Per-node NIC availability times (the congestion state).
        self._tx_avail: List[float] = [0.0] * self.nnodes
        self._rx_avail: List[float] = [0.0] * self.nnodes
        # Pairwise FIFO: last delivery time per (src, dst).
        self._pair_last: Dict[int, float] = {}
        #: Messages to ranks owned elsewhere, awaiting the next window
        #: barrier, keyed by destination shard.
        self._outboxes: Dict[int, List[WireMsg]] = {}
        self._send_seq = 0
        self.messages_sent = 0
        self.bytes_sent = 0
        self.cross_shard_msgs = 0
        self.cross_shard_bytes = 0
        if max_message_bytes is not None and max_message_bytes < 1:
            raise ConfigError(
                f"max_message_bytes must be >= 1, got {max_message_bytes}")
        #: Optional MTU-style payload ceiling; oversized sends raise CommError.
        self.max_message_bytes = max_message_bytes
        #: Optional fault-injection hook (``repro.resilience``): called per
        #: transmit, returns a verdict tuple or None. One attribute load +
        #: None test per message is the entire no-fault cost.
        self.fault_hook: Optional[FaultHook] = None
        #: Verdict applied to the most recent transmit (None = delivered
        #: clean). Senders with retry policies read this synchronously.
        self.last_fault: Optional[tuple] = None
        self.messages_dropped = 0
        self.messages_corrupted = 0
        self.messages_delayed = 0

    # ------------------------------------------------------------------
    def node_of(self, rank: int) -> int:
        self._check_rank(rank)
        return rank // self.ranks_per_node

    def _check_rank(self, rank: int) -> None:
        if not (0 <= rank < self.nranks):
            raise CommError(f"rank {rank} out of range [0, {self.nranks})")

    def _refuse_unowned(self, rank: int, doing: str) -> None:
        self._check_rank(rank)
        raise CommError(
            f"shard {self.shard_id} owns ranks [{self.lo}, {self.hi}) and "
            f"cannot {doing} rank {rank}")

    def _check_send(self, src: int, nbytes: int) -> None:
        if not (self.lo <= src < self.hi):
            self._refuse_unowned(src, "send on behalf of")
        if nbytes < 0:
            raise CommError(f"negative message size {nbytes}")
        if self.max_message_bytes is not None and nbytes > self.max_message_bytes:
            raise CommError(
                f"message of {nbytes} bytes exceeds fabric limit of "
                f"{self.max_message_bytes} bytes (fragment it)")

    def _sink_for(self, dst: int) -> Optional[Sink]:
        """``dst``'s sink, or None when another shard owns ``dst``; raises
        on everything that makes ``dst`` unreachable."""
        if self.lo <= dst < self.hi:
            sink = self._sinks.get(dst)
            if sink is None:
                raise CommError(
                    f"rank {dst} has no registered message sink; was its "
                    "communication backend initialized?")
            return sink
        self._check_rank(dst)
        if self.fault_hook is not None:
            raise CommError(
                "fault injection is not supported across shards; run with "
                "shards=1")
        return None

    def register_sink(self, rank: int, sink: Sink, *, replace: bool = False) -> None:
        """Attach owned ``rank``'s message sink. A rank has exactly one sink;
        re-registering raises unless ``replace=True`` (tests that rebuild a
        rank's mux, failover to a fresh endpoint)."""
        if not (self.lo <= rank < self.hi):
            self._refuse_unowned(rank, "register a sink for")
        if rank in self._sinks and not replace:
            raise CommError(f"rank {rank} already has a registered sink")
        self._sinks[rank] = sink

    def unregister_sink(self, rank: int) -> None:
        """Detach ``rank``'s sink. New transmits to the rank raise
        :class:`CommError` until a replacement is registered; messages
        already in flight deliver to the sink bound at send time."""
        self._check_rank(rank)
        if rank not in self._sinks:
            raise CommError(f"rank {rank} has no registered sink")
        del self._sinks[rank]

    # ------------------------------------------------------------------
    def transmit(
        self,
        src: int,
        dst: int,
        nbytes: int,
        payload: Any,
        *,
        on_injected: Optional[Callable[[float], None]] = None,
    ) -> float:
        """Send ``payload`` (conceptually ``nbytes`` long) from src to dst.

        Returns the *injection-complete* time (source buffer reusable; the
        completion point of buffered/eager sends). ``on_injected`` fires as an
        event at that time. The destination sink fires at delivery time.

        Must be called from a context where ``executor.now()`` is meaningful
        (a task on the src rank, or an event callback). A refused send
        (:class:`CommError`) has changed nothing.
        """
        self._check_send(src, nbytes)
        sink = self._sink_for(dst)
        hook = self.fault_hook
        verdict = hook(src, dst, nbytes, payload) if hook is not None else None
        # Every check has passed: from here on the message counts as sent.
        self.last_fault = verdict
        self.messages_sent += 1
        self.bytes_sent += nbytes
        net = self.network
        t = self.executor.now()
        s_node, d_node = src // self.ranks_per_node, dst // self.ranks_per_node

        if src == dst:
            inject_done = t
            delivery = t  # self-sends complete immediately (local copy)
        elif s_node == d_node:
            inject_done = t + net.intra_node_time(nbytes)
            delivery = inject_done
        else:
            ser = net.serialization_time(nbytes)
            tx_start = max(t, self._tx_avail[s_node])
            self._tx_avail[s_node] = tx_start + ser
            inject_done = tx_start + ser
            arrival = (inject_done + net.latency
                       + self.topology.extra_latency(s_node, d_node))
            if sink is None:
                # Owned elsewhere: that shard finishes the receive half
                # (inject_remote); nothing is delivered or traced here.
                self._park(arrival, src, dst, nbytes, payload)
                if on_injected is not None:
                    self.executor.call_at(inject_done, on_injected, inject_done)
                return inject_done
            rx_start = max(arrival, self._rx_avail[d_node])
            self._rx_avail[d_node] = rx_start + ser
            delivery = rx_start + ser

        kind = verdict[0] if verdict is not None else None
        if kind == "delay":
            # Extra in-flight latency, applied before the FIFO clamp so later
            # messages on the pair cannot overtake the delayed one.
            delivery += verdict[1]
            self.messages_delayed += 1

        if on_injected is not None:
            self.executor.call_at(inject_done, on_injected, inject_done)

        if kind == "drop":
            # Lost in flight: injection completed (the source buffer is
            # reusable) but nothing arrives and the pairwise-FIFO clamp does
            # not advance — later messages legitimately overtake a lost one.
            self.messages_dropped += 1
            return inject_done

        # Pairwise FIFO: never deliver before an earlier message on the pair.
        key = src * self.nranks + dst
        prev = self._pair_last.get(key, 0.0)
        delivery = max(delivery, prev)
        self._pair_last[key] = delivery

        tracer = self.executor.tracer
        if tracer is not None:
            tracer.record_message(src, dst, channel_of(payload) or "net",
                                  nbytes, t, delivery)

        if kind == "corrupt":
            self.messages_corrupted += 1
            payload = CorruptedPayload(payload)
        self.executor.call_at(delivery, _deliver,
                              (sink, src, payload, delivery))
        return inject_done

    # ------------------------------------------------------------------
    def transmit_wave(
        self,
        src: int,
        dsts: Sequence[int],
        nbytes: int,
        payloads: Sequence[Any],
        *,
        ts: Optional[Sequence[float]] = None,
    ) -> List[float]:
        """Price and post a whole wave of ``nbytes``-sized messages from
        ``src`` in one call.

        Semantically a loop of :meth:`transmit` over ``(dsts[i],
        payloads[i])`` issued at times ``ts[i]`` (default: ``executor.now()``
        for every message) — and *bit-for-bit* so: the per-message costs come
        from the same IEEE operations in the same order, the sequential NIC
        availability and pairwise-FIFO recurrences run per message, and the
        delivery events are posted in loop order so same-timestamp cohorts
        dispatch identically. What the wave saves is the per-message call
        chain: the costs are computed once and all deliveries are posted
        with a single ``call_at_batch``.

        The one difference is failure: a wave is validated whole before
        anything is priced, so a bad message refuses the wave as a unit where
        the scalar loop would already have sent the messages before it.

        Fault injection is inherently per-message (verdicts feed retry
        state), so waves refuse to run with a ``fault_hook`` installed —
        callers check :meth:`FabricMux.wave_capable` and fall back to the
        scalar loop. Returns the per-message injection-complete times.
        """
        if self.fault_hook is not None:
            raise CommError(
                "transmit_wave does not support fault injection; check "
                "wave_capable() and fall back to per-message transmit")
        self._check_send(src, nbytes)
        n = len(dsts)
        if len(payloads) != n or (ts is not None and len(ts) != n):
            raise CommError(
                f"wave length mismatch: {n} destinations, {len(payloads)} "
                f"payloads, {n if ts is None else len(ts)} issue times")
        # Only owned ranks register, so one dict lookup per destination finds
        # every local sink; a None is unowned or unreachable, and _sink_for
        # tells which.
        sinks = list(map(self._sinks.get, dsts))
        if None in sinks:
            for dst, sink in zip(dsts, sinks):
                if sink is None:
                    self._sink_for(dst)
        if ts is None:
            ts = [self.executor.now()] * n
        net = self.network
        # Constant wire size: the costs are shared by every message (same
        # inputs -> same floats as per-message calls).
        ser = net.serialization_time(nbytes)
        intra = net.intra_node_time(nbytes)
        rpn = self.ranks_per_node
        s_node = src // rpn
        lat = net.latency
        topo = self.topology
        tx_avail = self._tx_avail
        rx_avail = self._rx_avail
        pair_last = self._pair_last
        nranks = self.nranks
        tracer = self.executor.tracer
        self.last_fault = None

        injects: List[float] = []
        deliveries: List[float] = []
        items: List[tuple] = []
        for dst, t, payload, sink in zip(dsts, ts, payloads, sinks):
            if src == dst:
                inject_done = t
                delivery = t
            elif dst // rpn == s_node:
                inject_done = t + intra
                delivery = inject_done
            else:
                avail = tx_avail[s_node]
                tx_start = avail if avail > t else t
                tx_avail[s_node] = inject_done = tx_start + ser
                d_node = dst // rpn
                arrival = inject_done + lat + topo.extra_latency(s_node, d_node)
                if sink is None:  # owned elsewhere, as in transmit
                    self._park(arrival, src, dst, nbytes, payload)
                    injects.append(inject_done)
                    continue
                avail = rx_avail[d_node]
                rx_start = avail if avail > arrival else arrival
                rx_avail[d_node] = delivery = rx_start + ser

            key = src * nranks + dst
            prev = pair_last.get(key, 0.0)
            if prev > delivery:
                delivery = prev
            pair_last[key] = delivery
            if tracer is not None:
                tracer.record_message(src, dst, channel_of(payload) or "net",
                                      nbytes, t, delivery)
            injects.append(inject_done)
            deliveries.append(delivery)
            items.append((sink, src, payload, delivery))

        self.messages_sent += n
        self.bytes_sent += nbytes * n
        self.executor.call_at_batch(deliveries, _deliver, items)
        return injects

    # ------------------------------------------------------------------
    def _park(self, arrival: float, src: int, dst: int, nbytes: int,
              payload: Any) -> None:
        """Queue a message priced up to its arrival at ``dst``'s node for the
        shard that owns ``dst``."""
        seq = self._send_seq
        self._send_seq = seq + 1
        self.cross_shard_msgs += 1
        self.cross_shard_bytes += nbytes
        self._outboxes.setdefault(self.plan.shard_of(dst), []).append(
            (arrival, src, seq, dst, nbytes, payload))

    def take_outboxes(self) -> Dict[int, List[WireMsg]]:
        """Drain and return the per-destination-shard outboxes."""
        out, self._outboxes = self._outboxes, {}
        return out

    def inject_remote(self, msgs: Sequence[WireMsg]) -> None:
        """Finish pricing and post messages other shards parked for ranks
        owned here.

        Called at a window barrier with every message routed to this shard
        this round. Messages are applied in ``(arrival, src, seq)`` order —
        a total order identical on every replay, and consistent with
        per-pair send order because sender-NIC serialization makes arrivals
        monotone per source — then run through the receiver-side recurrences
        (NIC availability, pairwise FIFO) exactly as a local send would.
        """
        net = self.network
        rpn = self.ranks_per_node
        deliveries: List[float] = []
        items: List[tuple] = []
        for arrival, src, _seq, dst, nb, payload in sorted(
                msgs, key=lambda m: (m[0], m[1], m[2])):
            sink = self._sink_for(dst)
            if sink is None:  # mis-routed by the coordinator
                self._refuse_unowned(dst, "deliver to")
            d_node = dst // rpn
            ser = net.serialization_time(nb)
            rx_start = max(arrival, self._rx_avail[d_node])
            self._rx_avail[d_node] = delivery = rx_start + ser
            key = src * self.nranks + dst
            prev = self._pair_last.get(key, 0.0)
            delivery = max(delivery, prev)
            self._pair_last[key] = delivery
            deliveries.append(delivery)
            items.append((sink, src, payload, delivery))
        self.executor.call_at_batch(deliveries, _deliver, items)

    # ------------------------------------------------------------------
    def cpu_send_overhead(self) -> float:
        """CPU seconds a sending task should ``charge`` per message."""
        return self.network.cpu_overhead

    def __repr__(self) -> str:
        return (
            f"SimFabric(ranks=[{self.lo}, {self.hi}) of {self.nranks}, "
            f"nodes={self.nnodes}, net={self.network.name!r}, "
            f"msgs={self.messages_sent}, cross={self.cross_shard_msgs})"
        )
