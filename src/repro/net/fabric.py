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
  delivered nothing — every check, and the fault hook, runs before the first
  state change, and a wave is refused as a unit.

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

**One pricing step.** :meth:`SimFabric._price` is the NIC → wire → NIC →
FIFO recurrence, fault verdict included, for one checked message.
``transmit`` runs it once; ``transmit_wave`` runs it per row and posts once,
so a wave is a loop of transmits, faults and all. ``inject_remote`` keeps a
receive-only loop: its rows have no send half, no verdicts, own sizes.
"""

from __future__ import annotations

import math
from array import array
from itertools import repeat
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.exec.sim import SimExecutor
from repro.net.costmodel import NetworkModel
from repro.net.topology import FlatTopology, Topology
from repro.util.errors import CommError, ConfigError

Sink = Callable[[int, Any, float], None]  # (src_rank, payload, time) -> None

#: ``(src, dst, nbytes, payload, issue_time)`` -> the message's fault
#: verdict: ``None`` (healthy), ``("drop",)``, ``("corrupt",)``, or
#: ``("delay", extra_seconds)``.
FaultHook = Callable[[int, int, int, Any, float], Optional[tuple]]

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
        # Pairwise FIFO: last delivery time per (src, dst), flat at
        # ``src * nranks + dst``; 0.0 until the pair's first delivery.
        self._pair_last = array("d", [0.0]) * (nranks * nranks)
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
        #: message, returns a verdict tuple or None. One attribute load +
        #: None test per call is the entire no-fault cost.
        self.fault_hook: Optional[FaultHook] = None
        #: The verdicts of the latest transmit or wave, one per message
        #: (None = delivered clean); None itself when no hook is installed.
        #: Senders with retry policies read this synchronously.
        self.last_faults: Optional[List[Optional[tuple]]] = None
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
        if not nbytes >= 0:  # NaN too: max(t, nan) would lose a NIC's state
            raise CommError(f"negative message size {nbytes} (need a number >= 0)")
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
    def transmit(self, src: int, dst: int, nbytes: int, payload: Any, *,
                 on_injected: Optional[Callable[[float], None]] = None,
                 ) -> float:
        """Send ``payload`` (conceptually ``nbytes`` long) from src to dst,
        issued at ``executor.now()`` (a task on src, or an event callback).
        Returns the *injection-complete* time (source buffer reusable), at
        which ``on_injected`` fires; the destination sink fires at delivery
        time. A refused send (:class:`CommError`) has changed nothing."""
        self._check_send(src, nbytes)
        sink = self._sink_for(dst)
        t = self.executor.now()
        hook = self.fault_hook
        verdict = None if hook is None else hook(src, dst, nbytes, payload, t)
        self.last_faults = None if hook is None else [verdict]
        inject_done, delivery, payload = self._price(
            src, dst, nbytes, t, payload, sink, verdict)
        # on_injected first: a self or intra-node send stamps both events
        # with one time, and their post order is their dispatch order.
        if on_injected is not None:
            self.executor.call_at(inject_done, on_injected, inject_done)
        if delivery is not None:
            self.executor.call_at(delivery, _deliver,
                                  (sink, src, payload, delivery))
        return inject_done

    def transmit_wave(self, src: int, dsts: Sequence[int], nbytes: int,
                      payloads: Sequence[Any], *,
                      ts: Optional[Sequence[float]] = None) -> List[float]:
        """:meth:`transmit` ``(dsts[i], payloads[i])`` issued at ``ts[i]``
        (default: ``executor.now()`` for all) for every row, bit for bit —
        the same :meth:`_price` step per row, verdicts and
        :attr:`last_faults` included — with the deliveries posted in row
        order by one ``call_at_batch``. Returns the injection-complete
        times. Every check, and the fault hook for every row, runs before
        the first row is priced, so a bad row refuses the wave as a unit.
        """
        self._check_send(src, nbytes)
        n = len(dsts)
        if len(payloads) != n or (ts is not None and len(ts) != n):
            raise CommError(
                f"wave length mismatch: {n} destinations, {len(payloads)} "
                f"payloads, {n if ts is None else len(ts)} issue times")
        if ts is not None and any(map(math.isnan, ts)):
            raise CommError("wave issue time is NaN")
        # Only owned ranks register: a None is unowned or unreachable.
        sinks = list(map(self._sinks.get, dsts))
        if None in sinks:
            for dst, sink in zip(dsts, sinks):
                if sink is None:
                    self._sink_for(dst)
        if ts is None:
            ts = [self.executor.now()] * n
        hook = self.fault_hook
        self.last_faults = verdicts = None if hook is None else [
            hook(src, dst, nbytes, p, t) for dst, p, t in zip(dsts, payloads, ts)]
        price = self._price
        injects: List[float] = []
        deliveries: List[float] = []
        items: List[tuple] = []
        for dst, t, payload, sink, verdict in zip(
                dsts, ts, payloads, sinks, verdicts or repeat(None)):
            inject_done, delivery, payload = price(
                src, dst, nbytes, t, payload, sink, verdict)
            injects.append(inject_done)
            if delivery is not None:
                deliveries.append(delivery)
                items.append((sink, src, payload, delivery))
        self.executor.call_at_batch(deliveries, _deliver, items)
        return injects

    def _price(self, src: int, dst: int, nbytes: int, t: float, payload: Any,
               sink: Optional[Sink], verdict: Optional[tuple],
               ) -> Tuple[float, Optional[float], Any]:
        """Price one checked message issued at ``t`` under ``verdict``: count,
        NICs, pairwise FIFO, trace. Returns ``(inject_done, delivery,
        payload)``: ``delivery`` is None when nothing is to be posted here
        (dropped, or parked), and a corrupted ``payload`` comes back wrapped."""
        self.messages_sent += 1
        self.bytes_sent += nbytes
        net = self.network
        rpn = self.ranks_per_node
        s_node, d_node = src // rpn, dst // rpn
        if src == dst:
            inject_done = delivery = t  # self-sends complete immediately
        elif s_node == d_node:
            inject_done = delivery = t + net.intra_node_time(nbytes)
        else:
            ser = net.serialization_time(nbytes)
            avail = self._tx_avail[s_node]
            self._tx_avail[s_node] = inject_done = (
                avail if avail > t else t) + ser
            arrival = (inject_done + net.latency
                       + self.topology.extra_latency(s_node, d_node))
            if sink is None:
                # Owned elsewhere: that shard's inject_remote finishes it.
                self._park(arrival, src, dst, nbytes, payload)
                return inject_done, None, payload
            avail = self._rx_avail[d_node]
            self._rx_avail[d_node] = delivery = (
                avail if avail > arrival else arrival) + ser
        kind = verdict[0] if verdict is not None else None
        if kind == "drop":
            # Lost in flight after injection: the FIFO clamp does not
            # advance, so later messages legitimately overtake a lost one.
            self.messages_dropped += 1
            return inject_done, None, payload
        if kind == "delay":
            # Before the FIFO clamp: later messages cannot overtake it.
            delivery += verdict[1]
            self.messages_delayed += 1
        # Pairwise FIFO: never deliver before an earlier message on the pair.
        key = src * self.nranks + dst
        prev = self._pair_last[key]
        if prev > delivery:
            delivery = prev
        self._pair_last[key] = delivery
        tracer = self.executor.tracer
        if tracer is not None:
            tracer.record_message(src, dst, channel_of(payload) or "net",
                                  nbytes, t, delivery)
        if kind == "corrupt":
            self.messages_corrupted += 1
            payload = CorruptedPayload(payload)
        return inject_done, delivery, payload

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
        owned here: the receive half of :meth:`_price`.

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
            delivery = max(delivery, self._pair_last[key])
            self._pair_last[key] = delivery
            deliveries.append(delivery)
            items.append((sink, src, payload, delivery))
        self.executor.call_at_batch(deliveries, _deliver, items)

    # ------------------------------------------------------------------
    def cpu_send_overhead(self) -> float:
        """CPU seconds a sending task should ``charge`` per message."""
        return self.network.cpu_overhead

    def __repr__(self) -> str:
        return (f"SimFabric(ranks=[{self.lo}, {self.hi}) of {self.nranks}, "
                f"nodes={self.nnodes}, net={self.network.name!r}, "
                f"msgs={self.messages_sent}, cross={self.cross_shard_msgs})")
