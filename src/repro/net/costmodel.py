"""LogGP-style interconnect cost model (DESIGN.md §2 substitution for the
Cray Aries/Gemini networks of Edison/Titan).

A message of ``n`` bytes from rank *s* to rank *d*:

- **intra-node** (same node): shared-memory copy — ``intra_latency + n /
  intra_bandwidth``; no NIC involvement.
- **inter-node**: the *sender's node NIC* serializes the message
  (``inj_overhead + n / bandwidth``), the wire adds ``latency``, and the
  *receiver's node NIC* serializes it again on the way in. NICs are per-NODE
  resources shared by every rank on the node — this is what makes flat
  (process-per-core) all-to-alls collapse at scale while hybrid
  (process-per-node) runs survive, the central shape of the paper's Fig. 5.

Incast and outcast congestion emerge from NIC availability times rather than
an explicit congestion term, keeping the model deterministic and composable.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.util.errors import ConfigError


@dataclasses.dataclass(frozen=True)
class NetworkModel:
    """Interconnect parameters (seconds / bytes-per-second)."""

    name: str = "generic"
    latency: float = 1.5e-6          # wire latency, one way
    bandwidth: float = 8e9           # per-NIC serialization bandwidth
    inj_overhead: float = 1.0e-6     # per-message overhead at each NIC
    intra_latency: float = 4e-7      # same-node rank-to-rank latency
    intra_bandwidth: float = 3e10    # same-node copy bandwidth
    cpu_overhead: float = 4e-7       # CPU time charged to the sending task
    #: Wire framing of a coalesced envelope: one batch header plus a small
    #: per-message header. A batch of n messages pays ``inj_overhead`` ONCE
    #: (that is the amortization coalescing buys) but still carries
    #: ``batch_header_bytes + n * msg_header_bytes`` of framing.
    batch_header_bytes: int = 32
    msg_header_bytes: int = 8

    def __post_init__(self):
        for field in ("latency", "bandwidth", "inj_overhead", "intra_latency",
                      "intra_bandwidth", "cpu_overhead", "batch_header_bytes",
                      "msg_header_bytes"):
            value = getattr(self, field)
            if not value >= 0:  # also rejects NaN, which compares False
                raise ConfigError(f"network parameter {field} must be a "
                                  f"non-negative number, got {value!r}")
        if self.bandwidth == 0 or self.intra_bandwidth == 0:
            raise ConfigError("bandwidths must be positive")

    def intra_node_time(self, nbytes: int) -> float:
        return self.intra_latency + nbytes / self.intra_bandwidth

    def serialization_time(self, nbytes: int) -> float:
        """Time one NIC is busy with this message (either direction)."""
        return self.inj_overhead + nbytes / self.bandwidth

    def batch_wire_bytes(self, payload_bytes: int, count: int) -> int:
        """Wire size of a coalesced envelope carrying ``count`` messages
        totalling ``payload_bytes`` of payload."""
        return payload_bytes + self.batch_header_bytes + count * self.msg_header_bytes

    def lookahead(self, topology=None) -> float:
        """Minimum wire time between ranks on *different* nodes — the
        conservative-window lookahead of the sharded DES engine.

        Every inter-node message, coalesced or not, is serialized by the
        sending NIC and again by the receiving NIC (``>= inj_overhead``
        each — a coalesced envelope is still one message and pays both),
        plus the one-way wire ``latency``; a ``topology`` adds its minimum
        extra hop latency between distinct nodes. Nothing sent at virtual
        time ``t`` can therefore be *delivered* before ``t + lookahead``,
        which is the bound that makes windowed shard execution safe.

        Raises :class:`ConfigError` when the bound is not strictly positive:
        a zero lookahead would let cross-shard messages take effect inside
        the window they were sent in, livelocking the protocol.
        """
        extra = topology.min_extra_latency() if topology is not None else 0.0
        bound = 2.0 * self.inj_overhead + self.latency + extra
        if not bound > 0.0:
            raise ConfigError(
                f"network {self.name!r} reports non-positive lookahead "
                f"{bound}; the conservative window protocol needs a positive "
                "minimum wire time (set latency or inj_overhead > 0)")
        return bound


#: Interconnects of the paper's evaluation machines (§III-A). Parameters are
#: public rough figures for Aries (XC30) and Gemini (XK7); the reproduction
#: needs relative magnitudes, not exact values.
NETWORKS: Dict[str, NetworkModel] = {
    "aries": NetworkModel(
        name="aries", latency=1.3e-6, bandwidth=8e9, inj_overhead=8e-7
    ),
    "gemini": NetworkModel(
        name="gemini", latency=1.5e-6, bandwidth=5e9, inj_overhead=1.2e-6
    ),
    "generic": NetworkModel(),
}


def network(name: str) -> NetworkModel:
    try:
        return NETWORKS[name]
    except KeyError:
        raise ConfigError(
            f"unknown network {name!r}; known: {sorted(NETWORKS)}"
        ) from None
