"""Interconnect topologies: hop distances refining the wire latency.

The paper's abstract platform model (§I-A) calls for "a high-performance,
non-uniform interconnect"; the base cost model charges a flat wire latency.
A :class:`Topology` adds the non-uniformity: per-hop latency between nodes at
topological distance > 1. Three families cover the evaluation platforms:

- :class:`FlatTopology` — every pair one hop (the base model's behaviour);
- :class:`TorusTopology` — k-ary n-dimensional torus (Titan's Gemini is a
  3-D torus);
- :class:`DragonflyTopology` — groups of nodes, all-to-all between groups
  (Edison's Aries network), max 3 hops (in-group, global, in-group).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.util.errors import ConfigError


class Topology:
    """Interface: hop count between two node ids."""

    #: extra wire latency per hop beyond the first, seconds
    per_hop_latency: float = 3e-7

    def hops(self, a: int, b: int) -> int:  # pragma: no cover - interface
        raise NotImplementedError

    def extra_latency(self, a: int, b: int) -> float:
        """Latency added on top of the base one-hop wire latency."""
        if a == b:
            return 0.0
        return max(0, self.hops(a, b) - 1) * self.per_hop_latency

    def min_extra_latency(self) -> float:
        """Infimum of :meth:`extra_latency` over *distinct* node pairs.

        Feeds :meth:`repro.net.costmodel.NetworkModel.lookahead`: the
        conservative window protocol needs a lower bound on inter-node wire
        time, so this must never exceed the true minimum. All three built-in
        families contain an adjacent (one-hop) pair — extra latency 0 — so
        the base default is exact for them; a topology whose *closest*
        distinct pair is more than one hop apart should override this to
        tighten the sharded engine's lookahead.
        """
        return 0.0


class FlatTopology(Topology):
    """Uniform network: one hop between any two distinct nodes."""

    def hops(self, a: int, b: int) -> int:
        return 0 if a == b else 1


class TorusTopology(Topology):
    """k-ary n-dimensional torus (e.g. Titan's 3-D Gemini torus).

    Node ids map to coordinates in row-major order over ``dims``; hop count
    is the sum of per-dimension wrap-around distances.
    """

    def __init__(self, dims: Sequence[int], per_hop_latency: float = 3e-7):
        if not dims or any(d < 1 for d in dims):
            raise ConfigError(f"torus dims must be positive, got {dims}")
        self.dims = tuple(int(d) for d in dims)
        self.per_hop_latency = per_hop_latency

    @property
    def size(self) -> int:
        n = 1
        for d in self.dims:
            n *= d
        return n

    def coords(self, node: int) -> Tuple[int, ...]:
        if not (0 <= node < self.size):
            raise ConfigError(f"node {node} outside torus of {self.size}")
        out = []
        for d in reversed(self.dims):
            out.append(node % d)
            node //= d
        return tuple(reversed(out))

    def hops(self, a: int, b: int) -> int:
        ca, cb = self.coords(a), self.coords(b)
        total = 0
        for x, y, d in zip(ca, cb, self.dims):
            delta = abs(x - y)
            total += min(delta, d - delta)
        return total

    @classmethod
    def fit(cls, nnodes: int, ndims: int = 3,
            per_hop_latency: float = 3e-7) -> "TorusTopology":
        """Smallest near-cubic torus holding ``nnodes``."""
        if nnodes < 1:
            raise ConfigError("nnodes must be >= 1")
        side = 1
        while side ** ndims < nnodes:
            side += 1
        return cls([side] * ndims, per_hop_latency)


class DragonflyTopology(Topology):
    """Groups with all-to-all global links (Edison's Aries).

    Within a group: 1 hop. Across groups: in-group hop to the gateway,
    one global hop, in-group hop at the destination — up to 3 hops.
    """

    def __init__(self, group_size: int = 16, per_hop_latency: float = 3e-7):
        if group_size < 1:
            raise ConfigError("group_size must be >= 1")
        self.group_size = int(group_size)
        self.per_hop_latency = per_hop_latency

    def hops(self, a: int, b: int) -> int:
        if a == b:
            return 0
        if a // self.group_size == b // self.group_size:
            return 1
        return 3


TOPOLOGIES = {
    "flat": FlatTopology,
    "torus": TorusTopology,
    "dragonfly": DragonflyTopology,
}
