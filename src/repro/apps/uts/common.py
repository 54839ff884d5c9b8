"""UTS: Unbalanced Tree Search (paper §III-C1, Fig. 7).

The benchmark counts the nodes of an implicitly-defined random tree whose
shape is deterministic but wildly unbalanced — the canonical stress test for
dynamic load balancing. The paper runs the *geometric* T1XXL tree; this
reproduction generates geometric trees of configurable expected size with the
same statistical character (root fan-out ``b0``, then geometrically
distributed child counts with mean < 1 so subtrees terminate).

Node identity is a 64-bit splitmix64 hash chain (the stand-in for UTS's SHA-1
descriptors), so any rank can expand any node with no communication — exactly
the property the real benchmark relies on.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Iterable, List, Tuple

from repro.util.errors import ConfigError
from repro.util.rng import splitmix64

#: Max children per non-root node (UTS geometric trees bound fan-out).
MAX_KIDS = 8

Node = Tuple[int, int]  # (state hash, depth)


@dataclasses.dataclass(frozen=True)
class UtsConfig:
    """T1XXL-shaped geometric tree, scaled (DESIGN.md §2 substitution)."""

    root_children: int = 120       # T1XXL: thousands; scaled down
    mean_children: float = 0.92    # subtree geometric mean (<1 terminates)
    max_depth: int = 2000          # safety bound, effectively never hit
    seed: int = 42
    #: Virtual seconds of work per tree node (T1XXL nodes hash ~1us each).
    node_cost: float = 1e-6
    chunk: int = 32                # nodes expanded per scheduled chunk

    def __post_init__(self):
        if self.root_children < 1:
            raise ConfigError("root_children must be >= 1")
        if not (0.0 <= self.mean_children < 1.0):
            raise ConfigError(
                "mean_children must be in [0, 1) so the tree terminates"
            )
        if self.chunk < 1:
            raise ConfigError("chunk must be >= 1")

    @property
    def geom_p(self) -> float:
        """Geometric parameter with mean ``mean_children`` on support {0,1,...}."""
        return 1.0 / (1.0 + self.mean_children)

    @functools.cached_property
    def log_q(self) -> float:
        """``log(1 - geom_p)``, the divisor of every child count; computed
        once per config (the config is frozen, so it cannot go stale)."""
        return math.log(1.0 - self.geom_p)


def root_node(cfg: UtsConfig) -> Node:
    return (splitmix64(cfg.seed), 0)


def child_count(cfg: UtsConfig, node: Node) -> int:
    """Deterministic child count of a node (geometric via its hash)."""
    state, depth = node
    if depth >= cfg.max_depth:
        return 0
    if depth == 0:
        return cfg.root_children
    u = ((state >> 11) & ((1 << 53) - 1)) / float(1 << 53)
    u = min(max(u, 1e-16), 1.0 - 1e-16)
    m = int(math.log(1.0 - u) / cfg.log_q)
    return min(m, MAX_KIDS)


def children(cfg: UtsConfig, node: Node) -> List[Node]:
    state, depth = node
    return [
        (splitmix64(state ^ (0x9E3779B9 * (i + 1))), depth + 1)
        for i in range(child_count(cfg, node))
    ]


def expand_chunk(cfg: UtsConfig, nodes: Iterable[Node]) -> List[Node]:
    """Expand a batch of nodes; returns all their children."""
    out: List[Node] = []
    for node in nodes:
        out.extend(children(cfg, node))
    return out


def sequential_count(cfg: UtsConfig) -> int:
    """Serial tree size (the validation oracle). Iterative DFS."""
    stack = [root_node(cfg)]
    count = 0
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(children(cfg, node))
    return count


# -- shared-stack descriptor packing (two int64 lanes per node) ----------
def pack(node: Node) -> Tuple[int, int]:
    state, depth = node
    # store the uint64 hash in a signed int64 lane
    return (state - (1 << 64) if state >= (1 << 63) else state, depth)


def unpack(lane0: int, lane1: int) -> Node:
    state = int(lane0)
    if state < 0:
        state += 1 << 64
    return (state, int(lane1))
