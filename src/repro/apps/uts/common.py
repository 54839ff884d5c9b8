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

**The kernel contract.** A non-root node's child count is *defined* by a
float formula of the top 53 bits ``x`` of its hash:
``min(int(log(1 - u) / log(1 - geom_p)), MAX_KIDS)`` with ``u = x / 2**53``
(:func:`_float_child_count`). That is a monotone step function of ``x``, so
it equals ``bisect_right(cfg.thresholds, x)``: :attr:`UtsConfig.thresholds`
holds, for each k in 1..MAX_KIDS, the least ``x`` that has at least k
children, found once per config by bisecting the formula itself. The float
formula is evaluated nowhere else; tests pin the thresholds to it on random
states and around every step. Child ``i`` of a node hashes
``splitmix64(state ^ _SALT * (i + 1))``; :func:`expand_chunk` walks that in
exact integer Python (splitmix64 inlined), and :func:`sequential_count`, the
oracle every variant and back end is checked against, walks the same tree
level by level as numpy ``uint64`` arrays.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from bisect import bisect_right
from typing import Iterable, List, Tuple

import numpy as np

from repro.util.errors import ConfigError
from repro.util.rng import splitmix64

#: Max children per non-root node (UTS geometric trees bound fan-out).
MAX_KIDS = 8

Node = Tuple[int, int]  # (state hash, depth)

_M64 = (1 << 64) - 1
#: Child ``i`` of a node is ``splitmix64(state ^ _SALT * (i + 1))``.
_SALT = 0x9E3779B9
_SALTS = tuple(_SALT * (i + 1) for i in range(MAX_KIDS))
#: :func:`repro.util.rng.splitmix64`'s constants, inlined in the walks below.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _float_child_count(log_q: float, x: int) -> int:
    """The defining child count of a non-root node whose hash has top 53
    bits ``x`` (``log_q = log(1 - geom_p)``); used only to derive
    :attr:`UtsConfig.thresholds`."""
    u = x / float(1 << 53)
    u = min(max(u, 1e-16), 1.0 - 1e-16)
    return min(int(math.log(1.0 - u) / log_q), MAX_KIDS)


def _thresholds(geom_p: float) -> Tuple[int, ...]:
    """``T[k-1]``: the least ``x`` whose float child count is ``>= k``, or
    ``2**53`` (no 53-bit ``x``) if none is."""
    q = 1.0 - geom_p
    if q <= 0.0:
        # Mean 0 (or below double resolution): a geometric count that is
        # always 0. log(0) is never evaluated.
        return (1 << 53,) * MAX_KIDS
    log_q = math.log(q)
    out = []
    for k in range(1, MAX_KIDS + 1):
        lo, hi = 0, 1 << 53
        while lo < hi:
            mid = (lo + hi) // 2
            if _float_child_count(log_q, mid) >= k:
                hi = mid
            else:
                lo = mid + 1
        out.append(lo)
    return tuple(out)


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
    def thresholds(self) -> Tuple[int, ...]:
        """The ``MAX_KIDS`` ascending child-count steps: a non-root node
        whose hash has top 53 bits ``x`` has ``bisect_right(thresholds, x)``
        children. Derived once per config (frozen, so never stale)."""
        return _thresholds(self.geom_p)


def root_node(cfg: UtsConfig) -> Node:
    return (splitmix64(cfg.seed), 0)


def child_count(cfg: UtsConfig, node: Node) -> int:
    """Deterministic child count of a node (geometric via its hash)."""
    state, depth = node
    if depth >= cfg.max_depth:
        return 0
    if depth == 0:
        return cfg.root_children
    return bisect_right(cfg.thresholds, state >> 11)


def children(cfg: UtsConfig, node: Node) -> List[Node]:
    return expand_chunk(cfg, (node,))


def expand_chunk(cfg: UtsConfig, nodes: Iterable[Node]) -> List[Node]:
    """Expand a batch of nodes; returns all their children, node by node
    in input order and each node's in salt order."""
    steps = cfg.thresholds
    least = steps[0]
    max_depth, root_children = cfg.max_depth, cfg.root_children
    out: List[Node] = []
    append = out.append
    for state, depth in nodes:
        if depth >= max_depth:
            continue
        if depth:
            x = state >> 11
            if x < least:          # about half of all nodes are leaves
                continue
            salts = _SALTS[:bisect_right(steps, x)]
        else:
            salts = range(_SALT, _SALT * (root_children + 1), _SALT)
        depth += 1
        for salt in salts:
            z = ((state ^ salt) + _GAMMA) & _M64
            z = ((z ^ (z >> 30)) * _MIX1) & _M64
            z = ((z ^ (z >> 27)) * _MIX2) & _M64
            append((z ^ (z >> 31), depth))
    return out


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    """:func:`repro.util.rng.splitmix64` on a ``uint64`` array (numpy's
    ``uint64`` arithmetic wraps mod ``2**64``, which is the masking)."""
    z = x + np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def sequential_count(cfg: UtsConfig) -> int:
    """Serial tree size (the validation oracle): a level-synchronous walk,
    each level one vectorised hash of every node in it."""
    steps = np.asarray(cfg.thresholds, dtype=np.uint64)
    states = np.array([root_node(cfg)[0]], dtype=np.uint64)
    kids = np.array([cfg.root_children], dtype=np.int64)
    count, depth = 1, 0
    while depth < cfg.max_depth:
        total = int(kids.sum())
        if not total:
            break
        first = np.repeat(np.cumsum(kids) - kids, kids).astype(np.uint64)
        salt = (np.arange(1, total + 1, dtype=np.uint64) - first) \
            * np.uint64(_SALT)
        states = _splitmix64_array(np.repeat(states, kids) ^ salt)
        kids = np.searchsorted(steps, states >> np.uint64(11), side="right")
        count += total
        depth += 1
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
