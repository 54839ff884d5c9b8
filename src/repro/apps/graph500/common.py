"""Graph500: Kronecker graph generation, CSR construction, and the official
validation rules (paper §III-C2).

The generator is the specification's R-MAT/Kronecker recursion with the
standard parameters (A, B, C) = (0.57, 0.19, 0.19) and edgefactor 16,
vectorized over all edges at once. The paper ran scale 31; this reproduction
runs geometrically scaled-down graphs (DESIGN.md §2) with identical
statistical structure.

Validation follows the Graph500 result checks: the parent array must form a
tree rooted at the BFS root whose tree edges are graph edges, and the tree
depth of every reached vertex must equal its true BFS distance (which also
forces every graph edge to span at most one level).

The reference BFS and the validator are vectorised: one CSR gather
(:func:`neighbors`) expands a whole frontier at a time, edge membership is a
binary search over sorted integer edge keys, and tree depths are resolved
in sweeps over all still-pending vertices. Levels, return values, verdicts
and messages are bit-identical to the scalar queue BFS and set-based
validator kept as the reference in ``tests/g500_reference.py``.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np

from repro.util.errors import ConfigError
from repro.util.rng import RngFactory

A, B, C = 0.57, 0.19, 0.19  # Graph500 Kronecker initiator


@dataclasses.dataclass(frozen=True)
class Graph500Config:
    scale: int = 10           # N = 2^scale vertices (paper: 31)
    edgefactor: int = 16
    seed: int = 20080617

    def __post_init__(self):
        if not (2 <= self.scale <= 26):
            raise ConfigError("scale must be in [2, 26] for an in-memory run")
        if self.edgefactor < 1:
            raise ConfigError("edgefactor must be >= 1")

    @property
    def nvertices(self) -> int:
        return 1 << self.scale

    @property
    def nedges(self) -> int:
        return self.edgefactor * self.nvertices


def kronecker_edges(cfg: Graph500Config) -> np.ndarray:
    """Generate the edge list, shape (2, nedges), vertices already permuted.

    Follows the Graph500 reference octave generator: one R-MAT bit per level,
    vectorized across all edges; then a random vertex relabeling to destroy
    degree locality.
    """
    rng = RngFactory(cfg.seed).stream("kron")
    m = cfg.nedges
    ij = np.zeros((2, m), dtype=np.int64)
    ab = A + B
    c_norm = C / (1.0 - ab)
    a_norm = A / ab
    for bit in range(cfg.scale):
        ii = rng.random(m) > ab
        jj = rng.random(m) > (c_norm * ii + a_norm * (~ii))
        ij[0] += (1 << bit) * ii
        ij[1] += (1 << bit) * jj
    perm = rng.permutation(cfg.nvertices)
    ij = perm[ij]
    # shuffle edge order as the reference does
    ij = ij[:, rng.permutation(m)]
    return ij


def build_csr(edges: np.ndarray, nvertices: int) -> Tuple[np.ndarray, np.ndarray]:
    """Undirected CSR (both directions), self-loops dropped, duplicates kept
    (harmless for BFS). Returns (row_starts, columns)."""
    src = np.concatenate([edges[0], edges[1]])
    dst = np.concatenate([edges[1], edges[0]])
    keep = src != dst
    src, dst = src[keep], dst[keep]
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    row_starts = np.zeros(nvertices + 1, dtype=np.int64)
    counts = np.bincount(src, minlength=nvertices)
    np.cumsum(counts, out=row_starts[1:])
    return row_starts, dst


def neighbors(row_starts: np.ndarray, cols: np.ndarray,
              vertices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every vertex's adjacency, vertex after vertex, each in CSR order.

    Returns ``(u, v)``: ``u[k]`` is a neighbour of ``v[k]``, and the pairs
    come out in the order a loop over ``vertices`` and then over each one's
    CSR row would visit them.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    starts = row_starts[vertices]
    counts = row_starts[vertices + 1] - starts
    # output slot k of vertex i's run reads cols[starts[i] + k - first[i]],
    # first[i] being where that run begins in the output
    first = np.cumsum(counts) - counts
    idx = np.repeat(starts - first, counts) + np.arange(int(counts.sum()))
    return cols[idx], np.repeat(vertices, counts)


def serial_bfs(row_starts: np.ndarray, cols: np.ndarray, root: int) -> np.ndarray:
    """Reference BFS levels; -1 for unreached vertices."""
    n = row_starts.size - 1
    level = np.full(n, -1, dtype=np.int64)
    level[root] = 0
    frontier = np.array([root], dtype=np.int64)
    depth = 0
    while frontier.size:
        depth += 1
        u, _ = neighbors(row_starts, cols, frontier)
        frontier = np.unique(u[level[u] < 0])
        level[frontier] = depth
    return level


def pick_root(cfg: Graph500Config, row_starts: np.ndarray) -> int:
    """A deterministic non-isolated root (the spec samples search keys with
    degree > 0)."""
    rng = RngFactory(cfg.seed).stream("roots")
    n = row_starts.size - 1
    for _ in range(1000):
        r = int(rng.integers(0, n))
        if row_starts[r + 1] > row_starts[r]:
            return r
    raise ConfigError("could not find a non-isolated BFS root")


def validate_bfs(cfg: Graph500Config, edges: np.ndarray, root: int,
                 parent: np.ndarray) -> int:
    """Graph500 result validation; returns the number of reached vertices.

    Checks: root is its own parent; every reached vertex's parent edge exists
    in the graph; tree depths equal true BFS distances; the reached set is
    exactly root's connected component.
    """
    n = cfg.nvertices
    row_starts, cols = build_csr(edges, n)
    truth = serial_bfs(row_starts, cols, root)

    if parent[root] != root:
        raise AssertionError("BFS root is not its own parent")
    reached = np.flatnonzero(parent >= 0)
    want = np.flatnonzero(truth >= 0)
    if not np.array_equal(reached, want):
        raise AssertionError(
            f"reached-set mismatch: {reached.size} visited vs "
            f"{want.size} in root's component"
        )
    # Tree edges must be edges of the raw list, in either direction (self
    # loops and duplicates included), as keys u*n+v: exact in int64 for
    # n <= 2^26, which Graph500Config enforces.
    src, dst = np.asarray(edges, dtype=np.int64)
    keys = np.sort(np.concatenate([src * n + dst, dst * n + src]))
    pending = reached[reached != root]
    par = parent[pending]
    valid = par < n
    want_keys = pending * n + np.where(valid, par, 0)
    at = np.minimum(np.searchsorted(keys, want_keys), keys.size - 1)
    bad = np.flatnonzero(~valid | (keys[at] != want_keys))
    if bad.size:
        v = int(pending[bad[0]])
        raise AssertionError(
            f"tree edge ({int(parent[v])} -> {v}) is not a graph edge"
        )
    # tree depth must equal true BFS distance; each sweep settles every
    # pending vertex whose parent is settled, and one that settles none
    # proves a parent chain that never reaches the root
    depth = np.full(n, -1, dtype=np.int64)
    depth[root] = 0
    while pending.size:
        above = depth[par]
        done = above >= 0
        if not done.any():
            raise AssertionError("parent array contains a cycle")
        depth[pending[done]] = above[done] + 1
        pending, par = pending[~done], par[~done]
    mism = np.flatnonzero((truth >= 0) & (depth != truth))
    if mism.size:
        v = int(mism[0])
        raise AssertionError(
            f"vertex {v}: tree depth {int(depth[v])} != BFS distance "
            f"{int(truth[v])} (not a minimal BFS tree)"
        )
    return int(reached.size)


# -- distribution helpers ------------------------------------------------
def block_bounds(nvertices: int, nranks: int, rank: int) -> Tuple[int, int]:
    """1-D block partition of the vertex space (Graph500 reference style)."""
    per = (nvertices + nranks - 1) // nranks
    lo = min(rank * per, nvertices)
    return lo, min(lo + per, nvertices)


def owner_of(nvertices: int, nranks: int, v) -> np.ndarray:
    per = (nvertices + nranks - 1) // nranks
    return v // per
