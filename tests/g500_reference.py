"""Scalar reference implementations of the Graph500 BFS pieces.

These are the queue BFS and the set-based validator that
``repro.apps.graph500.common`` used before it was vectorised, kept verbatim
so the vectorised code has something exact to be compared against: equal
levels, equal return values, and the same exception type and message for
the same input. ``queue_bfs_parent`` is what the differential's chunked
BFS computes (a frontier expanded in order, each vertex's row in CSR
order, the first claim of a vertex winning): a FIFO BFS.
"""

from collections import deque

import numpy as np

from repro.apps.graph500.common import build_csr


def adjacency_pairs(row_starts, cols, vertices):
    """``neighbors`` as the per-vertex slice loop it replaced."""
    u, v = [], []
    for x in vertices:
        x = int(x)
        for y in cols[row_starts[x]:row_starts[x + 1]]:
            u.append(int(y))
            v.append(x)
    return np.array(u, dtype=np.int64), np.array(v, dtype=np.int64)


def serial_bfs(row_starts, cols, root):
    """Reference BFS levels; -1 for unreached vertices."""
    n = row_starts.size - 1
    level = np.full(n, -1, dtype=np.int64)
    level[root] = 0
    q = deque([root])
    while q:
        u = q.popleft()
        for v in cols[row_starts[u]:row_starts[u + 1]]:
            if level[v] < 0:
                level[v] = level[u] + 1
                q.append(int(v))
    return level


def queue_bfs_parent(row_starts, cols, root):
    """First-claim parent array of a FIFO BFS from ``root``."""
    parent = np.full(row_starts.size - 1, -1, dtype=np.int64)
    parent[root] = root
    q = deque([root])
    while q:
        v = q.popleft()
        for u in cols[row_starts[v]:row_starts[v + 1]]:
            if parent[u] < 0:
                parent[u] = v
                q.append(int(u))
    return parent


def validate_bfs(cfg, edges, root, parent):
    """Graph500 result validation; returns the number of reached vertices."""
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
    # edge-set membership of tree edges
    edge_set = set()
    for u, v in zip(edges[0].tolist(), edges[1].tolist()):
        edge_set.add((u, v))
        edge_set.add((v, u))
    # tree depth must equal true BFS distance
    depth = np.full(n, -1, dtype=np.int64)
    depth[root] = 0
    # compute depths by repeated sweeps (parent pointers form a DAG-free tree)
    pending = [v for v in reached.tolist() if v != root]
    guard = 0
    while pending:
        guard += 1
        if guard > n + 2:
            raise AssertionError("parent array contains a cycle")
        nxt = []
        for v in pending:
            p = int(parent[v])
            if (v, p) not in edge_set:
                raise AssertionError(
                    f"tree edge ({p} -> {v}) is not a graph edge"
                )
            if depth[p] >= 0:
                depth[v] = depth[p] + 1
            else:
                nxt.append(v)
        if len(nxt) == len(pending):
            raise AssertionError("parent array contains a cycle")
        pending = nxt
    mism = np.flatnonzero((truth >= 0) & (depth != truth))
    if mism.size:
        v = int(mism[0])
        raise AssertionError(
            f"vertex {v}: tree depth {int(depth[v])} != BFS distance "
            f"{int(truth[v])} (not a minimal BFS tree)"
        )
    return int(reached.size)
