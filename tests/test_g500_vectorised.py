"""The vectorised Graph500 BFS pieces against their scalar references.

``neighbors``, ``serial_bfs``, ``validate_bfs`` and the differential's
chunked BFS must reproduce ``tests/g500_reference.py`` exactly: the same
pairs in the same order, the same levels, the same return value, and the
same exception type and message — on random edge lists with self-loops and
duplicates, and on parent arrays broken in each of the ways the validator
distinguishes.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.graph500.common import (
    Graph500Config,
    build_csr,
    kronecker_edges,
    neighbors,
    pick_root,
    serial_bfs,
    validate_bfs,
)
from repro.verify.differential import graph500_workload, run_on_engine
from tests import g500_reference as ref

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def graphs(draw):
    """A raw edge list on 2^scale vertices (scale 2-7) that always holds a
    self-loop and a duplicated edge, plus a root (an edge's endpoint or any
    vertex, isolated ones included)."""
    scale = draw(st.integers(2, 7))
    n = 1 << scale
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 3 * n))
    edges = rng.integers(0, n, size=(2, m))
    loops = rng.integers(0, n, size=draw(st.integers(1, 3)))
    dups = edges[:, rng.integers(0, m, size=draw(st.integers(1, 3)))]
    edges = np.concatenate([edges, np.stack([loops, loops]), dups], axis=1)
    edges = edges[:, rng.permutation(edges.shape[1])]
    cfg = Graph500Config(scale=scale, edgefactor=1)
    root = draw(st.one_of(st.integers(0, n - 1),
                          st.sampled_from(edges[0].tolist())))
    return cfg, edges, root


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the verdict is the outcome
        return (type(exc), str(exc))


@SETTINGS
@given(graphs(), st.data())
def test_neighbors_is_the_slice_loop(graph, data):
    cfg, edges, _ = graph
    rows, cols = build_csr(edges, cfg.nvertices)
    vertices = np.array(data.draw(st.lists(
        st.integers(0, cfg.nvertices - 1), max_size=12)), dtype=np.int64)
    got, want = neighbors(rows, cols, vertices), ref.adjacency_pairs(
        rows, cols, vertices)
    for g, w in zip(got, want):
        assert g.dtype == np.int64
        assert np.array_equal(g, w)


@SETTINGS
@given(graphs())
def test_serial_bfs_levels_equal_the_queue_bfs(graph):
    cfg, edges, root = graph
    rows, cols = build_csr(edges, cfg.nvertices)
    assert np.array_equal(serial_bfs(rows, cols, root),
                          ref.serial_bfs(rows, cols, root))


MUTATIONS = ("non_edge", "garbage", "self", "two_cycle", "too_deep", "drop")


def mutate(kind, data, edges, root, parent, level):
    """Break ``parent`` in place the way ``kind`` says; a kind with no
    candidate in this graph leaves it valid."""
    n = parent.size
    reached = [int(v) for v in np.flatnonzero(parent >= 0) if v != root]

    def pick(seq):
        return seq[data.draw(st.integers(0, len(seq) - 1))]

    if kind == "drop":
        parent[pick(reached + [root])] = -1
    elif not reached:
        return
    elif kind == "non_edge":
        parent[pick(reached)] = data.draw(st.integers(0, n - 1))
    elif kind == "garbage":
        parent[pick(reached)] = n + data.draw(st.integers(0, 3 * n))
    elif kind == "self":
        v = pick(reached)
        parent[v] = v
    elif kind == "two_cycle":
        both = [(int(a), int(b)) for a, b in edges.T
                if a != b and parent[a] >= 0 and parent[b] >= 0
                and root not in (a, b)]
        if both:
            a, b = pick(both)
            parent[a], parent[b] = b, a
    elif kind == "too_deep":
        flat = [(int(a), int(b)) for a, b in edges.T
                if a != b and level[a] >= 1 and level[a] == level[b]]
        if flat:
            a, b = pick(flat)
            parent[a] = b


@SETTINGS
@given(graphs(), st.lists(st.sampled_from(MUTATIONS), max_size=3), st.data())
def test_validator_verdicts_equal_the_set_based_reference(graph, kinds, data):
    cfg, edges, root = graph
    rows, cols = build_csr(edges, cfg.nvertices)
    level = ref.serial_bfs(rows, cols, root)
    parent = ref.queue_bfs_parent(rows, cols, root)
    for kind in kinds:
        mutate(kind, data, edges, root, parent, level)
    got = outcome(validate_bfs, cfg, edges, root, parent.copy())
    assert got == outcome(ref.validate_bfs, cfg, edges, root, parent.copy())
    if not kinds:
        assert got == ("ok", int((level >= 0).sum()))


@pytest.mark.parametrize("scale,seed,edgefactor,chunk", [
    (4, 1, 16, 128), (6, 2, 4, 4), (8, 3, 16, 128), (8, 4, 1, 8),
    (9, 5, 8, 16),
])
def test_chunked_bfs_is_the_queue_bfs(scale, seed, edgefactor, chunk):
    cfg = Graph500Config(scale=scale, seed=seed, edgefactor=edgefactor)
    edges = kronecker_edges(cfg)
    rows, cols = build_csr(edges, cfg.nvertices)
    parent = ref.queue_bfs_parent(rows, cols, pick_root(cfg, rows))
    run = run_on_engine(graph500_workload(cfg, chunk=chunk), "sim")
    assert run.result == ("graph500", int((parent >= 0).sum()),
                          hashlib.sha256(parent.tobytes()).hexdigest())
