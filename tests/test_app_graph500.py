"""Graph500: generator statistics, CSR, validator, and both BFS variants."""

import re

import numpy as np
import pytest

from repro.apps.graph500 import (
    Graph500Config,
    block_bounds,
    build_csr,
    graph500_main,
    kronecker_edges,
    owner_of,
    pick_root,
    serial_bfs,
    validate_bfs,
)
from repro.distrib import ClusterConfig, spmd_run
from repro.mpi import mpi_factory
from repro.platform import machine
from repro.shmem import shmem_factory
from repro.util.errors import ConfigError


def run_g500(variant, cfg, nranks=4, workers=2):
    cluster = ClusterConfig(nodes=nranks, ranks_per_node=1,
                            workers_per_rank=workers,
                            machine=machine("edison"))
    return spmd_run(graph500_main(variant, cfg), cluster,
                    module_factories=[mpi_factory(), shmem_factory()])


def assemble_parent(cfg, res):
    parent = np.full(cfg.nvertices, -1, dtype=np.int64)
    for r, blk in enumerate(res.results):
        lo, hi = block_bounds(cfg.nvertices, res.nranks, r)
        parent[lo:hi] = blk
    return parent


class TestGenerator:
    def test_edge_count_and_bounds(self):
        cfg = Graph500Config(scale=8)
        edges = kronecker_edges(cfg)
        assert edges.shape == (2, cfg.nedges)
        assert edges.min() >= 0 and edges.max() < cfg.nvertices

    def test_deterministic(self):
        cfg = Graph500Config(scale=7)
        assert np.array_equal(kronecker_edges(cfg), kronecker_edges(cfg))

    def test_seed_changes_graph(self):
        a = kronecker_edges(Graph500Config(scale=7, seed=1))
        b = kronecker_edges(Graph500Config(scale=7, seed=2))
        assert not np.array_equal(a, b)

    def test_rmat_skew(self):
        """Kronecker graphs are heavy-tailed: the max degree far exceeds the
        mean degree."""
        cfg = Graph500Config(scale=10)
        rows, cols = build_csr(kronecker_edges(cfg), cfg.nvertices)
        degrees = np.diff(rows)
        assert degrees.max() > 8 * degrees.mean()

    def test_config_bounds(self):
        with pytest.raises(ConfigError):
            Graph500Config(scale=1)
        with pytest.raises(ConfigError):
            Graph500Config(edgefactor=0)


class TestCsrAndSerialBfs:
    def test_csr_is_symmetric(self):
        cfg = Graph500Config(scale=6)
        rows, cols = build_csr(kronecker_edges(cfg), cfg.nvertices)
        # u in adj(v) iff v in adj(u)
        adj = [set(cols[rows[v]:rows[v+1]].tolist()) for v in range(cfg.nvertices)]
        for u in range(cfg.nvertices):
            for v in adj[u]:
                assert u in adj[v]

    def test_no_self_loops(self):
        cfg = Graph500Config(scale=6)
        rows, cols = build_csr(kronecker_edges(cfg), cfg.nvertices)
        for v in range(cfg.nvertices):
            assert v not in cols[rows[v]:rows[v+1]]

    def test_serial_bfs_levels_triangle_inequality(self):
        cfg = Graph500Config(scale=7)
        rows, cols = build_csr(kronecker_edges(cfg), cfg.nvertices)
        root = pick_root(cfg, rows)
        level = serial_bfs(rows, cols, root)
        assert level[root] == 0
        for u in range(cfg.nvertices):
            if level[u] < 0:
                continue
            for v in cols[rows[u]:rows[u+1]]:
                assert level[v] >= 0 and abs(level[v] - level[u]) <= 1

    def test_block_bounds_partition(self):
        n, p = 1000, 7
        covered = []
        for r in range(p):
            lo, hi = block_bounds(n, p, r)
            covered.extend(range(lo, hi))
        assert covered == list(range(n))

    def test_owner_of_matches_bounds(self):
        n, p = 100, 3
        for v in range(n):
            o = int(owner_of(n, p, np.array([v]))[0])
            lo, hi = block_bounds(n, p, o)
            assert lo <= v < hi


class TestValidator:
    def _setup(self, scale=6):
        cfg = Graph500Config(scale=scale)
        edges = kronecker_edges(cfg)
        rows, cols = build_csr(edges, cfg.nvertices)
        root = pick_root(cfg, rows)
        level = serial_bfs(rows, cols, root)
        # build a genuine BFS parent array serially
        parent = np.full(cfg.nvertices, -1, dtype=np.int64)
        parent[root] = root
        order = np.argsort(level + (level < 0) * 10**9)
        for v in order:
            if level[v] <= 0:
                continue
            for u in cols[rows[v]:rows[v+1]]:
                if level[u] == level[v] - 1:
                    parent[v] = u
                    break
        return cfg, edges, root, parent

    def test_accepts_valid_tree(self):
        cfg, edges, root, parent = self._setup()
        assert validate_bfs(cfg, edges, root, parent) > 0

    def test_rejects_non_edge_parent(self):
        cfg, edges, root, parent = self._setup()
        reached = np.flatnonzero(parent >= 0)
        v = int(reached[reached != root][0])
        parent[v] = v  # self-parent is not a graph edge
        with pytest.raises(AssertionError):
            validate_bfs(cfg, edges, root, parent)

    def test_rejects_wrong_reached_set(self):
        cfg, edges, root, parent = self._setup()
        reached = np.flatnonzero(parent >= 0)
        v = int(reached[reached != root][-1])
        parent[v] = -1
        with pytest.raises(AssertionError, match="reached-set"):
            validate_bfs(cfg, edges, root, parent)

    def test_rejects_a_cycle_of_graph_edges(self):
        cfg, edges, root, parent = self._setup()
        # two adjacent non-root vertices pointing at each other: both tree
        # edges are graph edges, but neither chain reaches the root
        a, b = next((int(a), int(b)) for a, b in edges.T
                    if a != b and root not in (a, b) and parent[a] >= 0)
        parent[a], parent[b] = b, a
        with pytest.raises(AssertionError,
                           match="^parent array contains a cycle$"):
            validate_bfs(cfg, edges, root, parent)

    def test_rejects_a_tree_one_level_too_deep(self):
        cfg, edges, root, parent = self._setup()
        level = serial_bfs(*build_csr(edges, cfg.nvertices), root)
        # re-parent a vertex onto a neighbour of its own level: still a
        # tree of graph edges rooted at the root, but one level too deep
        a, b = next((int(a), int(b)) for a, b in edges.T
                    if a != b and level[a] >= 1 and level[a] == level[b])
        parent[a] = b
        with pytest.raises(AssertionError) as err:
            validate_bfs(cfg, edges, root, parent)
        v, depth, dist = map(int, re.fullmatch(
            r"vertex (\d+): tree depth (\d+) != BFS distance (\d+) "
            r"\(not a minimal BFS tree\)", str(err.value)).groups())
        assert depth == dist + 1 and dist >= level[a]


class TestVariants:
    @pytest.mark.parametrize("variant", ["mpi", "hiper"])
    @pytest.mark.parametrize("scale", [6, 9])
    def test_produces_valid_bfs_tree(self, variant, scale):
        cfg = Graph500Config(scale=scale)
        edges = kronecker_edges(cfg)
        res = run_g500(variant, cfg)
        parent = assemble_parent(cfg, res)
        rows, _ = build_csr(edges, cfg.nvertices)
        root = pick_root(cfg, rows)
        assert validate_bfs(cfg, edges, root, parent) > 0

    def test_single_rank(self):
        cfg = Graph500Config(scale=6)
        edges = kronecker_edges(cfg)
        res = run_g500("mpi", cfg, nranks=1)
        parent = assemble_parent(cfg, res)
        rows, _ = build_csr(edges, cfg.nvertices)
        assert validate_bfs(cfg, edges, pick_root(cfg, rows), parent) > 0

    def test_variants_near_parity(self):
        """Paper: 'little performance improvement to-date' — HiPER within
        ~2x of the reference either way at small scale."""
        cfg = Graph500Config(scale=9)
        t_mpi = run_g500("mpi", cfg).makespan
        t_hiper = run_g500("hiper", cfg).makespan
        assert 0.4 < t_hiper / t_mpi < 2.5

    def test_programmability_metric_fewer_recv_calls(self):
        """The paper's qualitative claim, quantified: the hiper variant makes
        no receive calls at all (one-sided + async_when)."""
        cfg = Graph500Config(scale=8)
        mpi_stats = run_g500("mpi", cfg).merged_stats()
        hiper_stats = run_g500("hiper", cfg).merged_stats()
        assert mpi_stats.counter("mpi", "alltoall") > 0
        assert hiper_stats.counter("mpi", "alltoall") == 0
        assert hiper_stats.counter("shmem", "async_when") > 0
