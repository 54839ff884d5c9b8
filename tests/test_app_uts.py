"""UTS: tree generation determinism, the integer kernel pinned to the float
definition of a child count, and all three variants counting the exact tree
size under distributed load balancing."""

import math
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.registry import APPS
from repro.apps.uts import (
    UtsConfig,
    child_count,
    children,
    expand_chunk,
    pack,
    root_node,
    sequential_count,
    unpack,
    uts_main,
)
from repro.apps.uts.common import MAX_KIDS
from repro.distrib import ClusterConfig, spmd_run
from repro.platform import machine
from repro.service.jobs import JobSpec
from repro.service.pool import run_job_cold
from repro.shmem import shmem_factory
from repro.util.errors import ConfigError
from repro.util.rng import splitmix64


def run_uts(variant, cfg, nodes=4, workers=2):
    cluster = ClusterConfig(nodes=nodes, ranks_per_node=1,
                            workers_per_rank=workers,
                            machine=machine("titan"))
    return spmd_run(uts_main(variant, cfg), cluster,
                    module_factories=[shmem_factory()])


# -- the float definition, kept verbatim as the kernel's test oracle -------
def float_child_count(cfg, node):
    state, depth = node
    if depth >= cfg.max_depth:
        return 0
    if depth == 0:
        return cfg.root_children
    if 1.0 - cfg.geom_p == 0.0:
        return 0   # mean 0: the limit the formula cannot evaluate (log 0)
    u = ((state >> 11) & ((1 << 53) - 1)) / float(1 << 53)
    u = min(max(u, 1e-16), 1.0 - 1e-16)
    m = int(math.log(1.0 - u) / math.log(1.0 - cfg.geom_p))
    return min(m, MAX_KIDS)


def float_children(cfg, node):
    state, depth = node
    return [
        (splitmix64(state ^ (0x9E3779B9 * (i + 1))), depth + 1)
        for i in range(float_child_count(cfg, node))
    ]


def dfs_count(cfg):
    stack, count = [root_node(cfg)], 0
    while stack:
        count += 1
        stack.extend(children(cfg, stack.pop()))
    return count


MEANS = [0.0, 0.5, 0.92, 0.97, 0.999]
_U64 = st.integers(0, (1 << 64) - 1)


class TestKernel:
    @pytest.mark.parametrize("mean", MEANS)
    @settings(max_examples=200, deadline=None)
    @given(state=_U64)
    def test_kernel_count_matches_float_on_random_states(self, mean, state):
        cfg = UtsConfig(mean_children=mean)
        node = (state, 1)
        want = float_child_count(cfg, node)
        assert bisect_right(cfg.thresholds, state >> 11) == want
        assert child_count(cfg, node) == want

    @pytest.mark.parametrize("mean", MEANS)
    def test_kernel_count_matches_float_around_every_step(self, mean):
        cfg = UtsConfig(mean_children=mean)
        for t in cfg.thresholds:
            for x in range(max(t - 64, 0), min(t + 65, 1 << 53)):
                node = ((x << 11) | (x & 0x7FF), 3)
                assert child_count(cfg, node) == float_child_count(cfg, node)

    @settings(max_examples=200, deadline=None)
    @given(root=st.integers(1, 40), mean=st.sampled_from(MEANS),
           max_depth=st.integers(0, 4),
           chunk=st.lists(st.tuples(_U64, st.integers(0, 5)), max_size=40))
    def test_kernel_expand_chunk_matches_float_children(
            self, root, mean, max_depth, chunk):
        cfg = UtsConfig(root_children=root, mean_children=mean,
                        max_depth=max_depth)
        want = [kid for node in chunk for kid in float_children(cfg, node)]
        assert expand_chunk(cfg, chunk) == want
        assert [kid for node in chunk for kid in children(cfg, node)] == want

    @settings(max_examples=60, deadline=None)
    @given(root=st.sampled_from([1, 2, 7, 30]), mean=st.sampled_from(MEANS),
           max_depth=st.sampled_from([0, 1, 2, 3, 2000]),
           seed=st.integers(0, 1 << 40))
    def test_kernel_numpy_oracle_matches_scalar_dfs(
            self, root, mean, max_depth, seed):
        cfg = UtsConfig(root_children=root, mean_children=mean,
                        max_depth=max_depth, seed=seed)
        assert sequential_count(cfg) == dfs_count(cfg)

    @pytest.mark.parametrize("root,mean,seed,want", [
        (12000, 0.97, 1, 427349),
        (3000, 0.97, 1, 103091),
        (120, 0.92, 5, 2764),
        (40, 0.8, 3, 129),
        (200, 0.97, 1, 5922),
    ])
    def test_kernel_pinned_counts(self, root, mean, seed, want):
        cfg = UtsConfig(root_children=root, mean_children=mean, seed=seed)
        assert sequential_count(cfg) == want
        if root <= 200:
            assert dfs_count(cfg) == want

    def test_kernel_mean_zero_tree_is_root_and_its_children(self):
        """A mean-0 geometric count is always 0; the float formula's
        ``log(0)`` used to raise at the first non-root node."""
        cfg = UtsConfig(root_children=5, mean_children=0.0)
        assert sequential_count(cfg) == 6
        assert dfs_count(cfg) == 6
        kids = children(cfg, root_node(cfg))
        assert len(kids) == 5 and expand_chunk(cfg, kids) == []
        answer, _ = APPS["uts"].run("hiper", cfg=cfg)
        assert answer == ("uts", 6)

    def test_kernel_mean_zero_gateway_job(self):
        spec = JobSpec.create("uts", {"root_children": 5,
                                      "mean_children": 0.0})
        assert tuple(run_job_cold(spec)) == ("uts", 6)


class TestTree:
    def test_root_children_exact(self):
        cfg = UtsConfig(root_children=17)
        assert child_count(cfg, root_node(cfg)) == 17

    def test_children_deterministic(self):
        cfg = UtsConfig()
        node = children(cfg, root_node(cfg))[3]
        assert children(cfg, node) == children(cfg, node)

    def test_distinct_children_states(self):
        cfg = UtsConfig(root_children=50)
        kids = children(cfg, root_node(cfg))
        states = {s for s, _ in kids}
        assert len(states) == 50

    def test_depth_cap_terminates(self):
        cfg = UtsConfig(max_depth=3)
        assert child_count(cfg, (12345, 3)) == 0

    def test_sequential_count_deterministic(self):
        cfg = UtsConfig(root_children=30, mean_children=0.7)
        assert sequential_count(cfg) == sequential_count(cfg)

    def test_expected_size_scales_with_mean(self):
        small = sequential_count(UtsConfig(root_children=50, mean_children=0.5))
        big = sequential_count(UtsConfig(root_children=50, mean_children=0.9))
        assert big > small

    def test_pack_unpack_round_trip(self):
        for node in [(0, 0), (2**63 + 5, 17), (2**64 - 1, 255)]:
            lane0, lane1 = pack(node)
            assert -(2**63) <= lane0 < 2**63
            assert unpack(lane0, lane1) == node

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            UtsConfig(mean_children=1.0)
        with pytest.raises(ConfigError):
            UtsConfig(root_children=0)
        with pytest.raises(ConfigError):
            UtsConfig(chunk=0)

    def test_unknown_variant(self):
        with pytest.raises(ConfigError, match="unknown UTS variant"):
            uts_main("cilk", UtsConfig())


class TestVariants:
    CFG = UtsConfig(root_children=120, mean_children=0.9, seed=11)

    @pytest.mark.parametrize("variant", ["hiper", "shmem_omp", "omp_tasks"])
    def test_counts_exact(self, variant):
        oracle = sequential_count(self.CFG)
        res = run_uts(variant, self.CFG, nodes=4)
        assert sum(res.results) == oracle

    @pytest.mark.parametrize("variant", ["hiper", "shmem_omp", "omp_tasks"])
    def test_single_rank(self, variant):
        oracle = sequential_count(self.CFG)
        res = run_uts(variant, self.CFG, nodes=1)
        assert res.results == [oracle]

    def test_work_actually_distributes(self):
        cfg = UtsConfig(root_children=600, mean_children=0.93, seed=3)
        res = run_uts("hiper", cfg, nodes=4, workers=4)
        assert sum(res.results) == sequential_count(cfg)
        assert sum(1 for r in res.results if r > 0) >= 2

    def test_deterministic_makespan(self):
        a = run_uts("hiper", self.CFG, nodes=2).makespan
        b = run_uts("hiper", self.CFG, nodes=2).makespan
        assert a == b


class TestTimingShape:
    def test_locked_stealing_slower_at_scale(self):
        """Fig. 7 shape: lock-based distributed balancing degrades relative
        to the lock-free HiPER variant as ranks multiply."""
        cfg = UtsConfig(root_children=800, mean_children=0.95, seed=7)
        hiper = run_uts("hiper", cfg, nodes=8, workers=4).makespan
        locked = run_uts("shmem_omp", cfg, nodes=8, workers=4).makespan
        assert locked > hiper
