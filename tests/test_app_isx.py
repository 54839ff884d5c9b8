"""ISx integer sort: router math, all variants validated, timing shape."""

import numpy as np
import pytest

from repro.apps.isx import (
    IsxConfig,
    bucket_width,
    generate_keys,
    isx_main,
    local_sort,
    route_keys,
    validate_isx,
)
from repro.distrib import ClusterConfig, spmd_run
from repro.platform import machine
from repro.shmem import shmem_factory
from repro.util.errors import ConfigError


def run_isx(variant, cfg, nodes=2, ranks_per_node=1, workers=4, direct=False):
    cluster = ClusterConfig(nodes=nodes, ranks_per_node=ranks_per_node,
                            workers_per_rank=workers,
                            machine=machine("titan"))
    return spmd_run(isx_main(variant, cfg), cluster,
                    module_factories=[shmem_factory(direct=direct)])


class TestRouting:
    def test_bucket_width_covers_key_space(self):
        cfg = IsxConfig(max_key=1000)
        for npes in (1, 3, 7, 16):
            w = bucket_width(cfg, npes)
            assert w * npes >= cfg.max_key

    def test_route_groups_by_target(self):
        cfg = IsxConfig(keys_per_pe=100, max_key=100)
        keys = generate_keys(cfg, 0, 4)
        grouped, counts = route_keys(cfg, 4, keys)
        assert counts.sum() == keys.size
        w = bucket_width(cfg, 4)
        offset = 0
        for pe in range(4):
            block = grouped[offset : offset + counts[pe]]
            assert np.all(block // w == pe)
            offset += counts[pe]

    def test_route_preserves_multiset(self):
        cfg = IsxConfig(keys_per_pe=500)
        keys = generate_keys(cfg, 2, 4)
        grouped, _ = route_keys(cfg, 4, keys)
        assert np.array_equal(np.sort(grouped), np.sort(keys))

    def test_keys_deterministic(self):
        cfg = IsxConfig(keys_per_pe=64)
        assert np.array_equal(generate_keys(cfg, 3, 8),
                              generate_keys(cfg, 3, 8))

    def test_local_sort(self):
        arr = np.array([5, 1, 3], dtype=np.int64)
        assert local_sort(arr).tolist() == [1, 3, 5]

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            IsxConfig(keys_per_pe=0)
        with pytest.raises(ConfigError):
            IsxConfig(max_key=1)

    def test_validator_catches_unsorted(self):
        cfg = IsxConfig(keys_per_pe=4, max_key=64)
        w = bucket_width(cfg, 2)
        bad = [np.array([w - 1, 0], dtype=np.int64),
               np.array([w, w + 1, w + 2, w + 3, w + 4, w + 5],
                        dtype=np.int64)]
        with pytest.raises(AssertionError, match="not sorted"):
            validate_isx(cfg, 2, bad)

    def test_validator_catches_wrong_range(self):
        cfg = IsxConfig(keys_per_pe=2, max_key=64)
        w = bucket_width(cfg, 2)
        bad = [np.array([0, w], dtype=np.int64),
               np.array([w, w], dtype=np.int64)]
        with pytest.raises(AssertionError, match="bucket range"):
            validate_isx(cfg, 2, bad)


def _sorted_buckets(cfg, npes):
    """The correct result of an ISx run: every generated key, sorted and cut
    at the bucket boundaries, one array per PE."""
    keys = np.sort(np.concatenate(
        [generate_keys(cfg, r, npes) for r in range(npes)]))
    cuts = np.searchsorted(keys, bucket_width(cfg, npes) * np.arange(1, npes))
    return [a.copy() for a in np.split(keys, cuts)]


class TestOracle:
    """Each tampered result below is sorted on every PE, inside every PE's
    range and of the right total count: only the comparison with the
    generated input can reject it."""

    CFG = IsxConfig(keys_per_pe=64, max_key=1 << 12)
    NPES = 4

    def _check(self, results):
        validate_isx(self.CFG, self.NPES, results)

    def test_accepts_the_sorted_input(self):
        self._check(_sorted_buckets(self.CFG, self.NPES))

    def test_rejects_a_key_duplicated_over_another(self):
        res = _sorted_buckets(self.CFG, self.NPES)
        arr = res[1]
        i = int(np.flatnonzero(np.diff(arr))[0])  # arr[i] < arr[i + 1]
        arr[i + 1] = arr[i]
        with pytest.raises(AssertionError, match="multiset"):
            self._check(res)

    def test_rejects_a_key_moved_to_the_next_range(self):
        res = _sorted_buckets(self.CFG, self.NPES)
        w = bucket_width(self.CFG, self.NPES)
        res[0] = res[0][:-1]  # PE 0's largest key leaves ...
        res[1] = np.concatenate([[w], res[1]])  # ... and PE 1 gains one
        with pytest.raises(AssertionError, match="multiset"):
            self._check(res)

    def test_rejects_a_missing_key_offset_by_an_extra_one(self):
        res = _sorted_buckets(self.CFG, self.NPES)
        res[0] = res[0][1:]  # PE 0 loses its smallest key
        res[3] = np.sort(np.concatenate([res[3], res[3][:1]]))
        with pytest.raises(AssertionError, match="multiset"):
            self._check(res)


class TestVariants:
    @pytest.mark.parametrize("variant,direct,rpn,workers", [
        ("flat", True, 4, 1),
        ("hybrid", False, 1, 4),
        ("hiper", False, 1, 4),
    ])
    def test_sorts_correctly(self, variant, direct, rpn, workers):
        cfg = IsxConfig(keys_per_pe=1500)
        res = run_isx(variant, cfg, nodes=2, ranks_per_node=rpn,
                      workers=workers, direct=direct)
        validate_isx(cfg, res.nranks, res.results)

    def test_single_pe(self):
        cfg = IsxConfig(keys_per_pe=300)
        res = run_isx("flat", cfg, nodes=1, ranks_per_node=1, workers=1,
                      direct=True)
        validate_isx(cfg, 1, res.results)

    def test_skewed_slack_overflow_detected(self):
        # only two distinct keys across four PEs: PEs 0 and 1 receive
        # double their window capacity
        cfg = IsxConfig(keys_per_pe=4000, max_key=2, slack=1.01)
        with pytest.raises(ConfigError, match="window overflow"):
            run_isx("flat", cfg, nodes=2, ranks_per_node=2, workers=1,
                    direct=True)

    def test_unknown_variant(self):
        with pytest.raises(ConfigError, match="unknown ISx variant"):
            isx_main("radix", IsxConfig())


class TestTimingShape:
    def test_flat_competitive_at_small_scale(self):
        """Fig. 5 left side: flat OpenSHMEM is competitive at small node
        counts. Workloads are equalized per node: a hybrid PE holds
        cores-per-node times the keys of a flat PE."""
        flat_cfg = IsxConfig(keys_per_pe=1 << 12)
        hybrid_cfg = IsxConfig(keys_per_pe=4 << 12)
        flat = run_isx("flat", flat_cfg, nodes=2, ranks_per_node=4, workers=1,
                       direct=True)
        hybrid = run_isx("hybrid", hybrid_cfg, nodes=2, ranks_per_node=1,
                         workers=4)
        assert flat.makespan < hybrid.makespan * 2.0

    def test_flat_message_count_explodes_with_ranks(self):
        """The mechanism of the Fig. 5 collapse: message count scales with
        (cores x nodes)^2 for flat vs nodes^2 for hybrid."""
        cfg = IsxConfig(keys_per_pe=1 << 10)
        flat = run_isx("flat", cfg, nodes=4, ranks_per_node=4, workers=1,
                       direct=True)
        hybrid = run_isx("hybrid", cfg, nodes=4, ranks_per_node=1, workers=4)
        assert flat.fabric.messages_sent > 4 * hybrid.fabric.messages_sent
