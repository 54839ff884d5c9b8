"""Sharded parallel DES tests (ISSUE 10 tentpole).

Covers the :meth:`NetworkModel.lookahead` query, the node-aligned
:class:`ShardPlan`, the ``shards=`` executor plumbing, the ``shards=1``
strict-passthrough guarantee, the sharded <-> flat digest differential
(fixed workloads plus a hypothesis sweep over random SPMD comm programs),
failure paths (rank exceptions, a shard dying mid-window), lifecycle
hygiene (no orphan processes, no leaked segments — the same assertions the
procs backend makes), the window-protocol telemetry, and the CLI
validation surface.
"""

import dataclasses
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distrib.spmd import ClusterConfig, SpmdResult, spmd_run
from repro.exec.shards import ShardPlan
from repro.exec.sim import SimExecutor
from repro.net.costmodel import NETWORKS, NetworkModel
from repro.net.topology import FlatTopology
from repro.shmem import shmem_factory
from repro.shmem.shared import leaked_segments
from repro.util.errors import ConfigError, PlaceFailure
from repro.verify.spmd_workloads import run_spmd_workload
from tests.procutil import child_pids

NR = 4
CFG = dict(nodes=NR, ranks_per_node=1, seed=0)


def _new_children(before):
    return [p for p in child_pids() if p not in before]


def _flat_executor(**kw):
    return SimExecutor(engine="flat", **kw)


def _run(main_factory, *, shards, **executor_kw):
    cfg = ClusterConfig(**CFG)
    ex = _flat_executor(shards=shards, **executor_kw) if shards else \
        _flat_executor(**executor_kw)
    return spmd_run(main_factory(), cfg,
                    module_factories=[shmem_factory(direct=True)],
                    executor=ex)


# ----------------------------------------------------------------------
# rank mains
# ----------------------------------------------------------------------
def ring_factory():
    """Each rank puts into its right neighbor; returns what it received."""

    def main(ctx):
        sh = ctx.shmem
        me, n = ctx.rank, ctx.nranks
        buf = sh.malloc((2,), dtype=np.int64, fill=-1)
        yield sh.barrier_all_async()
        yield sh.put_async(buf, np.full(2, 10 + me, dtype=np.int64),
                           (me + 1) % n)
        yield sh.quiet_async()
        yield sh.barrier_all_async()
        got = np.asarray((yield sh.get_async(buf, me)))
        return (me, [int(x) for x in got])

    return main


def failing_factory():
    """Rank 0 raises; everyone else stalls at the barrier it never reaches."""

    def main(ctx):
        sh = ctx.shmem
        if ctx.rank == 0:
            raise ValueError("boom on rank 0")
        yield sh.barrier_all_async()
        return ctx.rank

    return main


def dying_factory():
    """Rank 2's whole shard process exits hard mid-window."""

    def main(ctx):
        sh = ctx.shmem
        yield sh.barrier_all_async()
        if ctx.rank == 2:
            os._exit(3)
        yield sh.barrier_all_async()
        return ctx.rank

    return main


# ----------------------------------------------------------------------
# NetworkModel.lookahead
# ----------------------------------------------------------------------
class TestLookahead:
    def test_generic_is_two_nics_plus_wire(self):
        m = NETWORKS["generic"]
        assert m.lookahead() == pytest.approx(
            2 * m.inj_overhead + m.latency)
        assert m.lookahead() == pytest.approx(3.5e-6)

    @pytest.mark.parametrize("name,expected",
                             [("aries", 2.9e-6), ("gemini", 3.9e-6)])
    def test_builtin_fabrics(self, name, expected):
        assert NETWORKS[name].lookahead() == pytest.approx(expected)

    def test_builtin_topologies_have_zero_extra_floor(self):
        # Every built-in family contains an adjacent pair, so the topology
        # term contributes nothing and the bound is pure NIC + wire.
        m = NETWORKS["generic"]
        assert m.lookahead(FlatTopology()) == pytest.approx(m.lookahead())

    def test_topology_minimum_raises_the_bound(self):
        class Sparse(FlatTopology):
            def min_extra_latency(self):
                return 1e-6

        m = NETWORKS["generic"]
        assert m.lookahead(Sparse()) == pytest.approx(m.lookahead() + 1e-6)

    def test_zero_lookahead_rejected(self):
        degenerate = dataclasses.replace(
            NETWORKS["generic"], latency=0.0, inj_overhead=0.0)
        with pytest.raises(ConfigError, match="non-positive lookahead"):
            degenerate.lookahead()

    def test_negative_lookahead_rejected(self):
        # Model params are validated non-negative at construction, so a
        # negative bound can only come from a broken topology override.
        class Broken(FlatTopology):
            def min_extra_latency(self):
                return -1e-3

        with pytest.raises(ConfigError, match="non-positive lookahead"):
            NETWORKS["generic"].lookahead(Broken())

    def test_lookahead_is_a_true_minimum_over_transmits(self):
        # No priced message may arrive in less than the reported bound:
        # lookahead is what makes deferring injection to the barrier safe.
        m = NetworkModel()
        bound = m.lookahead()
        for nbytes in (1, 8, 4096, 1 << 20):
            wire = 2 * m.inj_overhead + m.latency + nbytes / m.bandwidth
            assert wire >= bound


# ----------------------------------------------------------------------
# ShardPlan
# ----------------------------------------------------------------------
class TestShardPlan:
    def test_even_split_covers_contiguously(self):
        plan = ShardPlan.build(8, 4, 2)
        assert plan.bounds == ((0, 2), (2, 4), (4, 6), (6, 8))

    def test_remainder_nodes_go_to_leading_shards(self):
        plan = ShardPlan.build(5, 2, 1)
        assert plan.bounds == ((0, 3), (3, 5))

    def test_partitions_whole_nodes(self):
        # 4 nodes x 4 ranks over 3 shards: every boundary is node-aligned.
        plan = ShardPlan.build(16, 3, 4)
        assert plan.bounds == ((0, 8), (8, 12), (12, 16))
        for lo, hi in plan.bounds:
            assert lo % 4 == 0 and (hi % 4 == 0 or hi == 16)

    def test_more_shards_than_nodes_rejected(self):
        with pytest.raises(ConfigError, match="cannot split 2 node"):
            ShardPlan.build(4, 3, 2)

    def test_zero_shards_rejected(self):
        with pytest.raises(ConfigError, match="shards must be >= 1"):
            ShardPlan.build(4, 0)

    def test_shard_of_inverts_bounds(self):
        plan = ShardPlan.build(10, 3, 1)
        for rank in range(10):
            lo, hi = plan.bounds[plan.shard_of(rank)]
            assert lo <= rank < hi
        with pytest.raises(ConfigError, match="out of range"):
            plan.shard_of(10)


# ----------------------------------------------------------------------
# executor plumbing
# ----------------------------------------------------------------------
class TestExecutorPlumbing:
    @pytest.mark.parametrize("bad", [0, -1, 1.5, "2", True])
    def test_bad_shard_counts_rejected(self, bad):
        with pytest.raises(ConfigError, match="shards"):
            SimExecutor(engine="flat", shards=bad)

    def test_shards_require_flat_engine(self):
        with pytest.raises(ConfigError, match="one engine, 'flat'"):
            SimExecutor(engine="objects", shards=2)

    def test_fault_injection_rejected(self):
        with pytest.raises(ConfigError, match="fault injection"):
            spmd_run(lambda ctx: None, ClusterConfig(**CFG),
                     executor=_flat_executor(shards=2),
                     fault_injector=object())

    def test_too_many_shards_for_cluster_rejected(self):
        with pytest.raises(ConfigError, match="cannot split"):
            _run(ring_factory, shards=NR + 1)


# ----------------------------------------------------------------------
# shards=1: strict no-overhead passthrough
# ----------------------------------------------------------------------
class TestSingleShardPassthrough:
    def test_golden_digest_and_zero_added_events(self):
        base = _run(ring_factory, shards=0)   # plain flat, no shards kwarg
        one = _run(ring_factory, shards=1)
        # Same in-process result type: the sharding layer never engages.
        assert type(one) is SpmdResult
        assert one.results == base.results
        # Bit-for-bit virtual time and not one event more or fewer.
        assert repr(one.makespan) == repr(base.makespan)
        assert one.executor.events_processed == base.executor.events_processed
        assert one.executor.__class__ is SimExecutor

    def test_perf_smoke_no_child_processes(self):
        before = child_pids()
        _run(ring_factory, shards=1)
        assert _new_children(before) == []


# ----------------------------------------------------------------------
# sharded == flat digests
# ----------------------------------------------------------------------
class TestShardedDifferential:
    @pytest.mark.parametrize("workload", ["isx", "uts"])
    def test_digest_matches_single_runtime_flat(self, workload):
        from repro.verify import differential
        rep = differential(workload, engines=("sim", "sharded"))
        assert rep.ok, rep.describe()
        assert [r.engine for r in rep.runs] == ["sim", "sharded"]

    def test_workloads_without_spmd_twin_compare_on_other_engines(self):
        # isx-dag has no SPMD twin; the SPMD-twin engines (sharded, procs)
        # must be skipped for it instead of crashing the whole sweep.
        from repro.verify import differential
        rep = differential("isx-dag", engines=("sim", "sharded"))
        assert rep.ok, rep.describe()
        assert [r.engine for r in rep.runs] == ["sim"]

    def test_no_runnable_engine_is_a_reported_mismatch(self):
        from repro.verify import differential
        rep = differential("isx-dag", engines=("sharded",))
        assert not rep.ok
        assert "no SPMD twin" in rep.describe()

    @pytest.mark.parametrize("workload", ["uts", "graph500"])
    @pytest.mark.parametrize("shards", [2, 4])
    def test_digest_matches_flat_spmd_twin(self, workload, shards):
        flat_digest, _ = run_spmd_workload(
            workload, SimExecutor(shards=1), nranks=NR)
        sharded_digest, _ = run_spmd_workload(
            workload, SimExecutor(shards=shards), nranks=NR)
        assert sharded_digest == flat_digest


class TestCrossShardWave:
    """Flat ISx is the one wave sender (``amo_fetch_wave``); sharded, its
    fan-outs mix owned and unowned destinations in one ``transmit_wave``.
    Makespans and message counts were recorded on 5e84199, where the mixed
    wave took a per-message path no test reached."""

    GOLDEN = {
        1: ("0.00042878200000000206", None),
        2: ("0.0005081860000000004", 2234),
        4: ("0.0005399926666666668", 3348),
    }

    def test_results_agree_and_match_the_parent(self):
        import hashlib

        from repro.apps.isx import IsxConfig
        from repro.apps.isx.variants import run_flat

        cfg = IsxConfig(keys_per_pe=1 << 9)

        def main(ctx):
            result = yield from run_flat(ctx, cfg)
            return hashlib.sha256(result.tobytes()).hexdigest()

        digests = {}
        for shards, (makespan, cross) in self.GOLDEN.items():
            res = spmd_run(main, ClusterConfig(nodes=8, ranks_per_node=4),
                           module_factories=[shmem_factory(direct=True)],
                           executor=SimExecutor(shards=shards))
            assert repr(res.makespan) == makespan, shards
            if shards > 1:
                assert res.counters["shards.cross_shard_msgs"] == cross
            digests[shards] = res.results
        assert digests[1] == digests[2] == digests[4]


def _comm_program_factory(ops):
    """SPMD main executing a hypothesis-drawn op list.

    Every rank walks the same list; puts land in per-source slots (disjoint
    writers) and fetch-adds target slot 0 (commutative), so the final state
    is schedule-independent and must agree across any shard count.
    """

    def factory():
        def main(ctx):
            sh = ctx.shmem
            me, n = ctx.rank, ctx.nranks
            buf = sh.malloc((n + 1,), dtype=np.int64, fill=0)
            yield sh.barrier_all_async()
            for kind, src, dst, val in ops:
                if kind == "barrier":
                    yield sh.barrier_all_async()
                elif src % n != me:
                    continue
                elif kind == "put":
                    yield sh.put_async(
                        buf, np.asarray([val], dtype=np.int64),
                        dst % n, offset=1 + me)
                else:  # fadd
                    yield sh.atomic_fetch_add_async(buf, val, dst % n)
            yield sh.quiet_async()
            yield sh.barrier_all_async()
            got = np.asarray((yield sh.get_async(buf, me)))
            return (me, [int(x) for x in got])

        return main

    return factory


_OPS = st.lists(
    st.tuples(st.sampled_from(["put", "fadd", "barrier"]),
              st.integers(0, NR - 1), st.integers(0, NR - 1),
              st.integers(1, 99)),
    min_size=1, max_size=10)


class TestShardedPropertyBased:
    @settings(max_examples=5, deadline=None)
    @given(ops=_OPS)
    def test_random_programs_agree_across_shard_counts(self, ops):
        factory = _comm_program_factory(ops)
        baseline = _run(factory, shards=0).results
        for shards in (2, 4):
            res = _run(factory, shards=shards)
            assert res.results == baseline, (shards, ops)


# ----------------------------------------------------------------------
# failure paths + lifecycle hygiene
# ----------------------------------------------------------------------
class TestFailurePaths:
    def test_rank_failure_surfaces_root_cause(self):
        with pytest.raises(
                ConfigError,
                match=r"first failure on rank 0: ValueError: boom on rank 0"):
            _run(failing_factory, shards=2)

    def test_straggler_shard_teardown(self):
        before = child_pids()
        with pytest.raises(PlaceFailure, match=r"died mid-window \(pid \d+, "
                           r"exit code 3\)") as ei:
            _run(dying_factory, shards=2)
        assert ei.value.place == "shard-1"
        deadline = time.monotonic() + 10.0
        while _new_children(before) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _new_children(before) == []
        assert leaked_segments() == []

    def test_no_orphans_after_clean_run(self):
        before = child_pids()
        res = _run(ring_factory, shards=2)
        assert _new_children(before) == []
        assert leaked_segments() == []
        assert res.results == [(r, [10 + (r - 1) % NR] * 2)
                               for r in range(NR)]


# ----------------------------------------------------------------------
# telemetry
# ----------------------------------------------------------------------
class TestTelemetry:
    def test_window_counters(self):
        res = _run(ring_factory, shards=2)
        assert type(res) is SpmdResult
        assert res.wall_s > 0 and res.makespan > 0
        assert res.windows > 0
        assert res.counters["shards.windows"] == res.windows
        assert res.counters["shards.cross_shard_msgs"] > 0
        assert res.counters["shards.cross_shard_bytes"] > 0
        assert len(res.shard_counters) == 2
        for t in res.shard_counters:
            assert t["windows"] == res.windows
            assert t["events_processed"] > 0
            assert t["idle_wall_s"] >= 0.0
            assert t["horizon_final"] > 0.0
        assert any(k.startswith("shmem.") for k in res.counters)

    def test_merged_stats_roundtrip(self):
        res = _run(ring_factory, shards=2)
        merged = res.merged_stats()
        assert merged.to_dict()["counters"]["shards.windows"] == res.windows


# ----------------------------------------------------------------------
# CLI validation
# ----------------------------------------------------------------------
class TestCliValidation:
    def test_shards_rejected_for_procs_backend(self, capsys):
        from repro.cli import main
        assert main(["run", "--backend", "procs", "--app", "isx",
                     "--shards", "2"]) == 2
        assert "sim backend only" in capsys.readouterr().err

    def test_zero_shards_rejected(self, capsys):
        from repro.cli import main
        assert main(["run", "--backend", "sim", "--app", "isx",
                     "--shards", "0"]) == 2
        assert "must be >= 1" in capsys.readouterr().err
