"""Communication-path overhaul: message coalescing and its interactions
with resilience and determinism.

Covers (ISSUE: comm tentpole):

- :mod:`repro.net.coalesce` — watermark/timeout/explicit flush policies,
  FIFO-preserving batch dispatch, flush-reason/occupancy telemetry;
- coalescing × resilience — drop/corrupt verdicts apply to the *envelope*,
  ``set_retry_policy`` retransmits the whole batch exactly once per attempt,
  and seeded fault plans stay deterministic with coalescing on;
- :class:`FabricMux` teardown — ``unregister_channel``/``close`` flush
  pending buffers, ``register_sink(replace=True)`` swaps a rank's sink;
- end-to-end — SHMEM ``quiet``/barrier as flush points, and ISx results
  bit-identical with coalescing on vs. off
  (:func:`repro.verify.isx_coalescing_differential`).
"""

import numpy as np
import pytest

from repro.apps.presets import comm_coalesce
from repro.distrib import ClusterConfig, spmd_run
from repro.exec.sim import SimExecutor
from repro.net import CoalescePolicy
from repro.net.costmodel import NetworkModel
from repro.net.fabric import SimFabric
from repro.net.mux import FabricMux
from repro.platform import machine
from repro.resilience import Backoff, FaultInjector, FaultPlan, RetryPolicy
from repro.mpi import mpi_factory
from repro.shmem import shmem_factory
from repro.upcxx import upcxx_factory
from repro.util.errors import CommError, ConfigError
from repro.util.stats import RuntimeStats


def make_world(nranks=2, *, stats=None):
    """SimExecutor + fabric + one mux per rank, 'app' channel recording
    (src, payload) per receiving rank."""
    ex = SimExecutor()
    fab = SimFabric(ex, nranks, NetworkModel())
    got = {r: [] for r in range(nranks)}
    muxes = []
    for r in range(nranks):
        m = FabricMux(fab, r, stats=stats)
        m.register_channel("app", lambda s, p, t, r=r: got[r].append((s, p)))
        muxes.append(m)
    return ex, fab, muxes, got


# ---------------------------------------------------------------------------
# policy validation
# ---------------------------------------------------------------------------
class TestCoalescePolicy:
    def test_defaults(self):
        pol = CoalescePolicy()
        assert pol.max_msgs >= 1 and pol.max_bytes >= 1
        assert pol.flush_interval > 0

    @pytest.mark.parametrize("kw", [
        {"max_msgs": 0}, {"max_bytes": 0}, {"flush_interval": 0.0},
        {"flush_interval": -1e-6},
    ])
    def test_validation(self, kw):
        with pytest.raises(ConfigError):
            CoalescePolicy(**kw)

    def test_preset_is_valid(self):
        assert isinstance(comm_coalesce(), CoalescePolicy)


# ---------------------------------------------------------------------------
# flush triggers
# ---------------------------------------------------------------------------
class TestFlushTriggers:
    def test_message_watermark_flushes_exact_batch(self):
        ex, fab, muxes, got = make_world()
        muxes[0].enable_coalescing("app", CoalescePolicy(max_msgs=4))
        for i in range(4):
            muxes[0].transmit(1, "app", f"m{i}", 8)
        ex.drain()
        assert [p for _, p in got[1]] == ["m0", "m1", "m2", "m3"]
        assert fab.messages_sent == 1  # ONE envelope on the wire

    def test_byte_watermark_flushes(self):
        ex, fab, muxes, got = make_world()
        muxes[0].enable_coalescing(
            "app", CoalescePolicy(max_msgs=1000, max_bytes=100))
        muxes[0].transmit(1, "app", "a", 60)
        assert got[1] == []  # below both watermarks: still buffered
        muxes[0].transmit(1, "app", "b", 60)  # 120 >= 100: flush
        ex.drain()
        assert [p for _, p in got[1]] == ["a", "b"]
        assert fab.messages_sent == 1

    def test_timeout_flushes_lone_message(self):
        ex, fab, muxes, got = make_world()
        muxes[0].enable_coalescing(
            "app", CoalescePolicy(max_msgs=1000, flush_interval=1e-4))
        muxes[0].transmit(1, "app", "straggler", 8)
        ex.drain()
        assert [p for _, p in got[1]] == ["straggler"]
        # The flush happened at the timeout, not at send time.
        assert ex.now() >= 1e-4

    def test_stale_timeout_timer_is_noop(self):
        """A watermark flush supersedes the armed timeout: the timer must
        not transmit a second (empty or duplicate) envelope."""
        ex, fab, muxes, got = make_world()
        co = muxes[0].enable_coalescing(
            "app", CoalescePolicy(max_msgs=2, flush_interval=1e-4))
        muxes[0].transmit(1, "app", "x", 8)
        muxes[0].transmit(1, "app", "y", 8)  # watermark flush
        ex.drain()
        assert [p for _, p in got[1]] == ["x", "y"]
        assert co.batches_sent == 1
        assert fab.messages_sent == 1

    def test_explicit_flush_and_pending_count(self):
        ex, fab, muxes, got = make_world(3)
        co = muxes[0].enable_coalescing("app", CoalescePolicy(max_msgs=1000))
        muxes[0].transmit(1, "app", "to1", 8)
        muxes[0].transmit(2, "app", "to2a", 8)
        muxes[0].transmit(2, "app", "to2b", 8)
        assert co.pending_msgs == 3
        assert muxes[0].flush("app") == 2  # one batch per destination
        assert co.pending_msgs == 0
        ex.drain()
        assert [p for _, p in got[1]] == ["to1"]
        assert [p for _, p in got[2]] == ["to2a", "to2b"]

    def test_flush_single_destination(self):
        ex, fab, muxes, got = make_world(3)
        muxes[0].enable_coalescing("app", CoalescePolicy(max_msgs=1000))
        muxes[0].transmit(1, "app", "keep", 8)
        muxes[0].transmit(2, "app", "go", 8)
        assert muxes[0].flush("app", dst=2) == 1
        assert muxes[0].coalescer("app").pending_msgs == 1  # dst 1 kept
        ex.drain()
        assert [p for _, p in got[2]] == ["go"]

    def test_flush_empty_is_zero(self):
        ex, fab, muxes, got = make_world()
        muxes[0].enable_coalescing("app")
        assert muxes[0].flush("app") == 0
        assert muxes[0].flush() == 0        # all-channels form
        assert muxes[1].flush("app") == 0   # coalescing never enabled here
        ex.drain()
        assert fab.messages_sent == 0

    def test_fifo_order_across_batches(self):
        """Messages to one destination arrive in send order even when they
        span several envelopes (batches obey the pairwise-FIFO clamp)."""
        ex, fab, muxes, got = make_world()
        muxes[0].enable_coalescing("app", CoalescePolicy(max_msgs=3))
        for i in range(10):
            muxes[0].transmit(1, "app", i, 8)
        muxes[0].flush("app")
        ex.drain()
        assert [p for _, p in got[1]] == list(range(10))
        assert fab.messages_sent == 4  # 3+3+3+1

    def test_on_injected_fires_once_per_message(self):
        ex, fab, muxes, got = make_world()
        muxes[0].enable_coalescing("app", CoalescePolicy(max_msgs=4))
        injected = []
        for i in range(4):
            muxes[0].transmit(1, "app", i, 8,
                              on_injected=lambda t, i=i: injected.append(i))
        ex.drain()
        assert sorted(injected) == [0, 1, 2, 3]

    def test_uncoalesced_channel_untouched(self):
        """Other channels on the same mux keep per-message semantics."""
        ex, fab, muxes, got = make_world()
        other = []
        for m in muxes:
            m.register_channel("raw", lambda s, p, t: other.append(p))
        muxes[0].enable_coalescing("app", CoalescePolicy(max_msgs=1000))
        muxes[0].transmit(1, "raw", "direct", 8)
        ex.drain()
        assert other == ["direct"]  # delivered without any flush
        assert muxes[0].coalescer("raw") is None


# ---------------------------------------------------------------------------
# telemetry
# ---------------------------------------------------------------------------
class TestCoalesceTelemetry:
    def test_flush_reasons_and_occupancy(self):
        stats = RuntimeStats()
        ex, fab, muxes, got = make_world(stats=stats)
        muxes[0].enable_coalescing(
            "app", CoalescePolicy(max_msgs=2, flush_interval=1e-4))
        muxes[0].transmit(1, "app", "a", 8)
        muxes[0].transmit(1, "app", "b", 8)  # watermark
        muxes[0].transmit(1, "app", "c", 8)
        muxes[0].flush("app")                # explicit
        muxes[0].transmit(1, "app", "d", 8)
        ex.drain()                           # timeout
        assert stats.counter("app", "batches_sent") == 3
        assert stats.counter("app", "flush_watermark_msgs") == 1
        assert stats.counter("app", "flush_explicit") == 1
        assert stats.counter("app", "flush_timeout") == 1
        hist = stats.histogram("app", "batch_occupancy")
        assert hist.n == 3 and hist.total == 4  # batches of 2, 1, 1

    def test_receive_side_counters(self):
        stats = RuntimeStats()
        ex, fab, muxes, got = make_world(stats=stats)
        muxes[0].enable_coalescing("app", CoalescePolicy(max_msgs=3))
        for i in range(3):
            muxes[0].transmit(1, "app", i, 8)
        ex.drain()
        assert stats.counter("app", "batches_received") == 1
        assert stats.counter("app", "msgs_received") == 3
        assert stats.counter("app", "msgs_sent") == 3  # logical sends


# ---------------------------------------------------------------------------
# coalescing x resilience
# ---------------------------------------------------------------------------
class TestCoalesceResilience:
    def _coalesced_pair(self, policy=None):
        ex, fab, muxes, got = make_world()
        muxes[0].enable_coalescing("app", CoalescePolicy(max_msgs=3))
        if policy is not None:
            muxes[0].set_retry_policy("app", policy)
        return ex, fab, muxes, got

    def test_dropped_envelope_loses_whole_batch(self):
        ex, fab, muxes, got = self._coalesced_pair()
        fab.fault_hook = lambda src, dst, n, p, t: ("drop",)
        for i in range(3):
            muxes[0].transmit(1, "app", i, 8)
        ex.drain()
        assert got[1] == []
        assert fab.messages_dropped == 1  # the envelope, not 3 messages

    def test_corrupted_envelope_discarded_whole(self):
        ex, fab, muxes, got = self._coalesced_pair()
        fab.fault_hook = lambda src, dst, n, p, t: ("corrupt",)
        for i in range(3):
            muxes[0].transmit(1, "app", i, 8)
        ex.drain()
        assert got[1] == []
        assert fab.messages_corrupted == 1

    def test_retry_retransmits_batch_exactly_once_per_attempt(self):
        ex, fab, muxes, got = self._coalesced_pair(
            RetryPolicy(max_attempts=4, backoff=Backoff(base=1e-6)))
        verdicts = [("drop",), None]
        fab.fault_hook = lambda *a: verdicts.pop(0) if verdicts else None
        for i in range(3):
            muxes[0].transmit(1, "app", i, 8)
        ex.drain()
        # Every message delivered exactly once, in order, from ONE retransmit.
        assert [p for _, p in got[1]] == [0, 1, 2]
        assert fab.messages_dropped == 1
        assert fab.messages_sent == 2  # original envelope + one retransmit

    def test_retry_recovers_corrupted_batch(self):
        ex, fab, muxes, got = self._coalesced_pair(
            RetryPolicy(max_attempts=3, backoff=Backoff(base=1e-6)))
        verdicts = [("corrupt",), None]
        fab.fault_hook = lambda *a: verdicts.pop(0) if verdicts else None
        for i in range(3):
            muxes[0].transmit(1, "app", i, 8)
        ex.drain()
        assert [p for _, p in got[1]] == [0, 1, 2]
        assert fab.messages_corrupted == 1

    def test_retry_exhaustion_drops_batch(self):
        ex, fab, muxes, got = self._coalesced_pair(
            RetryPolicy(max_attempts=2, backoff=Backoff(base=1e-6)))
        fab.fault_hook = lambda *a: ("drop",)
        for i in range(3):
            muxes[0].transmit(1, "app", i, 8)
        ex.drain()
        assert got[1] == []
        assert fab.messages_dropped == 2  # original + the one retry

    def test_seeded_fault_plan_deterministic_with_coalescing(self):
        """Golden-determinism contract under ``--plan`` presets survives
        coalescing: same seed, same fault event log, same results."""
        from repro.apps.isx import IsxConfig, isx_main, validate_isx

        def chaos(seed):
            cfg = IsxConfig(keys_per_pe=900)
            cluster = ClusterConfig(nodes=2, ranks_per_node=1,
                                    workers_per_rank=2,
                                    machine=machine("workstation"))
            plan = FaultPlan.from_spec({
                "retry": {"attempts": 6, "base": 1e-5, "factor": 2.0,
                          "jitter": 0.25},
                "faults": [{"kind": "message_drop", "prob": 0.25}],
            }, seed=seed)
            inj = FaultInjector(plan)
            res = spmd_run(isx_main("hiper", cfg), cluster,
                           module_factories=[shmem_factory(
                               coalesce=comm_coalesce())],
                           fault_injector=inj)
            validate_isx(cfg, res.nranks, res.results)
            return inj, res

        inj1, res1 = chaos(seed=1)
        inj2, res2 = chaos(seed=1)
        assert inj1.events, "plan injected nothing; test is vacuous"
        assert inj1.event_log() == inj2.event_log()
        assert res1.makespan == res2.makespan


# ---------------------------------------------------------------------------
# mux teardown
# ---------------------------------------------------------------------------
class TestMuxTeardown:
    def test_unregister_channel_flushes_pending(self):
        ex, fab, muxes, got = make_world()
        muxes[0].enable_coalescing("app", CoalescePolicy(max_msgs=1000))
        muxes[0].transmit(1, "app", "last-words", 8)
        muxes[0].unregister_channel("app")
        ex.drain()
        assert [p for _, p in got[1]] == ["last-words"]  # not lost
        assert "app" not in muxes[0].channels()
        with pytest.raises(CommError, match="unregistered"):
            muxes[0].transmit(1, "app", "after-teardown", 8)

    def test_unregister_unknown_channel_rejected(self):
        ex, fab, muxes, got = make_world()
        with pytest.raises(CommError, match="not registered"):
            muxes[0].unregister_channel("ghost")

    def test_close_releases_rank_for_replacement(self):
        ex, fab, muxes, got = make_world()
        muxes[0].close()
        assert muxes[0].channels() == []
        # The rank's sink slot is free again: a replacement mux can claim it.
        m = FabricMux(fab, 0)
        back = []
        m.register_channel("app", lambda s, p, t: back.append(p))
        muxes[1].transmit(0, "app", "to-the-new-mux", 8)
        ex.drain()
        assert back == ["to-the-new-mux"]

    def test_register_sink_replace(self):
        ex, fab, muxes, got = make_world()
        replaced = []
        fab.register_sink(1, lambda s, p, t: replaced.append(p), replace=True)
        muxes[0].transmit(1, "app", "rerouted", 8)
        ex.drain()
        assert replaced == [("app", "rerouted")]
        assert got[1] == []

    def test_register_sink_duplicate_still_rejected(self):
        ex, fab, muxes, got = make_world()
        with pytest.raises(CommError, match="already has a registered sink"):
            fab.register_sink(1, lambda s, p, t: None)

    def test_enable_twice_rejected(self):
        ex, fab, muxes, got = make_world()
        muxes[0].enable_coalescing("app")
        with pytest.raises(CommError, match="already enabled"):
            muxes[0].enable_coalescing("app")

    def test_enable_on_unregistered_channel_rejected(self):
        ex, fab, muxes, got = make_world()
        with pytest.raises(CommError, match="unregistered"):
            muxes[0].enable_coalescing("ghost")


# ---------------------------------------------------------------------------
# end-to-end: SHMEM with coalescing
# ---------------------------------------------------------------------------
def run_shmem(main, nranks=4, workers=2, **mod_kwargs):
    cluster = ClusterConfig(nodes=nranks, ranks_per_node=1,
                            workers_per_rank=workers)
    return spmd_run(main, cluster,
                    module_factories=[shmem_factory(**mod_kwargs)])


class TestShmemCoalesced:
    def test_put_visible_after_barrier(self):
        def main(ctx):
            sh, me, n = ctx.shmem, ctx.rank, ctx.nranks
            dest = sh.malloc(n)
            sh.put(dest, np.array([me * 10]), (me + 1) % n, offset=me)
            sh.barrier_all()
            return int(dest[(me - 1) % n])

        res = run_shmem(main, coalesce=comm_coalesce())
        assert res.results == [r * 10 for r in [3, 0, 1, 2]]

    def test_quiet_is_a_flush_point(self):
        """Many sub-watermark puts then quiet: every byte must have landed
        when quiet returns (quiet flushes the coalescing buffers)."""
        def main(ctx):
            # Coroutine main (the SPMD idiom): yield the async collectives.
            sh, me, n = ctx.shmem, ctx.rank, ctx.nranks
            dest = sh.malloc(16)
            if me == 0:
                # Sub-watermark puts with an effectively-infinite timeout:
                # quiet alone must force the flush. (Local completions fire
                # at buffer time — well before any delivery.)
                futs = [sh.put_async(dest, np.array([i + 1]), 1, offset=i)
                        for i in range(16)]
                for f in futs:
                    yield f
                yield sh.quiet_async()
            yield sh.barrier_all_async()
            return int(dest.arr.sum()) if me == 1 else 0

        res = run_shmem(main, nranks=2,
                        coalesce=CoalescePolicy(max_msgs=1000,
                                                flush_interval=1.0))
        assert res.results[1] == sum(range(1, 17))

    def test_batch_stats_appear_in_merged_stats(self):
        def main(ctx):
            sh, me, n = ctx.shmem, ctx.rank, ctx.nranks
            dest = sh.malloc(4)
            for _ in range(8):
                yield sh.put_async(dest, np.arange(4), (me + 1) % n)
                yield sh.quiet_async()
            yield sh.barrier_all_async()
            return True

        res = run_shmem(main, coalesce=comm_coalesce())
        stats = res.merged_stats()
        assert stats.counter("shmem", "batches_sent") > 0
        assert stats.histogram("shmem", "batch_occupancy").n > 0

    def test_coalescing_off_by_default(self):
        def main(ctx):
            assert ctx.shmem.backend.mux.coalescer("shmem") is None
            return True

        assert all(run_shmem(main, nranks=2).results)


class TestMpiUpcxxCoalesced:
    """``coalesce=`` on the MPI and UPC++ modules batches their channel as
    on SHMEM: the same answers as per-message sends, with batches on the
    wire."""

    @staticmethod
    def _run(main, factory):
        cluster = ClusterConfig(nodes=4, ranks_per_node=1, workers_per_rank=2)
        return spmd_run(main, cluster, module_factories=[factory])

    def test_mpi_ring_of_small_sends(self):
        def main(ctx):
            me, n = ctx.rank, ctx.nranks
            sends = [ctx.mpi.isend(me * 100 + i, (me + 1) % n, tag=i)
                     for i in range(8)]
            got = []
            for i in range(8):
                data, _, _ = yield ctx.mpi.irecv(src=(me - 1) % n, tag=i)
                got.append(data)
            for f in sends:
                yield f
            return got

        off = self._run(main, mpi_factory())
        on = self._run(main, mpi_factory(coalesce=CoalescePolicy(max_msgs=4)))
        want = [[(r - 1) % 4 * 100 + i for i in range(8)] for r in range(4)]
        assert on.results == off.results == want
        assert on.merged_stats().counter("mpi", "batches_sent") > 0
        assert off.merged_stats().counter("mpi", "batches_sent") == 0

    def test_upcxx_rputs_land_before_their_futures(self):
        def main(ctx):
            u, me, n = ctx.upcxx, ctx.rank, ctx.nranks
            arr = u.shared_array(8, dtype=np.int64)
            yield u.barrier_async()
            futs = [u.rput(np.array([me * 10 + i]), arr.gptr((me + 1) % n, i))
                    for i in range(8)]
            for f in futs:
                yield f
            yield u.barrier_async()
            return arr.local.tolist()

        off = self._run(main, upcxx_factory())
        on = self._run(main,
                       upcxx_factory(coalesce=CoalescePolicy(max_msgs=4)))
        want = [[(r - 1) % 4 * 10 + i for i in range(8)] for r in range(4)]
        assert on.results == off.results == want
        assert on.merged_stats().counter("upcxx", "batches_sent") > 0
        assert off.merged_stats().counter("upcxx", "batches_sent") == 0


class TestIsxCoalescingDifferential:
    def test_results_identical_on_vs_off(self):
        from repro.verify import isx_coalescing_differential

        rep = isx_coalescing_differential()
        assert rep.ok, rep.describe()
        assert [r.engine for r in rep.runs] == ["coalesce-off", "coalesce-on"]

    def test_report_flags_divergence(self):
        """The checker itself must be able to fail (no vacuous pass)."""
        from repro.verify import isx_coalescing_differential

        rep = isx_coalescing_differential()
        rep.runs[1].result = ("isx-coalescing", 0, ("tampered",))
        rep.mismatches = []
        baseline = rep.runs[0]
        for run in rep.runs[1:]:
            if run.result != baseline.result:
                rep.mismatches.append("diverged")
        assert not rep.ok
