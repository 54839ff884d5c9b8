"""UPC++ module: global pointers, rput/rget, RPCs, collectives."""

import threading
import types

import numpy as np
import pytest

from repro.distrib import ClusterConfig, spmd_run
from repro.runtime.future import satisfied_future
from repro.upcxx import GlobalPtr, UpcxxBackend, upcxx_factory
from repro.util.errors import ConfigError, UpcxxError
from tests.refusal import assert_refusal_changes_nothing, three_ranks


def run(main, nranks=4, workers=2):
    cfg = ClusterConfig(nodes=nranks, ranks_per_node=1,
                        workers_per_rank=workers)
    return spmd_run(main, cfg, module_factories=[upcxx_factory()])


class TestGlobalPtr:
    def test_pointer_arithmetic(self):
        from repro.upcxx import GlobalPtr
        g = GlobalPtr(2, 5, 10)
        g2 = g + 4
        assert (g2.rank, g2.obj_id, g2.offset) == (2, 5, 14)


class TestRputRget:
    def test_rput_remote_completion_visible(self):
        def main(ctx):
            u = ctx.upcxx
            me, n = ctx.rank, ctx.nranks
            arr = u.shared_array(4, dtype=np.int64)
            yield u.barrier_async()
            # rput completes remotely: after the future, the value IS there
            yield u.rput(np.array([me]), arr.gptr((me + 1) % n, me % 4))
            yield u.barrier_async()
            return arr.local.tolist()

        res = run(main)
        for r, local in enumerate(res.results):
            left = (r - 1) % 4
            expect = [0, 0, 0, 0]
            expect[left % 4] = left
            assert local == expect

    def test_rget_fetches_remote_block(self):
        def main(ctx):
            u = ctx.upcxx
            me, n = ctx.rank, ctx.nranks
            arr = u.shared_array(3, dtype=np.float64)
            arr.local[:] = me + 0.25
            yield u.barrier_async()
            got = yield u.rget(arr.gptr((me + 2) % n), 3)
            return got.tolist()

        res = run(main)
        for r, got in enumerate(res.results):
            assert got == [((r + 2) % 4) + 0.25] * 3

    def test_rput_out_of_bounds_propagates(self):
        def main(ctx):
            u = ctx.upcxx
            arr = u.shared_array(2)
            yield u.barrier_async()
            try:
                yield u.rput(np.arange(10), arr.gptr(0, 0))
            except UpcxxError:
                return "bounds"
            return "missed"

        res = run(main, nranks=2)
        assert all(r == "bounds" for r in res.results)

    def test_rget_out_of_bounds_propagates(self):
        def main(ctx):
            u = ctx.upcxx
            arr = u.shared_array(2)
            yield u.barrier_async()
            try:
                yield u.rget(arr.gptr(0, 1), 5)
            except UpcxxError:
                return "bounds"
            return "missed"

        res = run(main, nranks=2)
        assert all(r == "bounds" for r in res.results)


class TestEarlyArrival:
    def test_rput_before_registration_lands_at_registration(self):
        # Ranks in separate processes start unsynchronised: a peer's rput
        # can reach this rank before it registered the target object.
        replies = []

        class Mux:
            nranks = 2
            fabric = types.SimpleNamespace(executor=types.SimpleNamespace(
                lock_class=threading.Lock))

            def register_channel(self, name, handler):
                pass

            def reply(self, origin, channel, req_id, value, nbytes,
                      exc=False):
                replies.append((origin, req_id, value))

        backend = UpcxxBackend(Mux(), 1, {}, spawn_rpc=None)
        backend._on_delivery(0, ("rput", 0, 1, np.array([7, 8]), 0, 42), 0.0)
        assert replies == []
        arr = np.zeros(4, dtype=np.int64)
        backend.register_shared(arr)
        assert arr.tolist() == [0, 7, 8, 0]
        assert replies == [(0, 42, None)]


class TestRpc:
    def test_rpc_runs_on_target_and_returns(self):
        def main(ctx):
            u = ctx.upcxx
            me, n = ctx.rank, ctx.nranks
            v = yield u.rpc((me + 1) % n, lambda a: a * 2 + 1, me)
            return v

        res = run(main)
        assert res.results == [1, 3, 5, 7]

    def test_rpc_mutates_target_state(self):
        def main(ctx):
            u = ctx.upcxx
            me, n = ctx.rank, ctx.nranks
            arr = u.shared_array(1, dtype=np.int64)
            yield u.barrier_async()
            local = arr.local

            # an RPC that increments the *target's* local block
            def bump(amount, _arr=None):
                local[0] += amount  # noqa: B023 - captured per-rank
                return None

            # each rank asks rank 0 to bump by its rank+1 (send fn bound to
            # rank 0's array via rget side effect is wrong — use rpc closure
            # over the shared registry instead)
            peers = ctx.shared["upcxx-backends"]

            def bump_on_target(amount, obj_id):
                # runs ON the target: resolve the target-local array
                import numpy as _np
                tgt = peers_holder[0]._resolve(obj_id)
                tgt[0] += amount
                return int(tgt[0])

            peers_holder = [peers[0]]
            yield u.rpc(0, bump_on_target, me + 1, arr.obj_id)
            yield u.barrier_async()
            return int(arr.local[0]) if me == 0 else None

        res = run(main)
        assert res.results[0] == sum(range(1, 5))

    def test_rpc_exception_propagates_to_caller(self):
        def main(ctx):
            u = ctx.upcxx

            def boom():
                raise ValueError("remote failure")

            try:
                yield u.rpc(0, boom)
            except ValueError as e:
                return str(e)
            return "missed"

        res = run(main, nranks=2)
        assert all(r == "remote failure" for r in res.results)

    def test_rpc_target_out_of_range(self):
        def main(ctx):
            ctx.upcxx.rpc(99, lambda: None)

        with pytest.raises(ConfigError, match="out of range"):
            run(main, nranks=2)

    def test_rpcs_count_in_stats(self):
        def main(ctx):
            yield ctx.upcxx.rpc(0, lambda: 1)
            return None

        res = run(main, nranks=2)
        stats0 = res.contexts[0].runtime.stats
        assert stats0.counter("upcxx", "rpc_in") == 2


class TestCollectives:
    def test_allreduce_and_broadcast(self):
        def main(ctx):
            u = ctx.upcxx
            total = yield u.allreduce_async(ctx.rank, lambda a, b: a + b)
            val = yield u.broadcast_async(
                "from3" if ctx.rank == 3 else None, root=3)
            return (total, val)

        res = run(main)
        assert all(r == (6, "from3") for r in res.results)

    def test_barrier_alignment(self):
        from repro.runtime.api import charge, now

        def main(ctx):
            if ctx.rank == 1:
                charge(3e-3)
            yield ctx.upcxx.barrier_async()
            return now()

        res = run(main)
        assert all(t >= 3e-3 for t in res.results)


class TestRefusedSend:
    """A refused rput/rget/rpc changes nothing (shape: ``tests/refusal.py``).
    Before the send seam, each bumped ``rputs``/``rgets``/``rpcs`` and left
    its request registered."""

    BLOCK = np.arange(8, dtype=np.int64)

    @staticmethod
    def _world(limit):
        def build(mux, rank):
            b = UpcxxBackend(mux, rank, peers,
                             spawn_rpc=lambda body: satisfied_future(body()))
            b.register_shared(np.zeros(64, dtype=np.int64))
            return b

        peers = {}
        ex, fab, stats, (b, _) = three_ranks(limit, build)
        return ex, fab, stats, b

    @pytest.mark.parametrize("limit, op, error", [
        (512, lambda b: b.rput(np.zeros(64, np.int64), GlobalPtr(1, 0)),
         "exceeds fabric limit"),
        (512, lambda b: b.rput(TestRefusedSend.BLOCK, GlobalPtr(2, 0)),
         "no registered message sink"),
        (32, lambda b: b.rget(GlobalPtr(1, 0), 4), "exceeds fabric limit"),
        (512, lambda b: b.rget(GlobalPtr(2, 0), 4),
         "no registered message sink"),
        (512, lambda b: b.rpc(1, int, nbytes=4096), "exceeds fabric limit"),
        (512, lambda b: b.rpc(2, int), "no registered message sink"),
    ], ids=["rput-oversize", "rput-no-sink", "rget-oversize", "rget-no-sink",
            "rpc-oversize", "rpc-no-sink"])
    def test_refused_op_changes_nothing(self, limit, op, error):
        ex, fab, stats, b = self._world(limit)
        if limit >= 512:  # non-trivial state to preserve
            b.rput(self.BLOCK, GlobalPtr(1, 0))
            b.rget(GlobalPtr(1, 0), 4)
            b.rpc(1, int)
            ex.drain()
        assert_refusal_changes_nothing(
            ex, fab, stats, b.mux, "upcxx",
            lambda: (b.rputs, b.rgets, b.rpcs), lambda: op(b), error,
            lambda: b.rput(self.BLOCK, GlobalPtr(1, 0, 8)))
