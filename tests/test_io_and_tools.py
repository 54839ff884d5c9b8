"""Checkpoint module (paper §V future work), storage substrate, tracing
tooling, and inter-module discovery (§IV future direction)."""

import json

import numpy as np
import pytest

from repro.distrib import ClusterConfig, spmd_run
from repro.exec.sim import SimExecutor
from repro.io import CheckpointModule, SimStore, StorageError, checkpoint_factory
from repro.mpi import mpi_factory
from repro.platform import MachineSpec, discover
from repro.runtime.api import charge, finish, forasync, now
from repro.runtime.runtime import HiperRuntime
from repro.shmem import shmem_factory
from repro.tools import TraceRecorder
from repro.util.errors import ModuleError


NVM_MACHINE = MachineSpec(name="nvm-box", sockets=1, cores_per_socket=4,
                          nvm_bytes=1 << 30)


def nvm_cluster(nodes=1, workers=4):
    return ClusterConfig(nodes=nodes, ranks_per_node=1,
                         workers_per_rank=workers, machine=NVM_MACHINE)


class TestSimStore:
    def make(self, **kw):
        return SimStore(SimExecutor(), **kw)

    def test_write_read_round_trip(self):
        store = self.make()
        data = np.arange(100, dtype=np.float32)
        store.write("a", data)
        op = store.read("a", np.float32, (100,))
        store.executor.drain()
        assert np.array_equal(op.value, data)

    def test_write_is_snapshot(self):
        store = self.make()
        data = np.ones(10)
        store.write("k", data)
        data[:] = -1  # mutation after issue must not affect the checkpoint
        op = store.read("k", np.float64, (10,))
        store.executor.drain()
        assert np.all(op.value == 1)

    def test_capacity_enforced(self):
        store = self.make(capacity_bytes=100)
        with pytest.raises(StorageError, match="full"):
            store.write("big", np.zeros(1000))

    def test_overwrite_reuses_space(self):
        store = self.make(capacity_bytes=1000)
        store.write("k", np.zeros(100, np.uint8))
        store.executor.drain()
        store.write("k", np.zeros(120, np.uint8))
        store.executor.drain()
        assert store.used_bytes == 120

    def test_missing_key_read(self):
        with pytest.raises(StorageError, match="no object"):
            self.make().read("ghost", np.float64, (1,))

    def test_delete(self):
        store = self.make()
        store.write("k", np.zeros(4))
        store.executor.drain()
        store.delete("k")
        assert not store.exists("k")
        with pytest.raises(StorageError):
            store.delete("k")

    def test_write_serialization_costs_time(self):
        store = self.make(bandwidth=1e6, latency=0.0)  # 1 MB/s
        op1 = store.write("a", np.zeros(1 << 20, np.uint8))  # 1 MB -> 1 s
        op2 = store.write("b", np.zeros(1 << 20, np.uint8))
        store.executor.drain()
        assert op1.completion_time == pytest.approx(1.0, rel=0.05)
        assert op2.completion_time == pytest.approx(2.0, rel=0.05)


class TestCheckpointModule:
    def test_checkpoint_restore_round_trip(self):
        def main(ctx):
            ck = ctx.runtime.module("checkpoint")
            state = {"u": np.arange(50, dtype=np.float64),
                     "iters": np.array([7])}
            yield ck.checkpoint_async("step7", state)
            state["u"][:] = 0  # keep computing; checkpoint is a snapshot
            restored = yield ck.restore_async("step7")
            return (restored["u"].sum(), int(restored["iters"][0]))

        res = spmd_run(main, nvm_cluster(),
                       module_factories=[checkpoint_factory()])
        assert res.results == [(float(np.arange(50).sum()), 7)]

    def test_checkpoint_overlaps_compute(self):
        """The paper's point: checkpoint I/O must NOT extend the critical
        path when there is useful work to overlap with."""
        def main(ctx):
            ck = ctx.runtime.module("checkpoint")
            big = np.zeros(1 << 20)  # 8 MB over ~6 GB/s NVM ≈ 1.4 ms
            f = ck.checkpoint_async("big", {"a": big})
            t0 = now()
            # 4 workers x ~0.35ms compute each ≈ 1.4ms of overlap work
            finish(lambda: forasync(56, lambda i: charge(1e-4), chunks=56))
            compute_done = now() - t0
            yield f
            total = now() - t0
            return (compute_done, total)

        res = spmd_run(main, nvm_cluster(),
                       module_factories=[checkpoint_factory()])
        compute_done, total = res.results[0]
        # I/O overlapped with compute: total ≈ max(io, compute), not sum
        assert total < compute_done + 1.6e-3
        assert total < 2 * compute_done + 1e-3

    def test_restore_unknown_key(self):
        def main(ctx):
            ctx.runtime.module("checkpoint").restore_async("nope")

        with pytest.raises(Exception, match="no checkpoint"):
            spmd_run(main, nvm_cluster(),
                     module_factories=[checkpoint_factory()])

    def test_requires_storage_place(self):
        ex = SimExecutor()
        model = discover(MachineSpec(name="bare", sockets=1,
                                     cores_per_socket=2), num_workers=2)
        rt = HiperRuntime(model, ex)
        with pytest.raises(ModuleError, match="NVM or disk"):
            rt.start([CheckpointModule()])

    def test_periodic_checkpointing(self):
        def main(ctx):
            ck = ctx.runtime.module("checkpoint")
            epochs = []

            def provider(epoch):
                epochs.append(epoch)
                if epoch >= 3:
                    stop()
                    return None
                return {"x": np.array([epoch])}

            stop = ck.checkpoint_every(1e-3, provider)
            from repro.runtime.api import timer_future
            yield timer_future(6e-3)
            return (epochs, ck.checkpoints())

        res = spmd_run(main, nvm_cluster(),
                       module_factories=[checkpoint_factory()])
        epochs, keys = res.results[0]
        assert epochs[:4] == [0, 1, 2, 3]
        assert keys == ["auto-0", "auto-1", "auto-2"]

    def test_distributed_checkpoint(self):
        def main(ctx):
            ck = ctx.runtime.module("checkpoint")
            mine = np.full(32, float(ctx.rank))
            yield ck.checkpoint_async("state", {"slab": mine})
            yield ctx.mpi.barrier_async()
            back = yield ck.restore_async("state")
            return float(back["slab"][0])

        res = spmd_run(main, nvm_cluster(nodes=3),
                       module_factories=[checkpoint_factory(), mpi_factory()])
        assert res.results == [0.0, 1.0, 2.0]


class TestTraceRecorder:
    def run_traced(self):
        ex = SimExecutor()
        tracer = TraceRecorder()
        ex.attach_tracer(tracer)
        model = discover(MachineSpec(name="t", sockets=1, cores_per_socket=4),
                         num_workers=4)
        rt = HiperRuntime(model, ex).start()
        rt.run(lambda: finish(lambda: forasync(
            32, lambda i: charge(1e-4), chunks=32)))
        return tracer, ex

    def test_records_task_segments(self):
        tracer, _ = self.run_traced()
        assert len(tracer) >= 32
        assert all(ev.end >= ev.start for ev in tracer.events)

    def test_module_attribution(self):
        tracer, _ = self.run_traced()
        times = tracer.module_times()
        assert times.get("core", 0) >= 32 * 1e-4 * 0.9

    def test_utilization_reasonable(self):
        tracer, ex = self.run_traced()
        u = tracer.utilization(ex.makespan())
        # help-first blocking nests task segments; per-worker busy time is
        # the interval *union*, so utilization is <= 1 by construction
        assert 0.5 < u <= 1.0

    def test_chrome_trace_is_valid_json(self):
        tracer, _ = self.run_traced()
        doc = json.loads(tracer.to_chrome_trace())
        assert doc["traceEvents"]
        ev = doc["traceEvents"][0]
        assert {"name", "cat", "ph", "ts", "dur", "pid", "tid"} <= set(ev)

    def test_summary_mentions_modules(self):
        tracer, _ = self.run_traced()
        assert "core" in tracer.summary()

    def test_max_events_bound(self):
        tracer = TraceRecorder(max_events=2)
        for i in range(5):
            tracer.record(0, 0, "core", "t", 0.0, 1.0)
        assert len(tracer) == 2 and tracer.dropped == 3

    def test_stats_timers_populated_when_traced(self):
        ex = SimExecutor()
        ex.attach_tracer(TraceRecorder())
        model = discover(MachineSpec(name="t", sockets=1, cores_per_socket=2),
                         num_workers=2)
        rt = HiperRuntime(model, ex).start()
        rt.run(lambda: finish(lambda: forasync(
            8, lambda i: charge(1e-5), chunks=8)))
        assert sum(rec.total for (mod, _), rec in rt.stats.timers.items()
                   if mod == "core") > 0


class TestModuleDiscovery:
    def test_query_by_capability(self):
        def main(ctx):
            rt = ctx.runtime
            comm = rt.query_modules("communication")
            assert [m.name for m in comm] == ["mpi", "shmem"]
            assert [m.name for m in rt.query_modules("atomics")] == ["shmem"]
            assert rt.query_modules("accelerator") == []
            return True

        res = spmd_run(main, nvm_cluster(nodes=2),
                       module_factories=[mpi_factory(), shmem_factory()])
        assert all(res.results)
