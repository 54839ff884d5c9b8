"""A complete third-party module written OUTSIDE repro.* — the paper's
extensibility claim, proven end to end (docs/writing-a-module.md walks
through this file).

The module is a "key-value cache service": it owns the NVM place, provides
taskified synchronous gets, polling-flow asynchronous puts, registers a copy
handler, exports namespace functions, and advertises a capability.
"""

import numpy as np
import pytest

from repro.exec.sim import SimExecutor
from repro.modules import HiperModule
from repro.platform import MachineSpec, PlaceType, discover
from repro.runtime.api import charge, now, timer_future
from repro.runtime.future import Future
from repro.runtime.runtime import HiperRuntime


class _FakeBackendOp:
    """Stand-in for third-party hardware: completes after a virtual delay."""

    def __init__(self, executor, delay: float, value, on_complete):
        self.done = False
        self.value = value
        self._on_complete = on_complete
        executor.call_later(delay, self._finish)

    def _finish(self):
        self.done = True
        self._on_complete()

    def test(self):
        return self.done


class KvCacheModule(HiperModule):
    """The worked example from docs/writing-a-module.md."""

    name = "kvcache"
    capabilities = frozenset({"storage", "cache"})

    LATENCY = 2e-4  # virtual seconds per backend op

    def initialize(self, runtime):
        self.require_place_type(runtime, PlaceType.NVM)
        self.place = runtime.model.first_of_type(PlaceType.NVM)  # taskify here
        self.runtime = runtime
        self.store = {}
        self.start_polling(runtime, self.place)
        runtime.register_copy_handler(
            PlaceType.NVM, PlaceType.SYSTEM_MEM, self._copy_out)
        self.export(runtime, "kv_put_async", self.put_async)
        self.export(runtime, "kv_get", self.get)
        self.finalized = False

    def finalize(self, runtime):
        super().finalize(runtime)  # refuses puts still in flight
        self.finalized = True

    # polling flow (asynchronous puts)
    def put_async(self, key, value) -> Future:
        op = _FakeBackendOp(self.runtime.executor, self.LATENCY,
                            ("stored", key), self.polling.kick)
        self.store[key] = np.asarray(value).copy()
        return self.poll(op, "put")

    # taskify flow (synchronous-looking gets)
    def get(self, key):
        def _comm():
            yield timer_future(self.LATENCY)  # the backend round trip
            if key not in self.store:
                raise KeyError(key)
            return self.store[key].copy()

        return self.taskify("get", _comm).wait()

    # special-purpose copy handler: async_copy(NVM -> sysmem)
    def _copy_out(self, rt, dst_buf, dst_place, src_buf, src_place, nbytes):
        # src_buf is the key string by this module's convention
        def _comm():
            yield timer_future(self.LATENCY)
            data = self.store[src_buf]
            flat = dst_buf.reshape(-1).view(np.uint8)
            flat[:nbytes] = data.reshape(-1).view(np.uint8)[:nbytes]

        return self.taskify("copy_out", _comm)


@pytest.fixture
def kv_rt():
    spec = MachineSpec(name="kv-box", sockets=1, cores_per_socket=4,
                       nvm_bytes=1 << 30)
    ex = SimExecutor()
    model = discover(spec, num_workers=4, with_interconnect=False)
    rt = HiperRuntime(model, ex).start([KvCacheModule()])
    yield rt
    rt.shutdown()


class TestThirdPartyModule:
    def test_lifecycle(self, kv_rt):
        mod = kv_rt.module("kvcache")
        assert not mod.finalized
        kv_rt.shutdown()
        assert mod.finalized

    def test_namespace_exports(self, kv_rt):
        def main():
            kv_rt.ops.kv_put_async("a", np.arange(4)).wait()
            return kv_rt.ops.kv_get("a").tolist()

        assert kv_rt.run(main) == [0, 1, 2, 3]

    def test_polling_flow_costs_backend_latency(self, kv_rt):
        mod = kv_rt.module("kvcache")

        def main():
            f = mod.put_async("k", np.zeros(2))
            f.wait()
            return now()

        assert kv_rt.run(main) >= KvCacheModule.LATENCY

    def test_puts_overlap_compute(self, kv_rt):
        mod = kv_rt.module("kvcache")

        def main():
            futs = [mod.put_async(f"k{i}", np.zeros(2)) for i in range(8)]
            charge(KvCacheModule.LATENCY)  # useful work during the I/O
            for f in futs:
                f.wait()
            return now()

        # 8 concurrent puts + overlapped compute ≈ one latency, not nine
        assert kv_rt.run(main) < KvCacheModule.LATENCY * 2.5

    def test_taskified_get_missing_key_raises(self, kv_rt):
        mod = kv_rt.module("kvcache")

        def main():
            with pytest.raises(KeyError):
                mod.get("ghost")
            return "ok"

        assert kv_rt.run(main) == "ok"

    def test_copy_handler_dispatch(self, kv_rt):
        from repro.runtime.api import async_copy

        mod = kv_rt.module("kvcache")
        nvm = kv_rt.model.first_of_type(PlaceType.NVM)

        def main():
            mod.put_async("blob", np.arange(16, dtype=np.int64)).wait()
            out = np.zeros(16, dtype=np.int64)
            async_copy(out, kv_rt.sysmem, "blob", nvm, out.nbytes,
                       runtime=kv_rt).wait()
            return out.tolist()

        assert kv_rt.run(main) == list(range(16))

    def test_capability_discovery(self, kv_rt):
        assert [m.name for m in kv_rt.query_modules("cache")] == ["kvcache"]

    def test_stats_attribution(self, kv_rt):
        def main():
            kv_rt.ops.kv_put_async("s", np.zeros(1)).wait()
            kv_rt.ops.kv_get("s")

        kv_rt.run(main)
        assert kv_rt.stats.counter("kvcache", "put") == 1
        assert kv_rt.stats.counter("kvcache", "get") == 1


class TestFutureThen:
    def test_then_chains_values(self, sim_rt):
        from repro.runtime.api import async_future

        def main():
            f = async_future(lambda: 6).then(lambda v: v * 7)
            return f.wait()

        assert sim_rt.run(main) == 42

    def test_then_propagates_exceptions(self, sim_rt):
        from repro.runtime.api import async_future

        def main():
            f = async_future(lambda: 1 / 0).then(lambda v: v + 1)
            with pytest.raises(ZeroDivisionError):
                f.wait()
            g = async_future(lambda: 1).then(lambda v: v / 0)
            with pytest.raises(ZeroDivisionError):
                g.wait()
            return "ok"

        assert sim_rt.run(main) == "ok"


class TestTopology:
    def test_torus_distances(self):
        from repro.net import TorusTopology

        t = TorusTopology([4, 4, 4])
        assert t.hops(0, 0) == 0
        # coords wrap: distance 3 along one axis is 1 hop the short way
        a = 0          # (0,0,0)
        b = 3          # (0,0,3)
        assert t.hops(a, b) == 1
        assert max(t.hops(a, b) for a in range(16) for b in range(16)) <= 6

    def test_dragonfly_three_hop_max(self):
        from repro.net import DragonflyTopology

        d = DragonflyTopology(group_size=4)
        assert d.hops(0, 1) == 1     # same group
        assert d.hops(0, 5) == 3     # cross-group
        assert d.extra_latency(0, 5) == pytest.approx(2 * d.per_hop_latency)

    def test_topology_slows_distant_pairs(self):
        from repro.exec.sim import SimExecutor
        from repro.net import NetworkModel, SimFabric, TorusTopology

        def delivery_time(topology):
            ex = SimExecutor()
            fab = SimFabric(ex, 64, NetworkModel(), topology=topology)
            seen = []
            fab.register_sink(63, lambda s, p, t: seen.append(t))
            fab.transmit(0, 63, 100, "x")
            ex.drain()
            return seen[0]

        from repro.net import FlatTopology
        flat = delivery_time(FlatTopology())
        torus = delivery_time(TorusTopology.fit(64))
        assert torus > flat

    def test_fit_covers_node_count(self):
        from repro.net import TorusTopology

        for n in (1, 7, 27, 100):
            t = TorusTopology.fit(n)
            assert t.size >= n
