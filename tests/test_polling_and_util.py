"""Polling services (paper §II-C1 flow), statistics hooks (§V tooling),
timers, async_copy dispatch, and the util layer."""

import numpy as np
import pytest

from repro.platform.place import PlaceType
from repro.runtime.api import async_copy, charge, finish, now, timer_future, yield_now
from repro.runtime.future import Promise
from repro.runtime.polling import PollingService
from repro.util.errors import ConfigError
from repro.util.rng import RngFactory
from repro.util.stats import RuntimeStats, TimerRecord


class TestPollingService:
    def test_single_polling_task_for_many_watchers(self, sim_rt):
        svc = PollingService(sim_rt, sim_rt.sysmem, module="test",
                             interval=1e-5)
        flags = [False] * 5
        promises = [Promise(f"op{i}") for i in range(5)]

        def main():
            for i in range(5):
                svc.watch(lambda i=i: (flags[i], i), promises[i])
            # all ops complete at t=1ms via a timer
            timer_future(1e-3).on_ready(
                lambda f: flags.__setitem__(slice(None), [True] * 5))
            for p in promises:
                assert p.get_future().wait() is not None or True
            return [p.get_future().value() for p in promises]

        assert sim_rt.run(main) == [0, 1, 2, 3, 4]
        # the service swept repeatedly but existed as one logical poller
        assert svc.sweeps >= 2
        assert svc.outstanding == 0

    def test_empty_sweeps_rearm_at_the_fixed_interval(self, sim_rt,
                                                      monkeypatch):
        svc = PollingService(sim_rt, sim_rt.sysmem, module="test",
                             interval=1e-6)
        delays = []
        monkeypatch.setattr(sim_rt.executor, "call_later",
                            lambda delay, fn: delays.append(delay))
        svc._pending.append((lambda: (False, None), Promise()))
        for _ in range(8):
            svc._sweep()
        assert delays == [1e-6] * 8

    def test_interval_bounds_latency_without_kick(self, sim_rt):
        svc = PollingService(sim_rt, sim_rt.sysmem, module="test",
                             interval=5e-4, eager_kick=False)
        box = {"done": False}

        def main():
            p = Promise("op")
            svc.watch(lambda: (box["done"], 42), p)
            timer_future(1e-4).on_ready(
                lambda f: box.__setitem__("done", True))
            v = p.get_future().wait()
            return (v, now())

        v, t = sim_rt.run(main)
        assert v == 42
        # completion at 0.1ms, but the poller only notices on its 0.5ms grid
        assert t >= 5e-4

    def test_kick_accelerates_completion(self, sim_rt):
        svc = PollingService(sim_rt, sim_rt.sysmem, module="test",
                             interval=5e-4, eager_kick=True)
        box = {"done": False}

        def main():
            p = Promise("op")
            svc.watch(lambda: (box["done"], 1), p)

            def fire(_f):
                box["done"] = True
                svc.kick()

            timer_future(1e-4).on_ready(fire)
            p.get_future().wait()
            return now()

        assert sim_rt.run(main) < 3e-4


class TestTimeApis:
    def test_timer_future_ordering(self, sim_rt):
        order = []

        def main():
            timer_future(3e-3).on_ready(lambda f: order.append("late"))
            timer_future(1e-3).on_ready(lambda f: order.append("early"))
            timer_future(5e-3).wait()
            return order

        assert sim_rt.run(main) == ["early", "late"]

    def test_negative_timer_rejected(self, sim_rt):
        def main():
            timer_future(-1.0)

        with pytest.raises(ConfigError):
            sim_rt.run(main)

    def test_yield_now_lets_other_work_run(self, sim_rt1):
        log = []

        def main():
            def helper():
                log.append("helper")

            finish(lambda: (
                sim_rt1.spawn(helper),
                yield_now(),
                log.append("after-yield"),
            ))
            return log

        out = sim_rt1.run(main)
        assert out.index("helper") < out.index("after-yield")


class TestAsyncCopyCore:
    def test_host_copy_moves_bytes_and_charges(self, sim_rt):
        src = np.arange(64, dtype=np.float64)
        dst = np.zeros(64)

        def main():
            f = async_copy(dst, sim_rt.sysmem, src, sim_rt.sysmem,
                           src.nbytes)
            f.wait()
            return now()

        t = sim_rt.run(main)
        assert np.array_equal(dst, src)
        assert t > 0  # bandwidth cost charged

    def test_zero_byte_copy(self, sim_rt):
        dst = np.zeros(4)

        def main():
            async_copy(dst, sim_rt.sysmem, np.ones(4), sim_rt.sysmem, 0).wait()

        sim_rt.run(main)
        assert np.all(dst == 0)

    def test_noncontiguous_buffer_rejected(self, sim_rt):
        src = np.zeros((8, 8))[:, ::2]

        def main():
            async_copy(np.zeros(32), sim_rt.sysmem, src, sim_rt.sysmem,
                       128).wait()

        with pytest.raises(ConfigError, match="contiguous"):
            sim_rt.run(main)

    def test_undersized_buffer_rejected(self, sim_rt):
        def main():
            async_copy(np.zeros(2), sim_rt.sysmem, np.zeros(100),
                       sim_rt.sysmem, 800).wait()

        with pytest.raises(ConfigError, match="bytes"):
            sim_rt.run(main)

    def test_non_memory_place_rejected(self, sim_rt):
        nic = sim_rt.interconnect

        def main():
            async_copy(np.zeros(4), nic, np.zeros(4), sim_rt.sysmem, 32)

        with pytest.raises(ConfigError, match="not a memory place"):
            sim_rt.run(main)


class TestStats:
    def test_counters_and_timers(self):
        s = RuntimeStats()
        s.count("mpi", "send", 3)
        s.time("mpi", "send", 0.5)
        s.time("mpi", "send", 1.5)
        assert s.counter("mpi", "send") == 3
        rec = s.timer("mpi", "send")
        assert rec.count == 2 and rec.total == 2.0 and rec.mean == 1.0
        assert rec.max == 1.5

    def test_module_time_aggregates(self):
        s = RuntimeStats()
        s.time("cuda", "kernel", 1.0)
        s.time("cuda", "copy", 0.5)
        s.time("mpi", "send", 2.0)
        cuda = [rec.total for (mod, _), rec in s.timers.items() if mod == "cuda"]
        assert sum(cuda) == 1.5
        assert set(s.modules()) == {"cuda", "mpi"}

    def test_merge(self):
        a, b = RuntimeStats(), RuntimeStats()
        a.count("core", "x")
        b.count("core", "x", 2)
        b.time("core", "y", 1.0)
        a.merge(b)
        assert a.counter("core", "x") == 3
        assert a.timer("core", "y").total == 1.0

    def test_report_is_readable(self):
        s = RuntimeStats()
        s.count("mpi", "send")
        s.time("mpi", "recv", 0.25)
        text = s.report()
        assert "mpi" in text and "recv" in text and "send" in text

    def test_worker_activity(self, threaded_rt):
        """Charged time lands on the charging worker, not in the stats: on
        the wall-clock engine a charge is busy time and nothing else."""
        threaded_rt.run(lambda: charge(1.0))
        assert sum(w.busy_time for w in threaded_rt.workers) == 1.0
        assert all(w.idle_time == 0.0 for w in threaded_rt.workers)
        assert "worker_busy" not in threaded_rt.stats.to_dict()


class TestRngFactoryApi:
    def test_spawn_derives_independent_factory(self):
        f = RngFactory(3)
        child = f.spawn("rank", 2)
        a = child.stream("x").random(4)
        b = RngFactory(3).spawn("rank", 2).stream("x").random(4)
        assert np.array_equal(a, b)
        c = f.stream("x").random(4)
        assert not np.array_equal(a, c)

    def test_bad_seed_rejected(self):
        with pytest.raises(ValueError):
            RngFactory(-1)

    def test_bool_key_rejected(self):
        with pytest.raises(TypeError):
            RngFactory(1).stream(True)

    def test_bad_key_type_rejected(self):
        with pytest.raises(TypeError):
            RngFactory(1).stream(3.14)
