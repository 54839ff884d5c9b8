"""Executor internals: event ordering, clock semantics, deadlock reporting,
context management, threaded watchdog and timers, harness utilities."""

import threading
import time

import pytest

from repro.bench import Series, cluster_for, source_loc, sweep
from repro.exec.sim import SimExecutor
from repro.exec.threaded import ThreadedExecutor
from repro.platform import discover, machine
from repro.runtime.api import async_, async_future, charge, finish, now, timer_future
from repro.runtime.context import (
    ExecContext,
    _tls,
    current_context,
    pop_context,
    push_context,
    require_context,
    scoped_context,
)
from repro.runtime.finish import FinishScope
from repro.runtime.future import Promise
from repro.runtime.runtime import HiperRuntime
from repro.util.errors import ConfigError, DeadlockError, RuntimeStateError


class TestSimExecutorEvents:
    def test_call_later_relative_to_caller_clock(self, sim_rt1):
        def main():
            charge(2e-3)
            fired = []
            sim_rt1.executor.call_later(1e-3, lambda: fired.append(now()))
            timer_future(2e-3).wait()
            return fired

        # caller clock was 2ms; event fires at 3ms
        assert sim_rt1.run(main) == [pytest.approx(3e-3)]

    def test_call_at_absolute(self, sim_rt1):
        def main():
            charge(5e-3)
            fired = []
            sim_rt1.executor.call_at(1e-3, lambda: fired.append(True))
            # the event is already in the past relative to this worker, but
            # fires at its own absolute time on the event floor
            timer_future(1e-3).wait()
            return fired

        assert sim_rt1.run(main) == [True]

    def test_events_at_same_time_batch_in_fifo_order(self, sim_rt1):
        order = []

        def main():
            for i in range(5):
                sim_rt1.executor.call_at(1e-3, lambda i=i: order.append(i))
            timer_future(2e-3).wait()
            return order

        assert sim_rt1.run(main) == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self, sim_rt1):
        with pytest.raises(ConfigError):
            sim_rt1.executor.call_later(-1, lambda: None)

    def test_call_at_in_the_virtual_past_clamps_to_event_floor(self, sim_rt1):
        """Regression: ``call_at`` used to clamp to 0.0 instead of the event
        floor, so an event stamped in the virtual past could sort before an
        event scheduled *earlier in real causality* — here, B (stamped 1ms)
        would overtake A (stamped 2ms) even though A was scheduled first from
        the same 5ms event. Clamping to the floor stamps both at 5ms and the
        same-timestamp batch preserves FIFO scheduling order."""
        order = []

        def main():
            ex = sim_rt1.executor

            def at_five():
                ex.call_at(2e-3, lambda: order.append("A"))
                ex.call_at(1e-3, lambda: order.append("B"))

            ex.call_later(5e-3, at_five)
            timer_future(6e-3).wait()
            return order

        assert sim_rt1.run(main) == ["A", "B"]

    def test_makespan_covers_worker_clocks_and_events(self, sim_rt):
        def main():
            charge(1e-3)

        sim_rt.run(main)
        assert sim_rt.executor.makespan() >= 1e-3

    def test_now_outside_worker_is_event_floor(self, sim_rt1):
        probes = []

        def main():
            sim_rt1.executor.call_later(
                4e-3, lambda: probes.append(sim_rt1.executor.now()))
            timer_future(5e-3).wait()

        sim_rt1.run(main)
        assert probes == [pytest.approx(4e-3)]

    def test_parked_dependency_prevents_quiescence(self):
        """A task predicated on an unsatisfiable future holds its finish
        scope open; the engine proves the stall instead of hanging."""
        ex = SimExecutor()
        model = discover(machine("workstation"), num_workers=1, detail="flat")
        rt = HiperRuntime(model, ex).start()

        def main():
            rt.spawn(lambda: None, await_future=Promise("never").get_future(),
                     name="parked")

        with pytest.raises(DeadlockError, match="quiesced"):
            rt.run(main)

    def test_run_root_not_reentrant(self, sim_rt1):
        def main():
            sim_rt1.run(lambda: None)  # illegal nested drive

        with pytest.raises(RuntimeStateError, match="re-entered"):
            sim_rt1.run(main)

    def test_determinism_across_instances(self):
        def build_and_run(seed):
            ex = SimExecutor()
            model = discover(machine("workstation"), num_workers=4)
            rt = HiperRuntime(model, ex, seed=seed).start()
            rt.run(lambda: finish(lambda: [
                async_(lambda i=i: charge((i % 7 + 1) * 1e-5))
                for i in range(50)]))
            return ex.makespan()

        assert build_and_run(3) == build_and_run(3)

    def test_shutdown_clears_state(self):
        ex = SimExecutor()
        model = discover(machine("workstation"), num_workers=1)
        HiperRuntime(model, ex).start()
        ex.shutdown()
        with pytest.raises(RuntimeStateError):
            ex.register_runtime(HiperRuntime(
                discover(machine("workstation"), num_workers=1),
                SimExecutor()))


class TestContextStack:
    def test_push_pop_balance(self):
        d0 = len(_tls.stack)
        ctx = ExecContext(SimExecutor())
        push_context(ctx)
        assert current_context() is ctx
        pop_context()
        assert len(_tls.stack) == d0

    def test_scoped_context_restores_on_exception(self):
        d0 = len(_tls.stack)
        with pytest.raises(ValueError):
            with scoped_context(ExecContext(SimExecutor())):
                raise ValueError("boom")
        assert len(_tls.stack) == d0

    def test_pop_empty_raises(self):
        while _tls.stack:
            pop_context()
        with pytest.raises(RuntimeStateError):
            pop_context()

    def test_require_context_outside_raises(self):
        while _tls.stack:
            pop_context()
        with pytest.raises(RuntimeStateError, match="no active runtime"):
            require_context()


class TestThreadedExecutorMechanics:
    def test_call_later_fires(self, threaded_rt):
        def main():
            p = Promise("timer")
            threaded_rt.executor.call_later(0.01, lambda: p.put("fired"))
            return p.get_future().wait()

        assert threaded_rt.run(main) == "fired"

    def test_pending_events_counts_timers_not_yet_due(self, threaded_rt):
        # The telemetry sampler's event-queue depth on this engine.
        ex = threaded_rt.executor

        def main():
            p = Promise("timer")
            ex.call_later(60.0, lambda: None)
            ex.call_later(0.01, lambda: p.put(ex.pending_events()))
            return ex.pending_events(), p.get_future().wait()

        assert threaded_rt.run(main) == (2, 1)

    def test_watchdog_converts_hang_to_deadlock_error(self):
        ex = ThreadedExecutor(block_timeout=0.3)
        model = discover(machine("workstation"), num_workers=2,
                         with_interconnect=False)
        rt = HiperRuntime(model, ex).start()

        def main():
            Promise("never").get_future().wait()

        t0 = time.monotonic()
        with pytest.raises(DeadlockError, match="watchdog"):
            rt.run(main)
        assert time.monotonic() - t0 < 5.0
        rt.shutdown()
        ex.shutdown()

    def test_charge_is_accounting_only(self, threaded_rt):
        def main():
            t0 = time.monotonic()
            charge(5.0)  # must NOT sleep 5 wall seconds
            return time.monotonic() - t0

        assert threaded_rt.run(main) < 1.0

    def test_invalid_block_timeout(self):
        with pytest.raises(ConfigError):
            ThreadedExecutor(block_timeout=0)

    def test_shutdown_idempotent(self):
        ex = ThreadedExecutor()
        model = discover(machine("workstation"), num_workers=2,
                         with_interconnect=False)
        rt = HiperRuntime(model, ex).start()
        rt.run(lambda: async_future(lambda: 1).get())
        ex.shutdown()
        ex.shutdown()


class TestBenchHarness:
    def test_cluster_for_layouts(self):
        flat = cluster_for("titan", 2, layout="flat")
        hyb = cluster_for("titan", 2, layout="hybrid")
        assert flat.nranks == 32 and flat.workers_per_rank == 1
        assert hyb.nranks == 2 and hyb.workers_per_rank == 16

    def test_cluster_for_workers_cap(self):
        capped = cluster_for("edison", 1, layout="hybrid", workers_cap=4)
        assert capped.workers_per_rank == 4

    def test_unknown_layout(self):
        with pytest.raises(ValueError):
            cluster_for("titan", 1, layout="diagonal")

    def test_sweep_table(self):
        calls = []

        class FakeResult:
            def __init__(self, v):
                self.makespan = v

        def runner(nodes):
            calls.append(nodes)
            return FakeResult(nodes * 1e-3)

        sw = sweep("t", [Series("a", runner), Series("b", runner)], [1, 2, 4])
        assert calls == [1, 2, 4, 1, 2, 4]
        assert sw.values["a"][4] == pytest.approx(4.0)
        assert sw.values["b"] == sw.values["a"]
        table = sw.table()
        assert "a" in table and "nodes" in table and "-" in table
        flat = sw.flat()
        assert flat["a@2"] == pytest.approx(2.0)

    def test_source_loc_counts_nonblank(self):
        def tiny():
            x = 1  # a comment line below

            # pure comment
            return x

        assert source_loc(tiny) == 3


class TestInversionDiagnostic:
    def test_blocking_spmd_pattern_names_the_inversion(self):
        """Plain blocking collectives in an iterative SPMD main hit the
        help-stack inversion; the simulator must name it and point at the
        coroutine style instead of reporting a bare stall."""
        from repro.distrib import ClusterConfig, spmd_run
        from repro.shmem import shmem_factory

        def main(ctx):
            sh = ctx.shmem
            sym = sh.malloc(1)
            sh.barrier_all()  # blocking: unsafe in multi-round SPMD mains
            sh.atomic_fetch_add(sym, 1, 0)
            sh.barrier_all()
            return 1

        with pytest.raises(Exception, match="inversion"):
            spmd_run(
                main,
                ClusterConfig(nodes=2, ranks_per_node=1, workers_per_rank=2,
                              machine=machine("titan")),
                module_factories=[shmem_factory()],
            )


class TestThreadedShutdownLeakDetection:
    """ISSUE 'resilience' satellite (a): shutdown must detect worker threads
    that survive the stop signal and raise instead of leaking them."""

    def _rt(self, join_timeout):
        ex = ThreadedExecutor(block_timeout=20.0, join_timeout=join_timeout)
        model = discover(machine("workstation"), num_workers=2,
                         with_interconnect=False)
        return ex, HiperRuntime(model, ex).start()

    def test_clean_shutdown_raises_nothing(self):
        ex, rt = self._rt(join_timeout=5.0)
        rt.run(lambda: async_future(lambda: 7).get())
        rt.shutdown()
        ex.shutdown()

    def test_stuck_task_body_is_reported(self):
        ex, rt = self._rt(join_timeout=0.2)
        release = threading.Event()
        scope = FinishScope(name="detached", lock_cls=ex.lock_class)

        def stuck():
            release.wait(timeout=10.0)  # ignores the stop signal

        def main():
            # Detached scope: root completes while the body still blocks.
            rt.spawn(stuck, scope=scope)
            return "root-done"

        assert rt.run(main) == "root-done"
        time.sleep(0.1)  # let a worker actually enter the stuck body
        with pytest.raises(RuntimeStateError, match="leaked.*thread"):
            ex.shutdown()
        release.set()  # unblock the daemon thread before the test exits

    def test_invalid_join_timeout(self):
        with pytest.raises(ConfigError):
            ThreadedExecutor(join_timeout=0)
