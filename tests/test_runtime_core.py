"""The generalized work-stealing runtime: spawning, finish, coroutine tasks,
deques, clocks, exceptions, and both executors on the same policy core."""

import numpy as np
import pytest

from repro.platform.hwloc import discover, machine
from repro.platform.place import PlaceType
from repro.cuda.device import SimGpu
from repro.exec.sim import SimExecutor
from repro.exec.threaded import ThreadedExecutor
from repro.runtime.api import (
    async_,
    async_at,
    async_await,
    async_future,
    async_future_await,
    begin_finish,
    charge,
    end_finish,
    finish,
    forasync,
    forasync_chunked,
    forasync_future,
    now,
    timer_future,
)
from repro.runtime.finish import TaskGroupError
from repro.runtime.future import Promise
from repro.runtime.runtime import HiperRuntime
from repro.taskgraph import TaskGraph, TaskImpl
from repro.util.errors import (
    ConfigError,
    DeadlockError,
    GpuError,
    HiperError,
    RuntimeStateError,
)


class TestSpawnBasics:
    def test_async_runs_side_effect(self, sim_rt):
        hits = []

        def main():
            finish(lambda: async_(lambda: hits.append(1)))
            return hits

        assert sim_rt.run(main) == [1]

    def test_async_future_returns_value(self, sim_rt):
        assert sim_rt.run(lambda: async_future(lambda: "v").get()) == "v"

    def test_async_at_targets_place(self, sim_rt):
        place_names = []

        def main():
            from repro.runtime.context import current_context
            gpu = sim_rt.model.first_of_type(PlaceType.GPU_MEM)

            def body():
                place_names.append(current_context().task.place.name)

            finish(lambda: async_at(body, gpu))

        sim_rt.run(main)
        assert place_names == ["gpu0"]

    def test_spawn_outside_task_without_scope_raises(self, sim_rt):
        with pytest.raises(RuntimeStateError, match="explicit scope"):
            sim_rt.spawn(lambda: None)

    def test_spawn_before_start_raises(self):
        ex = SimExecutor()
        model = discover(machine("workstation"), num_workers=1)
        rt = HiperRuntime(model, ex)
        with pytest.raises(RuntimeStateError, match="not started"):
            rt.spawn(lambda: None)

    def test_spawn_after_shutdown_raises(self, sim_rt):
        sim_rt.shutdown()
        with pytest.raises(RuntimeStateError, match="shutdown"):
            sim_rt.spawn(lambda: None)

    def test_foreign_place_rejected(self, sim_rt):
        other = discover(machine("workstation"))
        foreign = other.first_of_type(PlaceType.SYSTEM_MEM)

        def main():
            async_at(lambda: None, foreign)

        with pytest.raises(ConfigError, match="different model"):
            sim_rt.run(main)

    def test_negative_cost_rejected(self, sim_rt):
        def main():
            sim_rt.spawn(lambda: None, cost=-1.0)

        with pytest.raises(ValueError):
            sim_rt.run(main)

    def test_non_callable_body_rejected(self, sim_rt):
        def main():
            sim_rt.spawn(42)

        with pytest.raises(TypeError):
            sim_rt.run(main)


class TestFinish:
    def test_waits_for_transitive_tasks(self, sim_rt):
        hits = []

        def main():
            def outer():
                async_(lambda: hits.append("inner"))
                hits.append("outer")

            finish(lambda: async_(outer))
            return list(hits)

        result = sim_rt.run(main)
        assert sorted(result) == ["inner", "outer"]

    def test_nested_finish_ordering(self, sim_rt):
        log = []

        def main():
            def phase(tag, n):
                finish(lambda: [async_(lambda i=i: log.append((tag, i)))
                                for i in range(n)])
                log.append((tag, "joined"))

            phase("a", 3)
            phase("b", 2)

        sim_rt.run(main)
        a_join = log.index(("a", "joined"))
        assert all(log.index(("a", i)) < a_join for i in range(3))
        assert all(log.index(("b", i)) > a_join for i in range(2))

    def test_single_exception_propagates(self, sim_rt):
        def main():
            finish(lambda: async_(lambda: 1 / 0))

        with pytest.raises(ZeroDivisionError):
            sim_rt.run(main)

    def test_multiple_exceptions_grouped(self, sim_rt):
        def boom(i):
            raise ValueError(f"task{i}")

        def main():
            finish(lambda: [async_(lambda i=i: boom(i)) for i in range(3)])

        with pytest.raises(TaskGroupError, match="3 tasks failed"):
            sim_rt.run(main)

    def test_body_value_returned(self, sim_rt):
        assert sim_rt.run(lambda: finish(lambda: 99)) == 99

    def test_finish_body_exception_still_joins(self, sim_rt):
        hits = []

        def main():
            def body():
                async_(lambda: hits.append(1), cost=1e-3)
                raise RuntimeError("body fails")

            with pytest.raises(RuntimeError, match="body fails"):
                finish(body)
            return list(hits)

        # The spawned task still completed before finish unwound.
        assert sim_rt.run(main) == [1]


class TestCoroutineTasks:
    def test_yield_future_resumes_with_value(self, sim_rt):
        def main():
            def co():
                v = yield async_future(lambda: 21)
                return v * 2

            return async_future(co).get()

        assert sim_rt.run(main) == 42

    def test_yield_none_reschedules(self, sim_rt):
        steps = []

        def main():
            def co():
                steps.append("a")
                yield None
                steps.append("b")
                return "done"

            return async_future(co).get()

        assert sim_rt.run(main) == "done"
        assert steps == ["a", "b"]

    def test_yield_failed_future_throws_into_coroutine(self, sim_rt):
        def main():
            def co():
                try:
                    yield async_future(lambda: 1 / 0)
                except ZeroDivisionError:
                    return "caught"
                return "missed"

            return async_future(co).get()

        assert sim_rt.run(main) == "caught"

    def test_yield_garbage_rejected(self, sim_rt):
        def main():
            def co():
                yield "not a future"

            return async_future(co).get()

        with pytest.raises(HiperError, match="only Future or None"):
            sim_rt.run(main)

    def test_begin_end_finish_in_coroutine(self, sim_rt):
        out = []

        def main():
            def co():
                fs = begin_finish()
                forasync(8, lambda i: out.append(i))
                yield end_finish(fs)
                return sorted(out)

            return async_future(co).get()

        assert sim_rt.run(main) == list(range(8))

    def test_end_finish_carries_failures(self, sim_rt):
        def main():
            def co():
                fs = begin_finish()
                async_(lambda: 1 / 0)
                try:
                    yield end_finish(fs)
                except ZeroDivisionError:
                    return "propagated"
                return "missed"

            return async_future(co).get()

        assert sim_rt.run(main) == "propagated"

    def test_mismatched_end_finish_raises(self, sim_rt):
        def main():
            fs_outer = begin_finish()
            begin_finish()
            try:
                end_finish(fs_outer)  # wrong nesting
            finally:
                pass

        with pytest.raises(RuntimeStateError, match="nested"):
            sim_rt.run(main)


class TestAsyncAwait:
    def test_dependent_task_waits(self, sim_rt):
        order = []

        def main():
            def body():
                charge(1e-3)
                order.append("dep")
                return 5

            f = async_future(body)
            finish(lambda: async_await(lambda: order.append("after"), f))
            return order

        assert sim_rt.run(main) == ["dep", "after"]

    def test_await_multiple_futures(self, sim_rt):
        def main():
            fs = [async_future(lambda i=i: i, cost=1e-4 * (i + 1))
                  for i in range(3)]
            return async_future_await(
                lambda: sum(f.value() for f in fs), fs
            ).get()

        assert sim_rt.run(main) == 3

    def test_failed_dependency_fails_dependent(self, sim_rt):
        ran = []

        def main():
            bad = async_future(lambda: 1 / 0)
            f = async_future_await(lambda: ran.append(1), bad)
            with pytest.raises(ZeroDivisionError):
                f.get()
            return list(ran)

        assert sim_rt.run(main) == []

    def test_await_already_satisfied_future(self, sim_rt):
        from repro.runtime.future import satisfied_future

        def main():
            return async_future_await(lambda: "ok", satisfied_future()).get()

        assert sim_rt.run(main) == "ok"


class TestForasync:
    def test_covers_domain_exactly_once(self, sim_rt):
        seen = []

        def main():
            finish(lambda: forasync(17, lambda i: seen.append(i), chunks=5))

        sim_rt.run(main)
        assert sorted(seen) == list(range(17))

    def test_range_with_step(self, sim_rt):
        seen = []

        def main():
            finish(lambda: forasync(range(3, 20, 4), seen.append))

        sim_rt.run(main)
        assert sorted(seen) == [3, 7, 11, 15, 19]

    def test_chunked_form_gets_bounds(self, sim_rt):
        spans = []

        def main():
            finish(lambda: forasync_chunked(
                100, lambda lo, hi: spans.append((lo, hi)), chunks=7))

        sim_rt.run(main)
        assert sum(hi - lo for lo, hi in spans) == 100
        assert len(spans) == 7

    def test_empty_domain_is_noop(self, sim_rt):
        def main():
            finish(lambda: forasync(0, lambda i: 1 / 0))
            return "fine"

        assert sim_rt.run(main) == "fine"

    def test_forasync_future_joins_all(self, sim_rt):
        seen = []

        def main():
            f = forasync_future(10, lambda i: seen.append(i), cost_per_item=1e-4)
            f.wait()
            return len(seen)

        assert sim_rt.run(main) == 10

    def test_bad_domain_type(self, sim_rt):
        def main():
            forasync("abc", lambda i: None)

        with pytest.raises(ConfigError, match="domain"):
            sim_rt.run(main)

    def test_work_distributes_across_workers(self, sim_rt):
        def main():
            finish(lambda: forasync(64, lambda i: charge(1e-3), chunks=64))

        sim_rt.run(main)
        busy = [w.tasks_run for w in sim_rt.workers]
        assert sum(busy) >= 64
        # with 64 x 1ms tasks on 4 workers, nobody should sit fully idle
        assert all(b > 0 for b in busy)


NAN = float("nan")


def _in_task(call):
    """A NaN site that must be reached from inside a task: what ``call``
    raises there is re-raised here."""
    def site(rt):
        def main():
            try:
                call()
            except Exception as exc:  # noqa: BLE001 - handed to the test
                return exc
            return None

        exc = rt.run(main)
        if exc is not None:
            raise exc
    return site


def _on_threads(call):
    def site(rt):
        ex = ThreadedExecutor()
        try:
            call(ex)
        finally:
            ex.shutdown()
    return site


def _on_gpu(**kw):
    return lambda rt: SimGpu(rt.executor).launch(lambda: None, **kw)


#: site -> (exception, call(sim_rt) that hands the site a NaN). The api
#: sites are called outside a task: their guard runs before the context
#: lookup, while inside a sim task the engine's own guard would answer.
_NAN_SITES = {
    "task.cost": (ValueError, _in_task(lambda: async_(lambda: None, cost=NAN))),
    "api.charge": (ConfigError, lambda rt: charge(NAN)),
    "api.timer_future": (ConfigError, lambda rt: timer_future(NAN)),
    "threaded.charge": (ConfigError, _on_threads(lambda ex: ex.charge(NAN))),
    "threaded.call_later": (
        ConfigError, _on_threads(lambda ex: ex.call_later(NAN, lambda: None))),
    "gpu.launch.flops": (GpuError, _on_gpu(flops=NAN)),
    "gpu.launch.bytes": (GpuError, _on_gpu(bytes_moved=NAN)),
    "taskgraph.impl_cost": (ConfigError,
                            lambda rt: TaskImpl(lambda: None, cost=NAN)),
    "taskgraph.submit_cost": (ConfigError, _in_task(
        lambda: TaskGraph().submit(lambda: None, cost=NAN))),
}


class TestVirtualTime:
    def test_cost_advances_makespan(self, sim_rt):
        def main():
            finish(lambda: [async_(lambda: None, cost=2e-3) for _ in range(4)])

        sim_rt.run(main)
        # 4 tasks x 2ms over 4 workers -> ~2ms end-to-end
        assert sim_rt.executor.makespan() == pytest.approx(2e-3, rel=0.2)

    def test_serial_chain_accumulates(self, sim_rt1):
        def main():
            for _ in range(5):
                async_future(lambda: charge(1e-3)).wait()
            return now()

        assert sim_rt1.run(main) == pytest.approx(5e-3)

    def test_timer_future_fires_at_delay(self, sim_rt):
        def main():
            timer_future(7e-3).wait()
            return now()

        assert sim_rt.run(main) == pytest.approx(7e-3)

    def test_charge_outside_task_rejected(self, sim_rt):
        with pytest.raises(RuntimeStateError):
            charge(1.0)

    def test_negative_charge_rejected(self, sim_rt):
        def main():
            charge(-1e-3)

        with pytest.raises(ConfigError):
            sim_rt.run(main)

    def test_nan_charge_rejected_before_the_clock(self, sim_rt):
        """Fails at b39cff0, where ``charge`` tested only ``seconds < 0``
        and a NaN reached the worker clock."""
        def main():
            with pytest.raises(ConfigError, match="nan"):
                charge(float("nan"))
            return now()

        assert sim_rt.run(main) == 0.0

    @pytest.mark.parametrize("site", sorted(_NAN_SITES))
    def test_nan_rejected_at_every_guard(self, sim_rt, site):
        """Every cost, delay and charge guard refuses a NaN. Each one used
        to test ``x < 0`` alone, which a NaN passes; from a spawn it made
        ``now()`` and ``makespan()`` NaN and nothing raised."""
        exc_type, call = _NAN_SITES[site]
        with pytest.raises(exc_type, match="nan"):
            call(sim_rt)

    def test_deterministic_makespan(self):
        def run_once():
            ex = SimExecutor()
            model = discover(machine("workstation"), num_workers=4)
            rt = HiperRuntime(model, ex, seed=7).start()

            def main():
                finish(lambda: forasync(
                    50, lambda i: charge(1e-4 * ((i % 5) + 1)), chunks=25))

            rt.run(main)
            return ex.makespan()

        assert run_once() == run_once()


class TestDeadlocks:
    def test_unsatisfiable_wait_detected(self, sim_rt):
        def main():
            Promise("never").get_future().wait()

        with pytest.raises(DeadlockError, match="never"):
            sim_rt.run(main)

    def test_deadlock_lists_blocked_entities(self, sim_rt):
        def main():
            Promise("the-culprit").get_future().wait()

        with pytest.raises(DeadlockError, match="the-culprit"):
            sim_rt.run(main)


class TestThreadedExecutor:
    def test_basic_spawn_and_finish(self, threaded_rt):
        hits = []

        def main():
            finish(lambda: [async_(lambda i=i: hits.append(i))
                            for i in range(20)])
            return sorted(hits)

        assert threaded_rt.run(main) == list(range(20))

    def test_future_wait(self, threaded_rt):
        def main():
            fs = [async_future(lambda i=i: i * i) for i in range(8)]
            return sum(f.get() for f in fs)

        assert threaded_rt.run(main) == sum(i * i for i in range(8))

    def test_coroutine_tasks(self, threaded_rt):
        def main():
            def co():
                a = yield async_future(lambda: 4)
                b = yield async_future(lambda: 5)
                return a * b

            return async_future(co).get()

        assert threaded_rt.run(main) == 20

    def test_real_parallel_numpy_work(self, threaded_rt):
        def main():
            def chunk(lo, hi):
                return float(np.arange(lo, hi, dtype=np.float64).sum())

            fs = [async_future(lambda i=i: chunk(i * 1000, (i + 1) * 1000))
                  for i in range(8)]
            return sum(f.get() for f in fs)

        assert threaded_rt.run(main) == float(np.arange(8000).sum())

    def test_exception_propagates(self, threaded_rt):
        def main():
            finish(lambda: async_(lambda: 1 / 0))

        with pytest.raises(ZeroDivisionError):
            threaded_rt.run(main)

    def test_second_runtime_rejected(self, threaded_rt):
        model = discover(machine("workstation"), num_workers=1)
        with pytest.raises(RuntimeStateError, match="exactly one"):
            HiperRuntime(model, threaded_rt.executor)


class TestStatsHooks:
    def test_task_counts_recorded(self, sim_rt):
        def main():
            finish(lambda: [async_(lambda: None) for _ in range(10)])

        sim_rt.run(main)
        assert sim_rt.stats.counter("core", "tasks_spawned") >= 10
        assert sim_rt.stats.counter("core", "tasks_completed") >= 10

    def test_steals_counted_under_imbalance(self, sim_rt):
        def main():
            # one producer spawns everything; other workers must steal
            finish(lambda: forasync(40, lambda i: charge(1e-4), chunks=40))

        sim_rt.run(main)
        assert sim_rt.stats.counter("core", "steal") > 0
