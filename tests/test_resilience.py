"""Resilience subsystem: deterministic fault injection, retry/timeout
policies, and checkpoint-driven recovery.

Covers the three layers of ``repro.resilience`` (ISSUE: tentpole):

- injection — seeded :class:`FaultPlan` verdicts for message/storage/task
  faults, timed place/worker failures;
- policy — :class:`Backoff` / :func:`with_timeout` / :func:`async_retry` and
  per-channel message retransmission;
- recovery — replay/kill semantics of ``fail_place``/``fail_worker``, and the
  golden acceptance scenario: an ISx-style run that loses a place mid-run and
  completes with the no-fault answer after checkpoint restore.
"""

import json

import numpy as np
import pytest

from repro.distrib import ClusterConfig, spmd_run
from repro.exec.sim import SimExecutor
from repro.io import SimStore, StorageError, checkpoint_factory
from repro.net.costmodel import NetworkModel
from repro.net.fabric import CorruptedPayload, SimFabric
from repro.net.mux import FabricMux
from repro.platform import MachineSpec, discover, machine
from repro.resilience import (PRESETS, Backoff, FaultError, FaultInjector,
                              FaultPlan, PlaceFailure, RetryPolicy,
                              TimeoutExpired, async_retry, with_timeout)
from repro.runtime.api import charge, finish, forasync
from repro.runtime.finish import FinishScope
from repro.runtime.future import Promise
from repro.runtime.runtime import HiperRuntime
from repro.runtime.task import Task
from repro.shmem import shmem_factory
from repro.util.errors import CommError, ConfigError

NVM_MACHINE = MachineSpec(name="nvm-box", sockets=1, cores_per_socket=4,
                          nvm_bytes=1 << 30)


def nvm_cluster(nodes=1, workers=4, **kw):
    return ClusterConfig(nodes=nodes, ranks_per_node=1,
                         workers_per_rank=workers, machine=NVM_MACHINE, **kw)


def numa_rt(num_workers=2):
    """A started runtime with a second place (socket0.l3) to fail."""
    ex = SimExecutor()
    model = discover(machine("workstation"), num_workers=num_workers)
    rt = HiperRuntime(model, ex).start()
    return ex, model, rt


# ---------------------------------------------------------------------------
# policy layer
# ---------------------------------------------------------------------------
class TestBackoff:
    def test_exponential_growth_and_cap(self):
        bo = Backoff(base=1e-3, factor=2.0, max_delay=5e-3)
        assert bo.delay(0) == pytest.approx(1e-3)
        assert bo.delay(1) == pytest.approx(2e-3)
        assert bo.delay(2) == pytest.approx(4e-3)
        assert bo.delay(3) == pytest.approx(5e-3)  # capped
        assert bo.delay(10) == pytest.approx(5e-3)

    def test_jitter_bounded_and_deterministic(self):
        a = Backoff(base=1e-3, jitter=0.5, seed=42)
        b = Backoff(base=1e-3, jitter=0.5, seed=42)
        da = [a.delay(i) for i in range(20)]
        db = [b.delay(i) for i in range(20)]
        assert da == db  # same seed, same schedule
        for i, d in enumerate(da):
            pure = min(1e-3 * 2.0 ** i, 0.1)
            assert pure <= d <= pure * 1.5

    def test_different_seeds_decorrelate(self):
        da = [Backoff(jitter=1.0, seed=1).delay(i) for i in range(8)]
        db = [Backoff(jitter=1.0, seed=2).delay(i) for i in range(8)]
        assert da != db

    def test_validation(self):
        with pytest.raises(ConfigError):
            Backoff(base=-1.0)
        with pytest.raises(ConfigError):
            Backoff(factor=0.5)
        with pytest.raises(ConfigError):
            Backoff(jitter=2.0)
        with pytest.raises(ConfigError):
            Backoff().delay(-1)


class TestRetryPolicy:
    def test_defaults(self):
        p = RetryPolicy()
        assert p.max_attempts == 3
        assert isinstance(p.backoff, Backoff)

    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)


class TestWithTimeout:
    def test_expires(self, sim_rt):
        def main():
            p = Promise()
            f = with_timeout(p.get_future(), 1e-4, name="never")
            with pytest.raises(TimeoutExpired) as ei:
                f.get()
            assert ei.value.timeout == pytest.approx(1e-4)
            return True

        assert sim_rt.run(main)

    def test_value_wins_the_race(self, sim_rt):
        def main():
            p = Promise()
            sim_rt.executor.call_later(1e-5, lambda: p.put("fast"))
            return with_timeout(p.get_future(), 1e-3).get()

        assert sim_rt.run(main) == "fast"

    def test_exception_propagates(self, sim_rt):
        def main():
            p = Promise()
            sim_rt.executor.call_later(
                1e-5, lambda: p.put_exception(FaultError("boom")))
            f = with_timeout(p.get_future(), 1e-3)
            with pytest.raises(FaultError, match="boom"):
                f.get()
            return True

        assert sim_rt.run(main)

    def test_late_arrival_after_expiry_is_ignored(self, sim_rt):
        def main():
            p = Promise()
            f = with_timeout(p.get_future(), 1e-5)
            with pytest.raises(TimeoutExpired):
                f.get()
            p.put("too late")  # must not disturb the settled result
            with pytest.raises(TimeoutExpired):
                f.value()
            return True

        assert sim_rt.run(main)

    def test_negative_timeout_rejected(self, sim_rt):
        def main():
            with pytest.raises(ConfigError):
                with_timeout(Promise().get_future(), -1.0)
            return True

        assert sim_rt.run(main)


class TestAsyncRetry:
    def test_first_try_success(self, sim_rt):
        def main():
            return async_retry(lambda: "ok", attempts=3).get()

        assert sim_rt.run(main) == "ok"
        assert sim_rt.stats.counter("resilience", "retries") == 0

    def test_fail_twice_then_succeed(self, sim_rt):
        calls = []

        def body():
            calls.append(1)
            if len(calls) < 3:
                raise FaultError(f"attempt {len(calls)} down")
            return "recovered"

        def main():
            return async_retry(body, attempts=5,
                               backoff=Backoff(base=1e-6)).get()

        assert sim_rt.run(main) == "recovered"
        assert len(calls) == 3
        assert sim_rt.stats.counter("resilience", "retries") == 2
        assert sim_rt.stats.counter("resilience", "retries_exhausted") == 0
        ttr = sim_rt.stats.series["resilience/time_to_recovery"]
        assert len(ttr) == 1 and ttr[0][1] > 0

    def test_attempts_exhausted(self, sim_rt):
        def body():
            raise FaultError("always down")

        def main():
            f = async_retry(body, attempts=3, backoff=Backoff(base=1e-6))
            with pytest.raises(FaultError, match="always down"):
                f.get()
            return True

        assert sim_rt.run(main)
        assert sim_rt.stats.counter("resilience", "retries") == 2
        assert sim_rt.stats.counter("resilience", "retries_exhausted") == 1

    def test_non_retryable_fails_immediately(self, sim_rt):
        calls = []

        def body():
            calls.append(1)
            raise ValueError("not a fault")

        def main():
            f = async_retry(body, attempts=5, retry_on=FaultError)
            with pytest.raises(ValueError):
                f.get()
            return True

        assert sim_rt.run(main)
        assert len(calls) == 1
        assert sim_rt.stats.counter("resilience", "retries") == 0

    def test_enclosing_finish_waits_across_backoff_gaps(self, sim_rt):
        """The caller's finish scope must stay open while no attempt task
        exists (between a failure and the backed-off respawn)."""
        state = {"calls": 0, "done": False}

        def body():
            state["calls"] += 1
            if state["calls"] < 2:
                raise FaultError("transient")
            state["done"] = True

        def main():
            finish(lambda: async_retry(body, attempts=3,
                                       backoff=Backoff(base=1e-4)))
            # finish returned: the retried attempt must have completed.
            return state["done"]

        assert sim_rt.run(main)
        assert state["calls"] == 2

    def test_validation(self, sim_rt):
        def main():
            with pytest.raises(ConfigError):
                async_retry(lambda: None, attempts=0)
            return True

        assert sim_rt.run(main)


# ---------------------------------------------------------------------------
# fault-plan parsing
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown kind"):
            FaultPlan.from_spec({"faults": [{"kind": "meteor_strike"}]})

    def test_prob_range_checked(self):
        with pytest.raises(ConfigError, match="prob"):
            FaultPlan.from_spec(
                {"faults": [{"kind": "message_drop", "prob": 1.5}]})

    def test_timed_fault_requires_at(self):
        with pytest.raises(ConfigError, match="'at'"):
            FaultPlan.from_spec({"faults": [{"kind": "place_fail"}]})

    def test_task_fail_requires_name(self):
        with pytest.raises(ConfigError, match="name"):
            FaultPlan.from_spec({"faults": [{"kind": "task_fail"}]})

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="preset"):
            FaultPlan.preset("armageddon")

    def test_presets_parse(self):
        for name in PRESETS:
            plan = FaultPlan.preset(name, seed=3)
            assert plan.seed == 3
            assert plan.rules

    def test_spec_seed_and_override(self):
        spec = {"seed": 9, "faults": [{"kind": "message_drop", "prob": 0.1}]}
        assert FaultPlan.from_spec(spec).seed == 9
        assert FaultPlan.from_spec(spec, seed=4).seed == 4

    def test_retry_config_parsed(self):
        plan = FaultPlan.from_spec({
            "retry": {"attempts": 7, "base": 2e-5, "jitter": 0.5},
            "faults": [],
        })
        assert plan.retry.max_attempts == 7
        assert plan.retry.backoff.base == pytest.approx(2e-5)

    def test_load_json_file(self, tmp_path):
        p = tmp_path / "plan.json"
        p.write_text(json.dumps(
            {"seed": 5, "faults": [{"kind": "message_delay", "prob": 0.2,
                                    "extra": 1e-5, "max_faults": 3}]}))
        plan = FaultPlan.load(str(p))
        assert plan.seed == 5
        assert plan.rules[0].kind == "message_delay"
        assert plan.rules[0].max_faults == 3

    def test_load_resolves_preset_names(self):
        plan = FaultPlan.load("drop", seed=11)
        assert plan.seed == 11
        assert plan.rules[0].kind == "message_drop"


# ---------------------------------------------------------------------------
# message faults at the fabric / mux
# ---------------------------------------------------------------------------
def make_fabric(nranks=2, **kw):
    ex = SimExecutor()
    fab = SimFabric(ex, nranks, NetworkModel(), **kw)
    return ex, fab


class TestMessageFaults:
    def test_drop_completes_injection_without_delivery(self):
        ex, fab = make_fabric()
        seen, injected = [], []
        fab.register_sink(1, lambda s, p, t: seen.append(p))
        fab.fault_hook = lambda src, dst, n, p, t: ("drop",)
        fab.transmit(0, 1, 100, "gone",
                     on_injected=lambda t: injected.append(t))
        ex.drain()
        assert seen == []
        assert len(injected) == 1  # local completion still happens
        assert fab.messages_dropped == 1

    def test_delay_adds_extra_latency(self):
        def delivery_time(hook):
            ex, fab = make_fabric()
            times = []
            fab.register_sink(1, lambda s, p, t: times.append(t))
            fab.fault_hook = hook
            fab.transmit(0, 1, 100, "msg")
            ex.drain()
            assert len(times) == 1
            return fab, times[0]

        _, base = delivery_time(None)
        fab, slow = delivery_time(lambda src, dst, n, p, t: ("delay", 7e-3))
        assert slow == pytest.approx(base + 7e-3, rel=1e-6)
        assert fab.messages_delayed == 1

    def test_corrupt_wraps_payload(self):
        ex, fab = make_fabric()
        seen = []
        fab.register_sink(1, lambda s, p, t: seen.append(p))
        fab.fault_hook = lambda src, dst, n, p, t: ("corrupt",)
        fab.transmit(0, 1, 100, "garbled")
        ex.drain()
        assert len(seen) == 1
        assert isinstance(seen[0], CorruptedPayload)
        assert seen[0].original == "garbled"
        assert fab.messages_corrupted == 1

    def test_drop_does_not_advance_fifo_clamp(self):
        """A later message may legitimately arrive where a dropped one never
        did — the pairwise-FIFO floor must not move for dropped messages."""
        ex, fab = make_fabric()
        seen = []
        fab.register_sink(1, lambda s, p, t: seen.append(p))
        verdicts = iter([("drop",), None])
        fab.fault_hook = lambda *a: next(verdicts)
        fab.transmit(0, 1, 100, "lost")
        fab.transmit(0, 1, 100, "arrives")
        ex.drain()
        assert seen == ["arrives"]

    def test_mux_discards_corrupted_payloads(self):
        ex, fab = make_fabric()
        got = []
        m0 = FabricMux(fab, 0)
        m1 = FabricMux(fab, 1)
        m0.register_channel("app", lambda s, p, t: None)
        m1.register_channel("app", lambda s, p, t: got.append(p))
        fab.fault_hook = lambda *a: ("corrupt",)
        m0.transmit(1, "app", "checksum-fails", 64)
        ex.drain()
        assert got == []  # discarded at the receive side, like a bad CRC

    def test_retry_policy_redelivers_dropped_message(self):
        ex, fab = make_fabric()
        got = []
        m0 = FabricMux(fab, 0)
        m1 = FabricMux(fab, 1)
        m0.register_channel("app", lambda s, p, t: None)
        m1.register_channel("app", lambda s, p, t: got.append(p))
        m0.set_retry_policy("app", RetryPolicy(
            max_attempts=4, backoff=Backoff(base=1e-6)))
        drops = [("drop",), ("drop",), None]  # two losses, then through
        fab.fault_hook = lambda *a: drops.pop(0) if drops else None
        injected = []
        m0.transmit(1, "app", "persistent", 64,
                    on_injected=lambda t: injected.append(t))
        ex.drain()
        assert got == ["persistent"]
        assert len(injected) == 1  # injection callback fires exactly once
        assert fab.messages_dropped == 2

    def test_retry_policy_exhaustion_gives_up(self):
        ex, fab = make_fabric()
        got = []
        m0 = FabricMux(fab, 0)
        m1 = FabricMux(fab, 1)
        m0.register_channel("app", lambda s, p, t: None)
        m1.register_channel("app", lambda s, p, t: got.append(p))
        m0.set_retry_policy("app", RetryPolicy(
            max_attempts=2, backoff=Backoff(base=1e-6)))
        fab.fault_hook = lambda *a: ("drop",)
        m0.transmit(1, "app", "doomed", 64)
        ex.drain()
        assert got == []
        assert fab.messages_dropped == 2  # original + one retry

    def test_retry_policy_unregistered_channel_rejected(self):
        ex, fab = make_fabric()
        m0 = FabricMux(fab, 0)
        with pytest.raises(CommError, match="unregistered"):
            m0.set_retry_policy("ghost", RetryPolicy())

    def test_oversized_payload_rejected(self):
        ex, fab = make_fabric(max_message_bytes=1024)
        fab.register_sink(1, lambda s, p, t: None)
        fab.transmit(0, 1, 1024, "fits")
        with pytest.raises(CommError, match="exceeds fabric limit"):
            fab.transmit(0, 1, 1025, "too big")

    def test_bad_message_limit_rejected(self):
        with pytest.raises(ConfigError):
            make_fabric(max_message_bytes=0)

    def test_injector_verdicts_respect_channel_filter_and_budget(self):
        plan = FaultPlan.from_spec({"faults": [
            {"kind": "message_drop", "prob": 1.0, "channel": "mpi",
             "max_faults": 2},
        ]})
        ex, fab = make_fabric()
        inj = FaultInjector(plan).attach(ex, fab)
        sink = []
        fab.register_sink(1, lambda s, p, t: sink.append(p))
        fab.transmit(0, 1, 10, ("shmem", "other-channel"))  # filter miss
        fab.transmit(0, 1, 10, ("mpi", "a"))                # dropped
        fab.transmit(0, 1, 10, ("mpi", "b"))                # dropped
        fab.transmit(0, 1, 10, ("mpi", "c"))                # budget spent
        ex.drain()
        assert sink == [("shmem", "other-channel"), ("mpi", "c")]
        assert inj.counts() == {"message_drop": 2}


# ---------------------------------------------------------------------------
# storage + task faults
# ---------------------------------------------------------------------------
class TestStorageFaults:
    def make_store(self):
        ex = SimExecutor()
        return SimStore(ex, name="nvm", capacity_bytes=1 << 20,
                        bandwidth=1e9, latency=0.0)

    def test_injected_write_failure_preserves_previous_object(self):
        store = self.make_store()
        store.write("a", np.arange(8, dtype=np.float64))
        store.executor.drain()
        plan = FaultPlan.from_spec({"faults": [
            {"kind": "storage_fail", "prob": 1.0, "max_faults": 1}]})
        inj = FaultInjector(plan).attach(store.executor)
        inj.attach_store(store)
        with pytest.raises(StorageError, match="injected write failure"):
            store.write("a", np.zeros(8))
        store.executor.drain()
        assert store.write_faults == 1
        # The pre-fault object is intact: failed writes mutate nothing.
        op = store.read("a", np.float64, (8,))
        store.executor.drain()
        assert np.array_equal(op.value, np.arange(8, dtype=np.float64))
        store.write("a", np.zeros(8))  # budget exhausted: succeeds
        store.executor.drain()
        assert inj.counts() == {"storage_fail": 1}

    def test_device_filter(self):
        store = self.make_store()  # named "nvm"
        plan = FaultPlan.from_spec({"faults": [
            {"kind": "storage_fail", "prob": 1.0, "device": "disk0"}]})
        FaultInjector(plan).attach(store.executor).attach_store(store)
        store.write("k", np.zeros(4))  # filter miss: no fault
        store.executor.drain()
        assert store.write_faults == 0


class TestTaskFaults:
    def test_named_task_killed(self, sim_rt):
        plan = FaultPlan.from_spec({"faults": [
            {"kind": "task_fail", "name": "victim", "max_faults": 1}]})
        inj = FaultInjector(plan).attach(sim_rt.executor)
        inj.arm_runtime(sim_rt)
        ran = []

        def main():
            f = sim_rt.spawn(lambda: ran.append(1), name="victim",
                             return_future=True)
            with pytest.raises(FaultError, match="injected failure"):
                f.get()
            # Budget spent: the same name now runs clean.
            sim_rt.spawn(lambda: ran.append(2), name="victim",
                         return_future=True).get()
            return True

        assert sim_rt.run(main)
        assert ran == [2]
        assert [k for _, k, _ in inj.events] == ["task_fail"]

    def test_other_tasks_untouched(self, sim_rt):
        plan = FaultPlan.from_spec({"faults": [
            {"kind": "task_fail", "name": "victim"}]})
        FaultInjector(plan).attach(sim_rt.executor).arm_runtime(sim_rt)

        def main():
            return sim_rt.spawn(lambda: "fine", name="bystander",
                                return_future=True).get()

        assert sim_rt.run(main) == "fine"

    def test_async_retry_rides_through_injected_task_faults(self, sim_rt):
        """Rule names match async_retry's '<base>#<attempt>' task names, so
        a bounded task_fail budget is absorbed by the retry loop."""
        plan = FaultPlan.from_spec({"faults": [
            {"kind": "task_fail", "name": "flaky", "max_faults": 2}]})
        FaultInjector(plan).attach(sim_rt.executor).arm_runtime(sim_rt)
        calls = []

        def main():
            return async_retry(lambda: calls.append(1) or "ok", attempts=5,
                               backoff=Backoff(base=1e-6),
                               name="flaky").get()

        assert sim_rt.run(main) == "ok"
        assert len(calls) == 1  # attempts 0 and 1 died before the body ran
        assert sim_rt.stats.counter("resilience", "retries") == 2


# ---------------------------------------------------------------------------
# place / worker failure and recovery
# ---------------------------------------------------------------------------
class TestFailPlace:
    def test_replays_unstarted_tasks_on_fallback(self):
        ex, model, rt = numa_rt(num_workers=2)
        l3 = model.place("socket0.l3")
        ran = []

        def main():
            counts = {}

            def body():
                for i in range(6):
                    rt.spawn(lambda i=i: ran.append(i), place=l3)
                counts["rk"] = ex.fail_place(rt, l3)

            finish(body)
            return counts["rk"]

        replayed, killed = rt.run(main)
        assert (replayed, killed) == (6, 0)
        assert sorted(ran) == list(range(6))
        assert rt.stats.counter("resilience", "tasks_replayed") == 6
        assert rt.stats.counter("resilience", "place_failures") == 1
        rt.shutdown()
        ex.shutdown()

    def test_future_spawns_redirected_to_fallback(self):
        ex, model, rt = numa_rt()
        l3 = model.place("socket0.l3")

        def main():
            ex.fail_place(rt, l3)
            # Spawning at the dead place must transparently land on sysmem.
            return rt.spawn(lambda: "landed", place=l3,
                            return_future=True).get()

        assert rt.run(main) == "landed"
        rt.shutdown()
        ex.shutdown()

    def test_suspended_coroutine_killed_on_resume(self):
        ex, model, rt = numa_rt()
        l3 = model.place("socket0.l3")
        out = {}

        def main():
            gate = Promise()

            def co():
                out["started"] = True
                yield gate.get_future()
                out["resumed"] = True  # must never happen
                return "survived"

            fut = rt.spawn(co, place=l3, return_future=True)
            ex.call_later(1e-5, lambda: ex.fail_place(rt, l3))
            ex.call_later(2e-5, lambda: gate.put(1))
            with pytest.raises(PlaceFailure, match="failed while task"):
                fut.get()
            return True

        assert rt.run(main)
        assert out.get("started") and "resumed" not in out
        assert rt.stats.counter("resilience", "tasks_killed") == 1
        rt.shutdown()
        ex.shutdown()

    def test_drain_kills_started_coroutines_in_deque(self):
        """A coroutine continuation sitting READY in the dead place's deque
        is failed with PlaceFailure at drain time, and its promise plus
        finish scope are both discharged."""
        ex, model, rt = numa_rt()
        l3 = model.place("socket0.l3")
        scope = FinishScope(name="t", lock_cls=ex.lock_class)
        p = Promise(name="victim")
        task = Task(lambda: None, place=l3, created_by=0, scope=scope,
                    result_promise=p, name="half-done")
        task.gen = iter(())  # marks the body as partially executed
        scope.task_spawned()
        rt.deques.push(task)
        replayed, killed = ex.fail_place(rt, l3)
        assert (replayed, killed) == (0, 1)
        with pytest.raises(PlaceFailure, match="in flight"):
            p.get_future().value()
        rt.shutdown()
        ex.shutdown()

    def test_fallback_validation(self):
        ex, model, rt = numa_rt()
        l3 = model.place("socket0.l3")
        with pytest.raises(ConfigError, match="itself"):
            ex.fail_place(rt, l3, reassign_to=l3)
        ex.fail_place(rt, l3)
        # A dead place cannot serve as a fallback for a later failure.
        with pytest.raises(ConfigError, match="has itself failed"):
            ex.fail_place(rt, rt.sysmem, reassign_to=l3)
        rt.shutdown()
        ex.shutdown()


class TestFailWorker:
    def test_survivors_absorb_the_load(self):
        ex = SimExecutor()
        model = discover(machine("workstation"), num_workers=4)
        rt = HiperRuntime(model, ex).start()
        wids = []

        def main():
            from repro.runtime.context import current_context
            ex.fail_worker(rt, 1)

            def body(i):
                charge(1e-5)
                wids.append(current_context().worker.wid)

            finish(lambda: forasync(40, body, chunks=40))
            return True

        assert rt.run(main)
        assert len(wids) == 40
        assert 1 not in wids
        assert rt.stats.counter("resilience", "worker_failures") == 1
        rt.shutdown()
        ex.shutdown()

    def test_stranded_tasks_move_to_lowest_live_worker(self):
        ex = SimExecutor()
        model = discover(machine("workstation"), num_workers=4)
        rt = HiperRuntime(model, ex).start()
        scope = FinishScope(name="t", lock_cls=ex.lock_class)
        stranded = Task(lambda: "moved", created_by=3, scope=scope,
                        result_promise=Promise(), place=rt.sysmem)
        scope.task_spawned()
        rt.deques.push(stranded)
        moved = ex.fail_worker(rt, 3)
        assert moved == 1
        assert stranded.created_by == 0
        f = stranded.result_promise.get_future()
        ex.drain()  # the evacuation re-enqueue woke a live worker
        assert f.value() == "moved"
        rt.shutdown()
        ex.shutdown()

    def test_idempotent_and_validated(self):
        ex = SimExecutor()
        model = discover(machine("workstation"), num_workers=2)
        rt = HiperRuntime(model, ex).start()
        assert ex.fail_worker(rt, 1) == 0
        assert ex.fail_worker(rt, 1) == 0  # already dead: no-op
        with pytest.raises(ConfigError, match="out of range"):
            ex.fail_worker(rt, 7)
        with pytest.raises(ConfigError, match="last live worker"):
            ex.fail_worker(rt, 0)
        rt.shutdown()
        ex.shutdown()


# ---------------------------------------------------------------------------
# SPMD chaos: golden determinism + checkpoint-driven recovery (acceptance)
# ---------------------------------------------------------------------------
def _isx_chaos(seed):
    """One small ISx run under a drop plan; returns (injector, results)."""
    from repro.apps.isx import IsxConfig, isx_main, validate_isx

    cfg = IsxConfig(keys_per_pe=900)
    cluster = ClusterConfig(nodes=2, ranks_per_node=1, workers_per_rank=2,
                            machine=machine("workstation"))
    plan = FaultPlan.from_spec({
        "retry": {"attempts": 6, "base": 1e-5, "factor": 2.0, "jitter": 0.25},
        "faults": [{"kind": "message_drop", "prob": 0.25}],
    }, seed=seed)
    inj = FaultInjector(plan)
    res = spmd_run(isx_main("hiper", cfg), cluster,
                   module_factories=[shmem_factory()], fault_injector=inj)
    validate_isx(cfg, res.nranks, res.results)
    return inj, res


class TestGoldenDeterminism:
    def test_same_seed_identical_fault_sequence(self):
        inj1, res1 = _isx_chaos(seed=1)
        inj2, res2 = _isx_chaos(seed=1)
        assert inj1.events, "plan injected nothing; test is vacuous"
        assert inj1.event_log() == inj2.event_log()
        assert res1.makespan == res2.makespan
        s1, s2 = res1.merged_stats(), res2.merged_stats()
        assert s1.counter("shmem", "retries") > 0
        assert s1.counter("shmem", "retries") == s2.counter("shmem", "retries")

    def test_different_seed_different_sequence(self):
        inj1, _ = _isx_chaos(seed=1)
        inj3, _ = _isx_chaos(seed=3)
        assert inj1.event_log() != inj3.event_log()


#: Two sockets so the doomed place (socket1.l3) is distinct from the place
#: hosting each rank's main task (worker 0's socket0.l3).
NVM_DUO = MachineSpec(name="nvm-duo", sockets=2, cores_per_socket=2,
                      nvm_bytes=1 << 30)


#: Seed -> the flat ISx fault-plan run below as the scalar loop gives it:
#: makespan repr, fault events, sha256 of the event log's repr (prefix),
#: shmem retries, shmem msgs_sent. Seed 1's row was measured on the last
#: commit where a fault hook switched the wave off.
_FAULT_WAVE_PINS = {
    1: ("0.0021215474333392877", 338, "55c7068344f02554", 139, 3072),
    2: ("0.002077479781818188", 324, "a626a31d8db84b7e", 135, 3072),
    3: ("0.0021412621587507882", 334, "0e46545b39a9089a", 133, 3072),
}


def _isx_fault_wave(seed):
    """Flat ISx under drop/corrupt/delay faults with retries; returns its
    pinned tuple and how many fetch-add waves it sent."""
    import hashlib

    from repro.apps.isx import IsxConfig, isx_main, validate_isx
    from repro.bench.harness import cluster_for
    from repro.shmem.backend import ShmemBackend

    waves = []
    orig = ShmemBackend.amo_fetch_wave

    def counting(self, *a, **kw):
        waves.append(1)
        return orig(self, *a, **kw)

    cfg = IsxConfig(keys_per_pe=512, byte_scale=128)
    inj = FaultInjector(FaultPlan.from_spec({
        "retry": {"attempts": 6, "base": 1e-5, "factor": 2.0, "jitter": 0.25},
        "faults": [{"kind": "message_drop", "prob": 0.02},
                   {"kind": "message_corrupt", "prob": 0.02},
                   {"kind": "message_delay", "prob": 0.05, "extra": 1e-5}],
    }, seed=seed))
    ShmemBackend.amo_fetch_wave = counting
    try:
        res = spmd_run(isx_main("flat", cfg),
                       cluster_for("titan", 2, layout="flat"),
                       module_factories=[shmem_factory(direct=True)],
                       fault_injector=inj)
    finally:
        ShmemBackend.amo_fetch_wave = orig
    validate_isx(cfg, res.nranks, res.results)
    stats = res.merged_stats()
    log = hashlib.sha256(repr(inj.event_log()).encode()).hexdigest()[:16]
    return ((repr(res.makespan), len(inj.events), log,
             stats.counter("shmem", "retries"),
             stats.counter("shmem", "msgs_sent")), len(waves))


class TestFaultWaveIdentity:
    """Fault verdicts ride the fetch-add wave: the wave engages under a
    fault plan and gives the scalar loop's schedule, fault log and
    retries bit for bit."""

    @pytest.mark.parametrize("seed", sorted(_FAULT_WAVE_PINS))
    def test_wave_under_faults_equals_scalar_loop(self, seed, monkeypatch):
        from repro.shmem.backend import ShmemBackend

        with_wave, nwaves = _isx_fault_wave(seed)
        assert nwaves == 32, "fetch-add wave did not engage under faults"
        monkeypatch.setattr(ShmemBackend, "wave_capable", lambda self: False)
        assert _isx_fault_wave(seed) == (with_wave, 0)
        assert with_wave == _FAULT_WAVE_PINS[seed]


class TestCheckpointRecovery:
    """Acceptance: an ISx-style keysort loses its compute place mid-run and
    still produces the no-fault answer by restoring from checkpoint."""

    @staticmethod
    def _main(ctx):
        from repro.runtime.api import timer_future

        rt = ctx.runtime
        ck = rt.module("checkpoint")
        rng = np.random.default_rng(100 + ctx.rank)
        keys = rng.integers(0, 1 << 20, size=4096).astype(np.int64)
        yield ck.checkpoint_async("keys", {"k": keys})
        target = rt.model.place("socket1.l3")

        def sort_body():
            restored = (yield ck.restore_async("keys"))["k"]
            chunks = [np.sort(c) for c in np.array_split(restored, 8)]
            merged = chunks[0]
            for c in chunks[1:]:
                # Yield between merge steps so a mid-run place failure can
                # land while this task is suspended.
                yield timer_future(2e-5)
                merged = np.concatenate([merged, c])
            return np.sort(merged)

        fut = async_retry(sort_body, attempts=3, backoff=Backoff(base=1e-5),
                          retry_on=PlaceFailure, name="sort", place=target)
        out = yield fut
        return out

    def _run(self, fault_injector=None):
        cluster = ClusterConfig(nodes=2, ranks_per_node=1, workers_per_rank=2,
                                machine=NVM_DUO, detail="numa")
        return spmd_run(self._main, cluster,
                        module_factories=[checkpoint_factory()],
                        fault_injector=fault_injector)

    def test_recovers_to_the_no_fault_answer(self):
        baseline = self._run()
        plan = FaultPlan.from_spec({"faults": [
            {"kind": "place_fail", "at": 1e-4, "rank": 1,
             "place": "socket1.l3", "max_faults": 1}]})
        inj = FaultInjector(plan)
        res = self._run(fault_injector=inj)
        # The failure actually happened, killed the in-flight sort on rank 1,
        # and the retry recovered from checkpoint.
        assert [k for _, k, _ in inj.events] == ["place_fail"]
        merged = res.merged_stats()
        assert merged.counter("resilience", "tasks_killed") >= 1
        assert merged.counter("resilience", "retries") >= 1
        assert len(merged.series["resilience/time_to_recovery"]) >= 1
        for got, want in zip(res.results, baseline.results):
            assert np.array_equal(got, want)

    def test_fault_run_is_replayable(self):
        plan_spec = {"faults": [
            {"kind": "place_fail", "at": 1e-4, "rank": 1,
             "place": "socket1.l3", "max_faults": 1}]}
        inj1 = FaultInjector(FaultPlan.from_spec(plan_spec))
        res1 = self._run(fault_injector=inj1)
        inj2 = FaultInjector(FaultPlan.from_spec(plan_spec))
        res2 = self._run(fault_injector=inj2)
        assert inj1.event_log() == inj2.event_log()
        assert res1.makespan == res2.makespan
        for a, b in zip(res1.results, res2.results):
            assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# worker failure inside an SPMD run (timed rule end to end)
# ---------------------------------------------------------------------------
class TestTimedWorkerFault:
    def test_worker_fail_rule_fires_and_run_completes(self):
        def main(ctx):
            from repro.runtime.api import timer_future

            total = 0
            for _ in range(4):
                yield timer_future(5e-5)
                acc = []
                finish(lambda: forasync(16, lambda i: acc.append(i),
                                        chunks=16))
                total += len(acc)
            return total

        cluster = ClusterConfig(nodes=1, ranks_per_node=1, workers_per_rank=4,
                                machine=machine("workstation"))
        plan = FaultPlan.from_spec({"faults": [
            {"kind": "worker_fail", "at": 1e-4, "rank": 0, "worker": 2,
             "max_faults": 1}]})
        inj = FaultInjector(plan)
        res = spmd_run(main, cluster, fault_injector=inj)
        assert res.results == [64]
        assert [k for _, k, _ in inj.events] == ["worker_fail"]
        assert res.merged_stats().counter("resilience", "worker_failures") == 1


# ---------------------------------------------------------------------------
# payload digests (the speculation write detector)
# ---------------------------------------------------------------------------
class TestPayloadDigest:
    # Captured before payload_digest stopped copying through tobytes(): the
    # bytes hashed, and so the digests, must not have moved.
    CASES = {
        "int64": (lambda: np.arange(12, dtype=np.int64),
                  "c2b26e0dfc5e5624670375996f5b3d34a07fbf0472f3781c6914dc7ce136b09b"),
        "float32": (lambda: np.linspace(0, 1, 7, dtype=np.float32).reshape(7, 1),
                    "79a77998f6f6e8738a52bf61a1833fb411e60c93353d1eae23edd32f7a632fa2"),
        "noncontig": (lambda: np.arange(24, dtype=np.int64).reshape(4, 6)[:, ::2],
                      "d4221f5ffb1ca1654c4e69e462845f49d85c598bc7b9f51e003a295fdd09b186"),
        # no buffer-protocol export for this dtype: the tobytes() fallback
        "datetime64": (lambda: np.array([1, 2, 3], dtype="datetime64[s]"),
                       "285c44c9781b20bc21c8506a1cbc271aefc2eeb5a0cf0fe3bad147e1e41dc7f4"),
        "empty": (lambda: np.zeros(0),
                  "38e8cefffb0bde4c12f41699d9f6534d0c3d6dc90e07502a9c803e3e38381af3"),
        "scalar0d": (lambda: np.array(2.5),
                     "c33df8200985b6e6e88644b8a52e588df27632a96c0ad18d05319b46b54abdd8"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_digest_unchanged(self, case):
        from repro.resilience.snapshot import payload_digest

        make, want = self.CASES[case]
        assert payload_digest(make()) == want
