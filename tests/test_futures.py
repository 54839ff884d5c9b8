"""Promises/futures: single assignment, callbacks, combinators, waiting."""

import collections
import sys
import threading

import pytest

from repro.launch import Child, close_all
from repro.runtime import future as future_mod
from repro.runtime import instrument
from repro.runtime.api import async_, async_future, finish
from repro.runtime.future import (
    Future,
    Promise,
    after,
    satisfied_future,
    when_all,
    when_any,
)
from repro.util.errors import PromiseError


class TestPromiseBasics:
    def test_put_then_value(self):
        p = Promise("x")
        p.put(41)
        assert p.get_future().value() == 41

    def test_put_none_default(self):
        p = Promise()
        p.put()
        assert p.get_future().value() is None

    def test_double_put_raises(self):
        p = Promise("dup")
        p.put(1)
        with pytest.raises(PromiseError, match="twice"):
            p.put(2)

    def test_put_after_put_exception_raises(self):
        p = Promise()
        p.put_exception(ValueError("boom"))
        with pytest.raises(PromiseError):
            p.put(1)

    def test_put_exception_requires_exception(self):
        with pytest.raises(TypeError):
            Promise().put_exception("not an exception")

    def test_value_before_put_raises(self):
        with pytest.raises(PromiseError, match="before satisfaction"):
            Promise("early").get_future().value()

    def test_exception_rethrown_on_value(self):
        p = Promise()
        p.put_exception(RuntimeError("kaput"))
        with pytest.raises(RuntimeError, match="kaput"):
            p.get_future().value()

    def test_shared_future_handle(self):
        p = Promise()
        assert p.get_future() is p.get_future()


class TestCallbacks:
    def test_callback_after_put_runs_immediately(self):
        p = Promise()
        p.put(7)
        seen = []
        p.get_future().on_ready(lambda f: seen.append(f.value()))
        assert seen == [7]

    def test_callbacks_run_in_registration_order(self):
        p = Promise()
        order = []
        f = p.get_future()
        f.on_ready(lambda _: order.append("a"))
        f.on_ready(lambda _: order.append("b"))
        p.put(None)
        assert order == ["a", "b"]

    def test_callback_runs_exactly_once(self):
        p = Promise()
        count = [0]
        p.get_future().on_ready(lambda _: count.__setitem__(0, count[0] + 1))
        p.put(None)
        assert count[0] == 1


class TestCombinators:
    def test_satisfied_future(self):
        f = satisfied_future(13)
        assert f.satisfied and f.value() == 13

    def test_when_all_values_in_order(self):
        ps = [Promise() for _ in range(3)]
        combined = when_all([p.get_future() for p in ps])
        ps[2].put("c")
        ps[0].put("a")
        assert not combined.satisfied
        ps[1].put("b")
        assert combined.value() == ["a", "b", "c"]

    def test_when_all_empty(self):
        assert when_all([]).value() == []

    def test_when_all_propagates_failure(self):
        ps = [Promise(), Promise()]
        combined = when_all([p.get_future() for p in ps])
        ps[0].put_exception(KeyError("bad"))
        ps[1].put(1)
        with pytest.raises(KeyError):
            combined.value()

    def test_when_any_first_wins(self):
        ps = [Promise(), Promise()]
        combined = when_any([p.get_future() for p in ps])
        ps[1].put("late-binding")
        assert combined.value() == (1, "late-binding")
        ps[0].put("ignored")  # must not double-fire
        assert combined.value() == (1, "late-binding")

    def test_when_any_empty_rejected(self):
        with pytest.raises(PromiseError):
            when_any([])


class TestWaitInTasks:
    def test_wait_returns_value(self, sim_rt):
        def main():
            f = async_future(lambda: 10 * 2)
            return f.wait() + f.get()

        assert sim_rt.run(main) == 40

    def test_wait_reraises_task_exception(self, sim_rt):
        def boom():
            raise ValueError("inner")

        def main():
            f = async_future(boom)
            with pytest.raises(ValueError, match="inner"):
                f.get()
            return "survived"

        assert sim_rt.run(main) == "survived"

    def test_wait_outside_any_context_raises(self):
        p = Promise()
        from repro.util.errors import RuntimeStateError
        with pytest.raises(RuntimeStateError):
            p.get_future().wait()

    def test_done_time_tracks_virtual_time(self, sim_rt):
        from repro.runtime.api import charge

        def main():
            f = async_future(lambda: charge(5e-3))
            f.wait()
            return f.done_time()

        assert sim_rt.run(main) == pytest.approx(5e-3)

    def test_done_time_before_satisfaction_raises(self):
        with pytest.raises(PromiseError):
            Promise().get_future().done_time()


class TestCombinatorExceptionPropagation:
    """Regression tests for the audit of ISSUE 'resilience' satellite (b):
    one put_exception must fail a combined future exactly once — never
    deadlock it, never double-fire it."""

    def test_when_all_fails_fast_without_waiting_for_stragglers(self):
        # Before the fail-fast rewrite this deadlocked: one failed input +
        # one never-satisfied input left the combined future pending forever.
        failed, never = Promise(), Promise()
        combined = when_all([failed.get_future(), never.get_future()])
        failed.put_exception(KeyError("early"))
        assert combined.satisfied
        with pytest.raises(KeyError, match="early"):
            combined.value()

    def test_when_all_fail_fast_in_task_context(self, sim_rt):
        def main():
            failed, never = Promise(), Promise()
            combined = when_all([failed.get_future(), never.get_future()])
            sim_rt.executor.call_later(
                1e-5, lambda: failed.put_exception(ValueError("down")))
            with pytest.raises(ValueError, match="down"):
                combined.get()  # must not raise DeadlockError
            return True

        assert sim_rt.run(main)

    def test_when_all_single_failure_fires_exactly_once(self):
        ps = [Promise() for _ in range(3)]
        combined = when_all([p.get_future() for p in ps])
        fires = []
        combined.on_ready(lambda f: fires.append(f))
        ps[1].put_exception(RuntimeError("one"))
        # Late arrivals — clean or failed — must not re-fire the output.
        ps[0].put(1)
        ps[2].put_exception(RuntimeError("two"))
        assert len(fires) == 1
        with pytest.raises(RuntimeError, match="one"):
            combined.value()

    def test_when_all_still_collects_clean_values(self):
        ps = [Promise() for _ in range(2)]
        combined = when_all([p.get_future() for p in ps])
        ps[0].put("a")
        ps[1].put("b")
        assert combined.value() == ["a", "b"]

    def test_when_any_failed_winner_fires_exactly_once(self):
        ps = [Promise(), Promise()]
        combined = when_any([p.get_future() for p in ps])
        fires = []
        combined.on_ready(lambda f: fires.append(f))
        ps[0].put_exception(OSError("winner failed"))
        ps[1].put("loser")  # must be ignored
        assert len(fires) == 1
        with pytest.raises(OSError, match="winner failed"):
            combined.value()


class TestAfter:
    """``after(dep, issue)``: the one chaining helper behind
    ``MPI_Isend_await`` and a CUDA kernel's ``await_futures``."""

    def test_issues_once_dep_is_satisfied_and_forwards_the_issued_value(self):
        dep, issued = Promise(), Promise()
        calls = []
        out = after(dep.get_future(),
                    lambda: calls.append(1) or issued.get_future(), "chained")
        assert not calls and out.name == "chained"
        dep.put("ignored")
        assert calls == [1] and not out.satisfied
        issued.put(42)
        assert out.value() == 42

    def test_failed_dep_propagates_and_never_issues(self):
        dep, calls = Promise(), []
        out = after(dep.get_future(), lambda: calls.append(1))
        dep.put_exception(KeyError("dep"))
        assert not calls
        with pytest.raises(KeyError, match="dep"):
            out.value()

    def test_failures_of_issue_and_of_the_issued_op_propagate(self):
        def boom():
            raise ValueError("issue")

        with pytest.raises(ValueError, match="issue"):
            after(satisfied_future(), boom).value()
        failed = Promise()
        out = after(satisfied_future(), failed.get_future)
        failed.put_exception(OSError("op"))
        with pytest.raises(OSError, match="op"):
            out.value()


class TestCombinatorCallbackRetention:
    """Regression: combinators must detach dead callbacks from long-lived
    inputs. A warm pool's shutdown future raced against per-job futures
    accumulated one dead callback per job for the daemon's lifetime."""

    def test_when_any_winner_detaches_losers(self):
        daemon = Promise(name="daemon-shutdown")
        for i in range(50):
            job = Promise(name=f"job-{i}")
            out = when_any([daemon.get_future(), job.get_future()])
            job.put(i)
            assert out.value() == (1, i)
        assert not daemon.get_future()._callbacks

    def test_when_any_already_satisfied_input_sweeps_all(self):
        # The winner fires during registration (input already satisfied):
        # the sweep must still detach from the pending loser.
        daemon = Promise(name="daemon-shutdown")
        done = Promise(name="job")
        done.put("v")
        out = when_any([done.get_future(), daemon.get_future()])
        assert out.value() == (0, "v")
        assert not daemon.get_future()._callbacks

    def test_when_any_losers_garbage_collectable(self):
        import gc
        import weakref

        class Payload:
            pass

        daemon = Promise(name="daemon-shutdown")
        payload = Payload()
        job = Promise(name="job")
        out = when_any([daemon.get_future(), job.get_future()])
        job.put(payload)
        assert out.value() == (1, payload)
        ref = weakref.ref(payload)
        # Drop every reference except whatever the daemon promise retains.
        # Before the detach fix, the daemon's callback list held the when_any closure
        # -> registered futures -> job promise -> payload: a leak.
        del payload, job, out
        gc.collect()
        assert ref() is None
        assert not daemon.get_future()._callbacks

    def test_when_all_fail_fast_detaches_stragglers(self):
        never = Promise(name="never")
        failed = Promise(name="failed")
        out = when_all([never.get_future(), failed.get_future()])
        failed.put_exception(ValueError("down"))
        with pytest.raises(ValueError):
            out.value()
        assert not never.get_future()._callbacks


class TestSharedLock:
    """Every future of the process shares one module-level leaf lock; these
    pin what the per-promise lock used to give for free."""

    def test_thread_stress_every_callback_runs_exactly_once(self):
        """8 threads x 2000 promises: four producers race each other to
        ``put`` every promise (one wins, three see PromiseError) while four
        registrars attach a callback they keep and one they try to detach."""
        n, producers, registrars = 2000, 4, 4
        promises = [Promise() for _ in range(n)]
        futures = [p.get_future() for p in promises]
        ran = []          # (kind, thread, index), appended by callbacks
        wins = [[] for _ in range(producers)]
        refused = [0] * producers
        detached = [[None] * n for _ in range(registrars)]
        lockstep = threading.Barrier(producers + registrars)

        def chunks(t):
            # All eight threads meet before every 50 promises, and walk them
            # from alternate ends, so each chunk is contended.
            for base in range(0, n, 50):
                lockstep.wait(timeout=30.0)
                chunk = range(base, base + 50)
                yield from chunk if t % 2 == 0 else reversed(chunk)

        def produce(t):
            for i in chunks(t):
                try:
                    promises[i].put(i)
                    wins[t].append(i)
                except PromiseError:
                    refused[t] += 1

        def register(t):
            for i in chunks(t):
                fut = futures[i]
                fut.on_ready(lambda f, i=i: ran.append(("keep", t, i)))
                drop = lambda f, i=i: ran.append(("drop", t, i))  # noqa: E731
                fut.on_ready(drop)
                detached[t][i] = fut._remove_callback(drop)

        threads = [threading.Thread(target=produce, args=(t,))
                   for t in range(producers)]
        threads += [threading.Thread(target=register, args=(t,))
                    for t in range(registrars)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)

        assert sorted(i for w in wins for i in w) == list(range(n))
        assert sum(refused) == (producers - 1) * n
        assert [f.value() for f in futures] == list(range(n))
        assert all(f._callbacks is None for f in futures)
        counts = collections.Counter(ran)
        assert set(counts.values()) <= {1}          # nothing ran twice
        for t in range(registrars):
            for i in range(n):
                assert counts[("keep", t, i)] == 1
                # Detached before resolution: never runs. Otherwise it was
                # already drained by the resolver (or ran at registration).
                assert counts[("drop", t, i)] == (0 if detached[t][i] else 1)

    def test_forked_child_gets_a_fresh_lock(self):
        """A thread holds the promise lock while the process forks: that
        thread does not exist in the child, so the inherited lock would stay
        held forever there. Without the at-fork hook the child hangs on its
        first ``put`` (bounded here by the recv timeout)."""
        parked, release = threading.Event(), threading.Event()

        def park():
            with future_mod._lock:
                parked.set()
                release.wait(timeout=60.0)

        helper = threading.Thread(target=park)
        helper.start()
        child = None
        try:
            assert parked.wait(timeout=10.0)
            child = Child.start("fork", _resolve_in_child, name="fork probe")
            assert child.recv(timeout=20.0) == ("resolved", 7, [7])
        finally:
            release.set()
            helper.join(timeout=10.0)
            if child is not None:
                codes = close_all([child], grace=5.0)
        assert not helper.is_alive()
        assert codes == [0]

    def test_sync_key_is_the_same_on_release_and_acquire(self):
        """The race detector orders a consumer after the producer only if
        both sides name the promise by the same key."""

        class Recorder(instrument.Probe):
            def __init__(self):
                self.released, self.acquired = [], []

            def on_sync_release(self, key):
                self.released.append(key)

            def on_sync_acquire(self, key):
                self.acquired.append(key)

        p = Promise("synced")
        f = p.get_future()
        with instrument.probed(Recorder()) as probe:
            p.put(3)
            assert f.wait() == 3  # already satisfied: no task context needed
        assert probe.released == probe.acquired == [("promise", id(f))]


def _resolve_in_child(link):
    p = Promise("in-child")
    f = p.get_future()
    seen = []
    f.on_ready(lambda fut: seen.append(fut.value()))
    p.put(7)
    link.send(("resolved", f.value(), seen))
    link.recv()
