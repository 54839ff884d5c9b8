"""Real OS-thread executor (single rank).

One persistent thread per worker, exactly the paper's §II-B1 thread pool. The
policy core (deques, pop/steal paths, futures, finish) is shared with the
simulated executor; this engine exists to (a) prove that core is genuinely
thread-safe and (b) run single-rank task-parallel programs with real
concurrency. Performance evaluation happens on :class:`SimExecutor` — under
the CPython GIL, wall-clock scaling here is not meaningful (DESIGN.md §2).

Blocking uses the same help-until-ready strategy: a blocked worker executes
other ready tasks, then parks on a condition variable. A watchdog timeout
(default 30 s wall) converts silent hangs into :class:`DeadlockError` —
the threaded engine cannot *prove* deadlock the way the simulator can.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from typing import Any, Callable, List, Optional

from repro.exec.base import Executor
from repro.runtime.context import ExecContext, current_context, scoped_context
from repro.runtime.finish import FinishScope
from repro.runtime.future import Future, Promise
from repro.runtime.runtime import HiperRuntime
from repro.runtime.worker import WorkerState, find_task, has_visible_work
from repro.util.errors import ConfigError, DeadlockError, RuntimeStateError

_PARK_TIMEOUT = 0.002  # seconds; bounds wake latency for missed notifies


class ThreadedExecutor(Executor):
    """One OS thread per worker of a single runtime."""

    mode = "threads"

    def __init__(self, *, block_timeout: float = 30.0, join_timeout: float = 5.0):
        if block_timeout <= 0:
            raise ConfigError("block_timeout must be positive")
        if join_timeout <= 0:
            raise ConfigError("join_timeout must be positive")
        self.block_timeout = block_timeout
        self.join_timeout = join_timeout
        self._runtime: Optional[HiperRuntime] = None
        self._threads: List[threading.Thread] = []
        self._cond = threading.Condition()
        #: Notified as each root task finishes; what drive() waits on.
        self._root_done = threading.Condition()
        self._stop = False
        self._started = False
        self._shutdown = False
        #: Monotonic count of executed task segments (any worker). The
        #: watchdogs treat a change as proof of liveness, so a run that keeps
        #: completing tasks never trips the deadline however long it takes.
        self._progress = 0
        self._t0 = time.monotonic()
        # timer facility
        self._timers: List = []
        self._timer_seq = itertools.count()
        self._timer_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    def register_runtime(self, runtime: HiperRuntime) -> None:
        if self._runtime is not None:
            raise RuntimeStateError(
                "ThreadedExecutor drives exactly one runtime; multi-rank runs "
                "use SimExecutor (see repro.distrib)"
            )
        self._runtime = runtime

    def _ensure_started(self) -> None:
        if self._shutdown:
            # After shutdown() the worker threads are gone; without this
            # check submit_root/call_later would enqueue work nobody can run
            # and hang silently until the watchdog fired.
            raise RuntimeStateError(
                "ThreadedExecutor used after shutdown(); create a fresh "
                "executor for a new run"
            )
        if self._started:
            return
        with self._cond:
            if self._started:
                return
            self._started = True
        assert self._runtime is not None
        for w in self._runtime.workers:
            th = threading.Thread(
                target=self._worker_loop, args=(w,),
                name=f"hiper-worker-{w.wid}", daemon=True,
            )
            self._threads.append(th)
            th.start()
        self._timer_thread = threading.Thread(
            target=self._timer_loop, name="hiper-timer", daemon=True
        )
        self._timer_thread.start()

    def shutdown(self) -> None:
        with self._cond:
            self._stop = True
            self._shutdown = True
            self._cond.notify_all()
        leaked: List[str] = []
        for th in self._threads:
            th.join(timeout=self.join_timeout)
            if th.is_alive():
                leaked.append(th.name)
        if self._timer_thread is not None:
            self._timer_thread.join(timeout=self.join_timeout)
            if self._timer_thread.is_alive():
                leaked.append(self._timer_thread.name)
        self._threads.clear()
        self._timer_thread = None
        if leaked:
            # A worker stuck in a task body survived the stop signal. Fail
            # loudly: a silently-leaked thread keeps mutating runtime state
            # after "shutdown" and poisons everything the caller does next.
            raise RuntimeStateError(
                f"shutdown leaked {len(leaked)} thread(s) still alive after "
                f"{self.join_timeout}s: {', '.join(leaked)} (likely a task "
                "body stuck in non-cooperative blocking)"
            )

    # ------------------------------------------------------------------
    def now(self) -> float:
        return time.monotonic() - self._t0

    def pending_events(self) -> int:
        with self._cond:
            return len(self._timers)

    def charge(self, seconds: float) -> None:
        # Real work takes real time on this engine; cost annotations are
        # accounting-only: they land on the worker's clock, whose
        # ``clock - idle_time`` is its busy time (see WorkerState.clock).
        if not seconds >= 0:  # NaN too: it would poison the worker clock
            raise ConfigError(f"cannot charge negative time {seconds}")
        ctx = current_context()
        if ctx is not None and ctx.worker is not None:
            ctx.worker.clock += seconds

    def notify(self, runtime: HiperRuntime, place,
               created_by: Optional[int] = None) -> None:
        # Parked workers recheck has_visible_work (an occupancy-mask test)
        # on wake, so a broadcast is cheap enough; ``created_by`` precision
        # only pays off on the simulated engine's maybe-ready set.
        with self._cond:
            self._cond.notify_all()

    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        if not delay >= 0:  # NaN too: it would never come due
            raise ConfigError(f"call_later delay must be non-negative, got {delay}")
        self._ensure_started()
        with self._cond:
            heapq.heappush(
                self._timers, (self.now() + delay, next(self._timer_seq), fn)
            )
            self._cond.notify_all()

    # ------------------------------------------------------------------
    def _worker_loop(self, worker: WorkerState) -> None:
        rt = self._runtime
        assert rt is not None
        while True:
            task = find_task(worker)
            if task is not None:
                self.execute_task(rt, worker, task)
                continue
            with self._cond:
                if self._stop:
                    return
                if not has_visible_work(worker):
                    self._cond.wait(timeout=_PARK_TIMEOUT)

    def _timer_loop(self) -> None:
        while True:
            fire: List[Callable[[], None]] = []
            with self._cond:
                if self._stop:
                    return
                now = self.now()
                while self._timers and self._timers[0][0] <= now:
                    fire.append(heapq.heappop(self._timers)[2])
                if not fire:
                    delay = (
                        min(self._timers[0][0] - now, 0.01)
                        if self._timers
                        else 0.01
                    )
                    self._cond.wait(timeout=max(delay, 1e-4))
                    continue
            ctx = ExecContext(self)
            with scoped_context(ctx):
                for fn in fire:
                    fn()

    # ------------------------------------------------------------------
    def on_task_start(self, worker, task) -> None:
        # Starting a segment is progress too: in a nested help-until-ready
        # chain (task A waits on B waits on C ...) nothing *completes* until
        # the innermost body returns, but new segments keep starting — a
        # completion-only signal would false-alarm on deep chains.
        # GIL-atomic bump; watchdogs only care that the value *changes*, so a
        # theoretical lost update merely delays one deadline extension.
        self._progress += 1

    def execute_task(self, runtime: HiperRuntime, worker, task) -> None:
        super().execute_task(runtime, worker, task)
        # Completion tick as well: a long-running body that just finished
        # should restart the stall clock before the next quiet stretch.
        self._progress += 1

    def block_until(
        self,
        predicate: Callable[[], bool],
        description: str = "",
        time_source: Optional[Callable[[], float]] = None,
    ) -> None:
        # The watchdog measures *stall* time, not total blocking time: any
        # task completion anywhere in the runtime extends the deadline, so a
        # long but steadily progressing computation (e.g. a chain of slow
        # tasks) never trips it — only a genuine lack of progress does.
        mark = self._progress
        deadline = time.monotonic() + self.block_timeout
        ctx = current_context()
        worker = ctx.worker if ctx is not None else None
        rt = ctx.runtime if ctx is not None else None
        while not predicate():
            if worker is not None and rt is not None:
                task = find_task(worker)
                if task is not None:
                    self.execute_task(rt, worker, task)
                    continue
            with self._cond:
                if not predicate():
                    self._cond.wait(timeout=_PARK_TIMEOUT)
            now_m = time.monotonic()
            seen = self._progress
            if seen != mark:
                mark = seen
                deadline = now_m + self.block_timeout
            elif now_m > deadline:
                raise DeadlockError(
                    f"blocked on {description or 'a condition'} with no task "
                    f"progress for more than {self.block_timeout}s "
                    "(threaded watchdog)"
                )
        if worker is not None and time_source is not None:
            # Mirror the simulated engine (Executor.block_until contract):
            # the blocked worker's clock advances to the satisfaction
            # timestamp, so idle/busy accounting stays comparable across
            # engines. The timestamp is wall time here; the wait moves clock
            # and idle_time together, so charged busy time is unchanged.
            worker.advance_clock_to(time_source())

    # ------------------------------------------------------------------
    def submit_root(
        self, runtime: HiperRuntime, fn: Callable[[], Any], *, name: str = "root"
    ) -> Future:
        self._ensure_started()
        scope = FinishScope(name=f"{name}-scope")
        inner = runtime.spawn(
            fn, scope=scope, return_future=True, name=name,
            place=runtime.workers[0].pop_path[0],
        )
        assert inner is not None
        scope.close()
        out = Promise(name=f"{name}-done")

        def _joined(_f) -> None:
            try:
                scope.raise_collected()
                out.put(inner.value())
            except BaseException as exc:  # noqa: BLE001
                out.put_exception(exc)
            with self._root_done:
                self._root_done.notify_all()

        scope.all_done_future().on_ready(_joined)
        return out.get_future()

    def drive(self, until: Callable[[], bool]) -> None:
        """Wait until ``until()`` is true, re-checking it as each root task
        finishes. Progress-extending watchdog: wait in slices and restart
        the stall deadline whenever workers ran tasks since the last check."""
        mark = self._progress
        deadline = time.monotonic() + self.block_timeout
        with self._root_done:
            while not until():
                self._root_done.wait(timeout=0.05)
                now_m = time.monotonic()
                seen = self._progress
                if seen != mark:
                    mark = seen
                    deadline = now_m + self.block_timeout
                elif now_m > deadline:
                    raise DeadlockError(
                        f"root tasks made no progress for "
                        f"{self.block_timeout}s (threaded watchdog)"
                    )

    def run_root(
        self, runtime: HiperRuntime, fn: Callable[[], Any], *, name: str = "root"
    ) -> Any:
        fut = self.submit_root(runtime, fn, name=name)
        self.drive(lambda: fut.satisfied)
        return fut.value()

    def makespan(self) -> float:
        return self.now()

    def __repr__(self) -> str:
        return f"ThreadedExecutor(workers={len(self._threads)}, started={self._started})"
