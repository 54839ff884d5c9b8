"""Periodically-polling asynchronous completion tasks (paper §II-C1, steps 1-4
of the async-MPI flow; reused verbatim by the CUDA module, §II-C3).

A :class:`PollingService` owns a list of pending operations, each a
``poll() -> (done, value)`` callable paired with the promise to satisfy. When
the first watcher is added, the service spawns ONE polling task at its place
("a polling task is not created if one already exists"). Each execution of
the polling task sweeps the pending list, satisfies promises of completed
operations, and — if operations remain — re-arms itself after
``interval`` seconds of virtual time, yielding the worker to useful work in
between, exactly as the paper describes.

Event-driven backends (the simulated fabric, the simulated GPU) additionally
call :meth:`kick` when an operation completes so the sweep happens
immediately instead of waiting out the interval; the paper's real MPI had no
such signal, hence the interval. The ``eager_kick=False`` ablation reproduces
pure interval polling.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from repro.platform.place import Place
from repro.runtime.future import Promise
from repro.runtime.runtime import HiperRuntime

PollFn = Callable[[], Tuple[bool, Any]]


class PollingService:
    """One module's pending-operation poller at one place."""

    def __init__(
        self,
        runtime: HiperRuntime,
        place: Place,
        *,
        module: str,
        interval: float = 2e-6,
        sweep_cost: float = 1e-7,
        eager_kick: bool = True,
        name: str = "poll",
    ):
        self.runtime = runtime
        self.place = place
        self.module = module
        self.interval = float(interval)
        self.sweep_cost = float(sweep_cost)
        self.eager_kick = eager_kick
        self.name = name
        # Pluggable lock discipline: a no-op lock under the single-threaded
        # simulated executor, a real threading.Lock under the threaded one.
        self._lock = runtime.executor.lock_class()
        self._pending: List[Tuple[PollFn, Promise]] = []
        self._task_live = False  # a polling task is scheduled or armed
        #: Arm generation. Every spawned sweep bumps it (under the lock), so
        #: an interval timer scheduled before an eager kick carries a stale
        #: epoch and becomes a no-op — previously that stale timer could run
        #: a second sweep for the same completion, charging ``sweep_cost``
        #: twice.
        self._epoch = 0
        #: ``<module>.poll_sweeps``/``poll_kicks``/``futures_satisfied``,
        #: read by the rank's stats only when they are read.
        self.sweeps = self.kicks = self.satisfied = 0
        runtime.stats.register(self._collect)

    # -- public -----------------------------------------------------------
    def watch(self, poll_fn: PollFn, promise: Promise) -> None:
        """Register a pending operation; ensures a polling task exists."""
        with self._lock:
            self._pending.append((poll_fn, promise))
            need_spawn = self._arm_locked()
        if need_spawn:
            self._spawn_sweep()

    def kick(self) -> None:
        """Ask for an immediate sweep (event-driven completion signal)."""
        if not self.eager_kick:
            return
        with self._lock:
            if not self._pending:
                return
            need_spawn = self._arm_locked()
        if need_spawn:
            self.kicks += 1
            self._spawn_sweep()

    def _arm_locked(self) -> bool:
        """With the lock held: claim the (single) live polling task slot.
        Bumping the epoch invalidates any outstanding interval timer."""
        if self._task_live:
            return False
        self._task_live = True
        self._epoch += 1
        return True

    @property
    def outstanding(self) -> int:
        with self._lock:
            return len(self._pending)

    def _collect(self, counters: Dict, histograms: Dict) -> None:
        for op, n in (("poll_sweeps", self.sweeps), ("poll_kicks", self.kicks),
                      ("futures_satisfied", self.satisfied)):
            if n:
                counters[(self.module, op)] += n

    # -- internals --------------------------------------------------------
    def _spawn_sweep(self) -> None:
        self.runtime.spawn(
            self._sweep, place=self.place, module=self.module,
            name=f"{self.module}-{self.name}", cost=self.sweep_cost,
            scope=self.runtime._poll_scope(),
        )

    def _sweep(self) -> None:
        self.sweeps += 1
        with self._lock:
            pending, self._pending = self._pending, []
        still = []
        completed = []
        for poll_fn, promise in pending:
            done, value = poll_fn()
            if done:
                completed.append((promise, value))
            else:
                still.append((poll_fn, promise))
        self.satisfied += len(completed)
        with self._lock:
            self._pending = still + self._pending  # keep ops registered mid-sweep
            remain = bool(self._pending)
            # While waiting out the interval no sweep task is live, so an
            # eager kick (event-driven completion) can schedule one early.
            self._task_live = False
            epoch = self._epoch
        # Satisfy outside the lock: callbacks may spawn or re-watch.
        for promise, value in completed:
            promise.put(value)
        if remain:
            # Re-arm after the poll interval, yielding the worker meanwhile.
            # The timer carries the current epoch: if a kick (or a re-watch
            # from a completion callback) spawns a sweep first, the epoch
            # moves on and this timer becomes a no-op instead of running a
            # duplicate sweep.
            self.runtime.executor.call_later(
                self.interval, lambda: self._rearm(epoch)
            )

    def _rearm(self, epoch: int) -> None:
        with self._lock:
            if epoch != self._epoch:
                return  # a kick/re-watch superseded this timer
            if not self._pending or not self._arm_locked():
                return  # drained meanwhile, or a sweep is already live
        self._spawn_sweep()

    def __repr__(self) -> str:
        return (
            f"PollingService({self.module}/{self.name}@{self.place.name}, "
            f"pending={self.outstanding}, sweeps={self.sweeps})"
        )
