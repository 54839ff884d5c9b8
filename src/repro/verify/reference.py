"""The seed DES engine, kept as the reference tests compare production to.

:class:`ReferenceSimExecutor` is :class:`~repro.exec.sim.SimExecutor` with
its data structures swapped for the obvious ones: an O(W) ``min()`` scan of
the maybe-ready set instead of the lazy-deletion heap, a ``heapq`` of
``[time, seq, fn]`` records instead of the slab/calendar
:class:`~repro.exec.eventq.FlatEventQueue`, and no task recycling. Task
dispatch, blocking, fault injection, roots and driving are inherited, so a
schedule or digest that differs between the two classes is a bug in one of
the production data structures.

Test-only, and not an option of ``SimExecutor``: under ``repro`` only the
differential's ``ref-sim`` engine and ``isx_engine_differential`` build it.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from typing import Any, Callable, Optional

import numpy as np

from repro.exec.sim import SimExecutor
from repro.runtime.context import ExecContext, scoped_context
from repro.runtime.runtime import HiperRuntime
from repro.runtime.worker import WorkerState, find_task
from repro.util.errors import ConfigError, RuntimeStateError


class ReferenceSimExecutor(SimExecutor):
    """Scan-min worker selection over a ``heapq`` event list."""

    def __init__(self, *, trace: bool = False, task_overhead: float = 0.0):
        super().__init__(trace=trace, task_overhead=task_overhead)
        self._events = []  # heap of [time, seq, fn]; fn None == cancelled
        self._event_seq = itertools.count()
        self.task_slab = None

    def shutdown(self) -> None:
        super().shutdown()
        self._events = []  # heapq needs a list; _push refuses new events

    def notify(self, runtime: HiperRuntime, place,
               created_by: Optional[int] = None) -> None:
        by_creator, wake_all = self._coverage[id(runtime)][place.place_id]
        self._maybe_ready.update(
            wake_all if created_by is None else by_creator[created_by])

    def _wake(self, worker: WorkerState) -> None:
        self._maybe_ready.add(worker)

    def _push(self, when: float, fn: Callable[[], None]) -> int:
        if self._shutdown:
            raise RuntimeStateError("executor already shut down")
        seq = next(self._event_seq)
        heapq.heappush(self._events, [when, seq, fn])
        return seq

    def call_later(self, delay: float, fn: Callable[[], None]) -> int:
        if delay < 0 or delay != delay:
            raise ConfigError(
                f"call_later delay must be a non-negative number, got {delay}")
        return self._push(self.now() + delay, fn)

    def call_at(self, when: float, fn: Callable, arg: Any = None) -> int:
        if when != when:
            raise ConfigError(f"call_at timestamp must not be NaN, got {when}")
        floor = self._event_floor
        return self._push(when if when > floor else floor,
                          fn if arg is None else functools.partial(fn, arg))

    def call_at_batch(self, whens, fn: Callable[[Any], None], args) -> None:
        floor = self._event_floor
        if isinstance(whens, np.ndarray):
            whens = whens.tolist()
        for w, a in zip(whens, args):
            self._push(w if w > floor else floor, functools.partial(fn, a))

    def cancel_event(self, handle: int) -> bool:
        for entry in self._events:
            if entry[1] == handle:
                if entry[2] is None:
                    return False
                entry[2] = None
                return True
        return False

    def _step(self) -> bool:
        while self._maybe_ready:
            worker = min(self._maybe_ready,
                         key=lambda w: (w.clock, w.rank, w.wid))
            task = find_task(worker)
            if task is None:
                self._maybe_ready.discard(worker)
                continue
            self._run_task(worker, task)
            return True
        if self._events:
            self._advance_events()
            return True
        return False

    def _advance_events(self) -> None:
        t0, _, fn = heapq.heappop(self._events)
        self._event_floor = max(self._event_floor, t0)
        batch = [fn]
        while self._events and self._events[0][0] == t0:
            batch.append(heapq.heappop(self._events)[2])
        with scoped_context(ExecContext(self)):  # now() == event floor
            for fn in batch:
                if fn is None:  # cancelled
                    continue
                fn()
                self.events_processed += 1
