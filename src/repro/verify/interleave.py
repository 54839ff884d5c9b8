"""Schedule-exploring cooperative executor (the verification engine).

:class:`InterleaveExecutor` drives the *same* policy core the production
engines share — deques, pop/steal search, finish scopes, futures — through
the production stepping loop (``SimExecutor._step``), but its ``_select`` hook
hands every scheduling decision to a pluggable seeded
:class:`~repro.verify.strategies.Strategy` instead of the simulator's
lowest-clock rule. One OS thread multiplexes the logical workers, so a run is
a deterministic function of ``(strategy, seed, workload)`` and any failing
interleaving replays bit-for-bit from its seed.

Two properties make it a verification engine rather than a third production
engine:

1. **Locked structures.** Its ``lock_class`` is
   :class:`~repro.runtime.instrument.TrackedLock`, so the runtime builds the
   *threaded* engine's locked deques and finish scopes (not the simulator's
   lock-free fast paths), and every pluggable lock acquire/release is
   reported to the installed probe — the race detector's lockset feed.

2. **Schedule recording.** Every dispatch appends ``(rank, wid, task name,
   per-run task seq)`` to :attr:`schedule`; :meth:`schedule_digest` hashes
   the list. Equal digests == identical interleavings, which is what the
   harness and CLI compare when replaying a reported seed.

The engine also reports the policy core's *documented* lock-free occupancy
reads (``PlaceDeques.mask`` tested by ``find_task``/``has_visible_work``
without a lock) to the probe as *benign* accesses, so the race detector's
whitelist is exercised rather than silently bypassed.

Its events sit in the seed ``heapq`` list and tasks are not recycled, so
under :class:`~repro.verify.strategies.LowestClockStrategy` it is the
reference production must match bit for bit (``make_engine("ref-sim")``).
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

from repro.exec.sim import SimExecutor
from repro.runtime import instrument
from repro.runtime.context import ExecContext, scoped_context
from repro.runtime.instrument import TrackedLock
from repro.runtime.runtime import HiperRuntime
from repro.runtime.worker import WorkerState, find_task
from repro.verify.strategies import ScheduleEntry, Strategy


class HeapEventList:
    """The seed event list: a ``heapq`` of ``[when, seq, fn, arg]`` records
    behind :class:`~repro.exec.eventq.FlatEventQueue`'s push/cancel surface.
    A handle is the record's ``seq``; cancelling blanks ``fn`` in place."""

    def __init__(self) -> None:
        self._heap: List[list] = []
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, when: float, fn: Callable, arg: Any = None) -> int:
        seq = next(self._seq)
        heapq.heappush(self._heap, [when, seq, fn, arg])
        return seq

    def push_batch(self, whens, fn: Callable, args) -> None:
        for when, arg in zip(whens, args):
            self.push(float(when), fn, arg)  # numpy scalar -> float

    def cancel(self, handle: int) -> bool:
        for entry in self._heap:
            if entry[1] == handle and entry[2] is not None:
                entry[2] = None
                return True
        return False

    def peek_when(self) -> Optional[float]:
        return self._heap[0][0] if self._heap else None

    def pop_batch(self) -> Tuple[float, List[list]]:
        """Pop every record sharing the minimum timestamp, in seq order
        (out of cancellation's reach before any of them runs)."""
        heap = self._heap
        batch = [heapq.heappop(heap)]
        t0 = batch[0][0]
        while heap and heap[0][0] == t0:
            batch.append(heapq.heappop(heap))
        return t0, batch


class InterleaveExecutor(SimExecutor):
    """Virtual-time engine whose worker selection is strategy-controlled."""

    mode = "interleave"

    #: Tracked real locks: the runtime instantiates the locked (threaded
    #: discipline) deque slots and finish scopes, and lock events reach the
    #: installed probe.
    lock_class = TrackedLock

    def __init__(self, strategy: Strategy, *, task_overhead: float = 0.0):
        super().__init__(task_overhead=task_overhead)
        self._events = HeapEventList()
        self.task_slab = None
        self.strategy = strategy
        #: The recorded interleaving, one entry per task segment dispatched.
        self.schedule: List[ScheduleEntry] = []
        self._dispatch_seq = 0

    # ------------------------------------------------------------------
    # The strategy, not the clock order, picks the worker: _maybe_ready is a
    # plain set here and the production engine's clock heap stays empty.
    def notify(self, runtime: HiperRuntime, place,
               created_by: Optional[int] = None) -> None:
        by_creator, wake_all = self._coverage[id(runtime)][place.place_id]
        self._maybe_ready.update(
            wake_all if created_by is None else by_creator[created_by])

    def _wake(self, worker: WorkerState) -> None:
        self._maybe_ready.add(worker)

    def _select(self, bound: float):
        ready = self._maybe_ready
        while True:
            candidates = sorted((w for w in ready if w.clock < bound),
                                key=lambda w: (w.rank, w.wid))
            if not candidates:
                return None
            worker = (candidates[0] if len(candidates) == 1
                      else self.strategy.choose(candidates))
            p = instrument.PROBE
            if p is not None:
                # Model the search round's documented lock-free occupancy
                # reads (worker.py reads pd.mask with no lock; see
                # docs/concurrency.md) so the detector sees — and must
                # whitelist — them.
                for pd, _slot in worker._pop_pairs:
                    p.on_access(("place", pd.place.name, "mask"), False,
                                benign=True)
                for pd in worker._steal_deques:
                    p.on_access(("place", pd.place.name, "mask"), False,
                                benign=True)
            task = find_task(worker)
            if task is None:
                ready.discard(worker)
                self.strategy.on_no_work(worker)
                continue
            self.schedule.append(
                (worker.rank, worker.wid, task.name or "task",
                 self._dispatch_seq))
            self._dispatch_seq += 1
            return worker, task

    def _advance_events(self) -> None:
        t0, batch = self._events.pop_batch()
        if t0 > self._event_floor:
            self._event_floor = t0
        with scoped_context(ExecContext(self)):  # now() == event floor
            for _when, _seq, fn, arg in batch:
                if fn is None:  # cancelled
                    continue
                if arg is None:
                    fn()
                else:
                    fn(arg)
                self.events_processed += 1

    # ------------------------------------------------------------------
    def schedule_digest(self) -> str:
        """SHA-256 over the recorded interleaving; equal digests mean the
        runs dispatched the same task segments on the same workers in the
        same order — the bit-for-bit replay check."""
        h = hashlib.sha256()
        for rank, wid, name, seq in self.schedule:
            h.update(f"{rank}:{wid}:{name}:{seq}\n".encode())
        return h.hexdigest()

    def __repr__(self) -> str:
        return (
            f"InterleaveExecutor({self.strategy.describe()}, "
            f"steps={len(self.schedule)})"
        )

