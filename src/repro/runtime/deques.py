"""Per-place, per-worker task deques with an occupancy index (paper §II-B2).

Each place holds *N* deques, one per worker. The i-th deque at a place
contains only ready tasks spawned by worker *i*, which makes it trivial for a
searching worker to distinguish its own work (pop: LIFO, locality) from other
workers' work (steal: FIFO, load balancing) — exactly the Chase–Lev access
discipline.

Two things make the search hot path cheap here:

1. **Occupancy index.** Every :class:`PlaceDeques` maintains a bitmask of
   non-empty slots (``mask``, bit *i* set iff worker *i*'s deque holds work)
   and an exact ready-task count (``ready``), both updated on every
   push/pop/steal. ``find_task`` and ``has_visible_work`` test the mask and
   skip empty places/victims without touching a single deque or lock, and
   ``total_ready`` (polling / deadlock-report path) reads counters instead of
   summing ``len()`` across W slots per place.

2. **Pluggable locking.** The executor supplies a lock class
   (:attr:`repro.exec.base.Executor.lock_class`): ``threading.Lock`` under
   the threaded engine, :class:`NullLock` under the single-threaded simulated
   engine. When the lock class is ``NullLock`` the table instantiates
   :class:`UnsyncWorkerDeque` slots whose methods carry no lock operations at
   all — the Chase–Lev-cheap access the paper assumes (§II-B2/B3), rather
   than paying an uncontended-but-real lock acquire per deque op.

Under the threaded engine the per-place index is guarded by one index lock
(same pluggable class) nested inside the slot lock, so counters stay exact;
*readers* of ``mask``/``ready`` are deliberately lock-free, which is racy but
safe: a stale mask can only cause a missed steal in one search round or a
spurious wake, both bounded by the executor's park timeout.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Type

from repro.runtime import instrument
from repro.util.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover
    from repro.platform.model import PlatformModel
    from repro.platform.place import Place
    from repro.runtime.task import Task


class NullLock:
    """A lock-shaped no-op for single-threaded engines (pluggable locking)."""

    __slots__ = ()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        return True

    def release(self) -> None:
        pass

    def __enter__(self) -> "NullLock":
        return self

    def __exit__(self, *exc) -> bool:
        return False


class WorkerDeque:
    """One worker's deque at one place. Owner pops newest; thieves steal
    oldest. Thread-safe variant: a lock per deque plus the owning place's
    index lock for occupancy updates (slot lock -> index lock, always in that
    order)."""

    __slots__ = ("_lock", "_items", "_place", "_bit")

    def __init__(self, place: Optional["PlaceDeques"] = None, bit: int = 0,
                 lock_cls: Type = threading.Lock):
        self._lock = lock_cls()
        self._items: deque = deque()
        self._place = place
        self._bit = bit

    def _loc(self, field: str):
        pd = self._place
        pname = pd.place.name if pd is not None else "?"
        if field == "items":
            return ("slot", (pname, self._bit.bit_length() - 1), "items")
        return ("place", pname, field)

    def push(self, task: "Task") -> bool:
        """Append a task; returns True iff the slot was empty before (its
        occupancy bit flipped on) — the signal engines use to elide wakes."""
        with self._lock:
            items = self._items
            newly = not items
            items.append(task)
            pd = self._place
            p = instrument.PROBE
            if p is not None:
                p.on_access(self._loc("items"), True)
            if pd is not None:
                with pd.index_lock:
                    if p is not None:
                        p.on_access(self._loc("mask"), True)
                        p.on_access(self._loc("ready"), True)
                    pd.mask |= self._bit
                    pd.ready += 1
            return newly

    def pop(self) -> Optional["Task"]:
        """LIFO end — owner's access."""
        with self._lock:
            items = self._items
            if not items:
                return None
            task = items.pop()
            pd = self._place
            p = instrument.PROBE
            if p is not None:
                p.on_access(self._loc("items"), True)
            if pd is not None:
                with pd.index_lock:
                    if p is not None:
                        p.on_access(self._loc("mask"), True)
                        p.on_access(self._loc("ready"), True)
                    pd.ready -= 1
                    if not items:
                        pd.mask &= ~self._bit
            return task

    def steal(self) -> Optional["Task"]:
        """FIFO end — thief's access."""
        with self._lock:
            items = self._items
            if not items:
                return None
            task = items.popleft()
            pd = self._place
            p = instrument.PROBE
            if p is not None:
                p.on_access(self._loc("items"), True)
            if pd is not None:
                with pd.index_lock:
                    if p is not None:
                        p.on_access(self._loc("mask"), True)
                        p.on_access(self._loc("ready"), True)
                    pd.ready -= 1
                    if not items:
                        pd.mask &= ~self._bit
            return task

    def drain(self) -> List["Task"]:
        """Remove and return every task (oldest first), fixing the occupancy
        index. Resilience path: evacuating a failed place/worker slot."""
        with self._lock:
            items = self._items
            if not items:
                return []
            out = list(items)
            items.clear()
            pd = self._place
            p = instrument.PROBE
            if p is not None:
                p.on_access(self._loc("items"), True)
            if pd is not None:
                with pd.index_lock:
                    if p is not None:
                        p.on_access(self._loc("mask"), True)
                        p.on_access(self._loc("ready"), True)
                    pd.ready -= len(out)
                    pd.mask &= ~self._bit
            return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def peek_names(self) -> List[str]:
        """Snapshot of task names, oldest first (diagnostics only)."""
        with self._lock:
            return [t.name for t in self._items]


class UnsyncWorkerDeque(WorkerDeque):
    """Lock-free slot for single-threaded engines: identical semantics to
    :class:`WorkerDeque`, zero lock traffic, exact occupancy updates."""

    __slots__ = ()

    def push(self, task: "Task") -> bool:
        items = self._items
        newly = not items
        items.append(task)
        pd = self._place
        if pd is not None:
            pd.mask |= self._bit
            pd.ready += 1
        return newly

    def pop(self) -> Optional["Task"]:
        items = self._items
        if not items:
            return None
        task = items.pop()
        pd = self._place
        if pd is not None:
            pd.ready -= 1
            if not items:
                pd.mask &= ~self._bit
        return task

    def steal(self) -> Optional["Task"]:
        items = self._items
        if not items:
            return None
        task = items.popleft()
        pd = self._place
        if pd is not None:
            pd.ready -= 1
            if not items:
                pd.mask &= ~self._bit
        return task

    def drain(self) -> List["Task"]:
        items = self._items
        if not items:
            return []
        out = list(items)
        items.clear()
        pd = self._place
        if pd is not None:
            pd.ready -= len(out)
            pd.mask &= ~self._bit
        return out

    def __len__(self) -> int:
        return len(self._items)


class PlaceDeques:
    """The N deques of one place, plus its occupancy index.

    ``mask`` bit *i* is set iff slot *i* is non-empty; ``ready`` is the exact
    number of ready tasks across all slots. Both are maintained by the slots
    themselves on every push/pop/steal.
    """

    __slots__ = ("place", "slots", "mask", "ready", "index_lock")

    def __init__(
        self,
        place: "Place",
        num_workers: int,
        *,
        lock_cls: Type = threading.Lock,
    ):
        if num_workers < 1:
            raise ConfigError("num_workers must be >= 1")
        self.place = place
        self.mask = 0
        self.ready = 0
        self.index_lock = lock_cls()
        slot_cls = UnsyncWorkerDeque if lock_cls is NullLock else WorkerDeque
        self.slots: List[WorkerDeque] = [
            slot_cls(self, 1 << w, lock_cls) for w in range(num_workers)
        ]

    def steal_from_others(
        self, worker_id: int, victim_order: Sequence[int]
    ) -> Optional["Task"]:
        """Try to steal from each victim slot in the given order, skipping
        slots the occupancy mask shows empty (the mask snapshot may go stale
        under the threaded engine; the per-slot ``steal`` resolves that)."""
        mask = self.mask
        if not mask:
            return None
        slots = self.slots
        for v in victim_order:
            if v == worker_id or not (mask >> v) & 1:
                continue
            task = slots[v].steal()
            if task is not None:
                return task
        return None

    def total(self) -> int:
        """Ready tasks at this place — O(1) occupancy-counter read."""
        return self.ready

    def drain(self) -> List["Task"]:
        """Evacuate every slot (slot order, oldest first within a slot)."""
        out: List["Task"] = []
        for slot in self.slots:
            out.extend(slot.drain())
        return out


class DequeTable:
    """All deques of one runtime: ``table[place] -> PlaceDeques``."""

    def __init__(self, model: "PlatformModel", *, lock_cls: Type = threading.Lock):
        self._by_place_id: Dict[int, PlaceDeques] = {
            p.place_id: PlaceDeques(p, model.num_workers, lock_cls=lock_cls)
            for p in model
        }
        self.num_workers = model.num_workers

    def at(self, place: "Place") -> PlaceDeques:
        return self._by_place_id[place.place_id]

    def push(self, task: "Task") -> bool:
        """Push a task; True iff its slot flipped from empty to non-empty.
        (Reaches into the slot directly — one call instead of two on the
        per-spawn hot path.)"""
        place = task.place
        if place is None:
            raise ConfigError(f"task {task.name!r} has no target place")
        return self._by_place_id[place.place_id].slots[task.created_by].push(task)

    def total_ready(self) -> int:
        """Ready tasks runtime-wide: an O(places) sum over the maintained
        per-place counters — no slot walks, no lock traffic."""
        return sum(pd.ready for pd in self._by_place_id.values())

    def snapshot(self) -> Dict[str, int]:
        """Place name -> ready-task count (diagnostics, deadlock reports).

        Reads each place's occupancy counter exactly once: a single int read
        per place, so there is no check-then-recount TOCTOU window under the
        threaded executor.
        """
        out: Dict[str, int] = {}
        for pd in self._by_place_id.values():
            n = pd.ready
            if n:
                out[pd.place.name] = n
        return out
