"""Known-buggy fixtures the harness must catch (detector ground truth).

:class:`RacyWorkerDeque` reproduces a classic occupancy-index bug: it updates
its place's shared ``mask``/``ready`` index while holding only its *own slot
lock*, skipping the place's ``index_lock``. Two workers touching different
slots of the same place then mutate the shared mask under disjoint locksets —
a textbook write/write race (lost bit-set/clear ⇒ phantom or invisible work).
The production :class:`~repro.runtime.deques.WorkerDeque` nests
``index_lock`` inside the slot lock precisely to prevent this.

The fixture still reports its accesses to the installed probe honestly (the
bug is the missing lock, not missing instrumentation), so the race detector
sees locksets ``{slot_A}`` vs ``{slot_B}`` on ``("place", name, "mask")`` and
must flag them. ``python -m repro verify --planted`` and the harness tests use
this as the rediscovery check: a detector change that stops catching it is a
regression.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.runtime import instrument
from repro.runtime.deques import WorkerDeque

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.runtime import HiperRuntime
    from repro.runtime.task import Task


class RacyWorkerDeque(WorkerDeque):
    """Deliberately buggy slot: occupancy-index updates skip ``index_lock``."""

    __slots__ = ()

    def push(self, task: "Task") -> bool:
        with self._lock:
            items = self._items
            newly = not items
            items.append(task)
            pd = self._place
            p = instrument.PROBE
            if p is not None:
                p.on_access(self._loc("items"), True)
            if pd is not None:
                # BUG (planted): mask/ready mutated under the slot lock only.
                if p is not None:
                    p.on_access(self._loc("mask"), True)
                    p.on_access(self._loc("ready"), True)
                pd.mask |= self._bit
                pd.ready += 1
            return newly

    def steal(self) -> Optional["Task"]:
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
                if p is not None:
                    p.on_access(self._loc("mask"), True)
                    p.on_access(self._loc("ready"), True)
                pd.ready -= 1
                if not items:
                    pd.mask &= ~self._bit
            return task


def install_racy_slots(runtime: "HiperRuntime") -> int:
    """Swap every deque slot of ``runtime`` for a :class:`RacyWorkerDeque`.

    Must run before any work is enqueued (slots are assumed empty). Returns
    the number of slots replaced. Each worker resolved its own slot when the
    runtime was built, so a worker's pops keep the production slot's locked
    ``pop``; pushes and steals, which go through ``PlaceDeques.slots``, take
    the racy ones — which is where the planted race lives.
    """
    replaced = 0
    for pd in runtime.deques._by_place_id.values():
        for i, slot in enumerate(pd.slots):
            racy = RacyWorkerDeque.__new__(RacyWorkerDeque)
            racy._lock = slot._lock
            racy._items = slot._items
            racy._place = slot._place
            racy._bit = slot._bit
            pd.slots[i] = racy
            replaced += 1
    return replaced
