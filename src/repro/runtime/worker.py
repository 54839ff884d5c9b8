"""Worker state and the pop-path/steal-path search policy (paper §II-B3).

A worker's scheduling logic is exactly the paper's three steps:

1. search its *pop path* for work it created itself (LIFO, locality);
2. failing that, search its *steal path* for work created by others (FIFO);
3. repeat until work is found or shutdown.

Step 3 (the retry/park loop) belongs to the executor; this module implements
one search round, shared verbatim by the simulated and threaded executors.

The search round is occupancy-driven: each worker precomputes the
:class:`~repro.runtime.deques.PlaceDeques` sequence of its two paths plus two
bitmasks (its own slot bit for the pop path, everyone-else's bits for the
steal path) so one ``mask & bits`` test per place decides whether the place
can possibly yield work. Empty places cost an AND instead of a lock acquire
per slot, and the victim permutation is drawn once per search round (and only
when some steal-path place actually shows stealable occupancy) instead of
reshuffled per place.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.platform.place import Place
    from repro.runtime.runtime import HiperRuntime
    from repro.runtime.task import Task


class WorkerState:
    """Per-worker mutable state: identity, paths, virtual clock, RNG."""

    __slots__ = ("wid", "rank", "runtime", "pop_path", "steal_path", "clock",
                 "_rng", "_victims", "idle_time", "tasks_run", "pops",
                 "steals", "own_bit", "steal_mask", "_pop_pairs",
                 "_steal_deques")

    def __init__(
        self,
        wid: int,
        rank: int,
        runtime: "HiperRuntime",
        pop_path: Sequence["Place"],
        steal_path: Sequence["Place"],
        rng: np.random.Generator,
    ):
        self.wid = wid
        self.rank = rank
        self.runtime = runtime
        self.pop_path: List["Place"] = list(pop_path)
        self.steal_path: List["Place"] = list(steal_path)
        #: Virtual clock (simulated executor). Every engine adds charged
        #: compute to it and blocked waits to both it and ``idle_time``, so
        #: ``clock - idle_time`` is this worker's busy time on every engine
        #: (on the threaded one, charged seconds: there is no other ledger).
        self.clock = 0.0
        self._rng = rng
        self._victims = np.arange(runtime.num_workers)
        self.idle_time = 0.0
        self.tasks_run = 0
        #: Tasks this worker took from its pop path and stole: the runtime's
        #: ``core.pop``/``core.steal`` counters, summed over workers on read.
        self.pops = 0
        self.steals = 0
        #: Occupancy-mask bits: this worker's slot, and every other slot.
        self.own_bit = 1 << wid
        self.steal_mask = ((1 << runtime.num_workers) - 1) & ~self.own_bit
        # Resolve each path place to its PlaceDeques (and, for the pop path,
        # this worker's slot) once; paths and the deque table are both fixed
        # for the runtime's lifetime.
        deques = runtime.deques
        self._pop_pairs = [
            (deques.at(p), deques.at(p).slots[wid]) for p in self.pop_path
        ]
        self._steal_deques = [deques.at(p) for p in self.steal_path]

    def victim_order(self) -> List[int]:
        """A fresh random permutation of worker ids, for steal fairness.
        Drawn at most once per search round (see :func:`find_task`)."""
        self._rng.shuffle(self._victims)
        return self._victims.tolist()

    @property
    def busy_time(self) -> float:
        """Compute charged to this worker: ``clock - idle_time``."""
        return self.clock - self.idle_time

    def advance_clock_to(self, t: float) -> None:
        if t > self.clock:
            self.idle_time += t - self.clock
            self.clock = t

    def describe(self) -> str:
        return f"worker {self.wid} (rank {self.rank})"

    def __repr__(self) -> str:
        return f"<WorkerState r{self.rank}w{self.wid} clock={self.clock:.6f}>"


def find_task(worker: WorkerState) -> Optional["Task"]:
    """One search round over the worker's pop path then steal path.

    Returns a ready task or ``None``. Mirrors paper §II-B3: the pop path only
    yields tasks this worker created; the steal path only yields tasks other
    workers created. Places whose occupancy mask shows nothing this worker
    could take are skipped without touching their deques.
    """
    own_bit = worker.own_bit
    for pd, slot in worker._pop_pairs:
        if pd.mask & own_bit:
            task = slot.pop()
            if task is not None:
                worker.pops += 1
                return task
    steal_mask = worker.steal_mask
    if steal_mask:  # zero iff there is a single worker: nobody to steal from
        order = None
        for pd in worker._steal_deques:
            if pd.mask & steal_mask:
                if order is None:
                    order = worker.victim_order()
                task = pd.steal_from_others(worker.wid, order)
                if task is not None:
                    worker.steals += 1
                    return task
    return None


def has_visible_work(worker: WorkerState) -> bool:
    """Cheap check whether a search round *could* succeed (used by executors
    to decide whether to park): one occupancy-mask AND per path place, zero
    lock traffic. May return true spuriously (racy in the threaded executor),
    never falsely negative at the instant of the check."""
    own_bit = worker.own_bit
    for pd, _slot in worker._pop_pairs:
        if pd.mask & own_bit:
            return True
    steal_mask = worker.steal_mask
    for pd in worker._steal_deques:
        if pd.mask & steal_mask:
            return True
    return False
