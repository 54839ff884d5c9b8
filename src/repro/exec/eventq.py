"""The simulated engine's event list: a ``heapq`` of numeric keys.

Every pending event is one ``(when, seq, slot)`` key; ``seq`` is a global
push counter, so records pop in ascending ``(when, seq)`` order — the order
every schedule digest is pinned to. The callback and its argument sit at
``slot`` in the reusable :attr:`fns` / :attr:`args` columns, not in the
key: a tuple of numbers is nothing the cycle collector has to walk, a
per-event ``[when, seq, fn, arg]`` list is.

A cohort (every record at the minimum timestamp) pops whole, as a snapshot
taken before any of it runs, so a push or cancel made during its dispatch
cannot change it. Cancellation is lazy: the record keeps its place with a
blanked callback until it pops. Nothing in the engine cancels on a hot
path, so :meth:`EventList.cancel` is a linear scan. Why a plain heap: see
``docs/sim-internals.md``, "The event list".
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional, Sequence, Tuple

__all__ = ["EventList"]


class EventList:
    """Pending events in ascending ``(when, seq)`` order, popped by cohort."""

    __slots__ = ("_heap", "fns", "args", "_free", "_seq")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int]] = []
        self.fns: List[Optional[Callable]] = []
        self.args: List[Any] = []
        self._free: List[int] = []
        self._seq = 0

    def __len__(self) -> int:
        """Pending records, cancelled ones included until they pop."""
        return len(self._heap)

    def push(self, when: float, fn: Callable, arg: Any = None) -> int:
        """Schedule ``fn()`` — or ``fn(arg)`` — at ``when``; returns the
        handle :meth:`cancel` takes."""
        free = self._free
        if free:
            slot = free.pop()
            self.fns[slot] = fn
            self.args[slot] = arg
        else:
            slot = len(self.fns)
            self.fns.append(fn)
            self.args.append(arg)
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (when, seq, slot))
        return seq

    def push_batch(self, whens: Sequence[float], fn: Callable,
                   args: Sequence[Any]) -> None:
        """Schedule ``fn(args[i])`` at ``whens[i]``, in list order: the same
        records as ``len(args)`` calls of :meth:`push`."""
        n = len(args)
        if len(whens) != n:
            raise ValueError(f"push_batch: {len(whens)} timestamps for {n} args")
        free, fns, argl = self._free, self.fns, self.args
        cut = max(len(free) - n, 0)
        slots = free[cut:]
        del free[cut:]
        for slot, arg in zip(slots, args):
            fns[slot] = fn
            argl[slot] = arg
        k = len(slots)
        if k < n:
            slots.extend(range(len(fns), len(fns) + n - k))
            fns.extend([fn] * (n - k))
            argl.extend(args[k:])
        seq = self._seq
        self._seq = seq + n
        heap = self._heap
        keys = zip(whens, range(seq, seq + n), slots)
        if n > len(heap):
            heap.extend(keys)
            heapify(heap)
        else:
            for key in keys:
                heappush(heap, key)

    def peek_when(self) -> Optional[float]:
        """Timestamp of the next record (live or cancelled), or None."""
        return self._heap[0][0] if self._heap else None

    def pop_batch(self) -> Tuple[float, List[Tuple[Optional[Callable], Any]]]:
        """Pop every record at the minimum timestamp as ``(when, [(fn, arg),
        ...])`` in seq order; a cancelled record's ``fn`` is None."""
        heap, fns, args, free = self._heap, self.fns, self.args, self._free
        when = heap[0][0]
        batch = []
        while heap and heap[0][0] == when:
            slot = heappop(heap)[2]
            batch.append((fns[slot], args[slot]))
            fns[slot] = args[slot] = None
            free.append(slot)
        return when, batch

    def cancel(self, handle: int) -> bool:
        """Blank the pending record behind ``handle``. True iff it was still
        pending: False once it popped, or was cancelled before."""
        for _when, seq, slot in self._heap:
            if seq == handle:
                if self.fns[slot] is None:
                    return False
                self.fns[slot] = self.args[slot] = None
                return True
        return False
