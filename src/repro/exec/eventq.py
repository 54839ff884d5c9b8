"""Flat-record event storage for the simulated engine.

The reference engine (:mod:`repro.verify.reference`, the seed implementation
kept for tests) keeps pending events in a ``heapq`` of
``[time, seq, fn]`` entries: every scheduled event allocates a list and a
closure, and every push/pop pays an O(log n) sift whose comparisons are
Python-level compares.  At paper-scale rank counts (512-1024 PEs, an
all-to-all wave keeps 10^5..10^6 fabric deliveries outstanding) that
per-event overhead dominates the simulation.

:class:`FlatEventQueue` replaces the heap with two pieces:

**An event slab** — parallel preallocated columns (``when`` / ``seq`` /
``kind`` / ``gen`` and the payload columns :attr:`fns` / :attr:`args`)
indexed by an integer *slot*, recycled through a free list: the
BufferPool idiom (:mod:`repro.util.bufpool`) applied to event records.
Handles returned to callers pack ``(generation << 32) | slot``, so a
stale handle (the slot was popped and reused) can never cancel the
wrong event.

**A calendar over the slab**, three tiers:

- the *spine* — numpy when/seq/slot arrays sorted ascending by
  ``(when, seq)`` with a head cursor.  Equal-timestamp cohorts pop as
  one ``searchsorted`` + slice: no per-event Python work at all.
- the *far tier* — unsorted parallel slot/when/seq lists absorbing O(1)
  appends (when/seq copied at push time so the merge never gathers them
  back out of the slab), with ``_far_min`` tracking the earliest
  timestamp.  It is merged into the spine by **one vectorized lexsort**
  only when the next pop would otherwise surface a later event
  (``_far_min`` at or below the head).
- the *near buffer* ``_cur`` — a small insertion-sorted buffer holding
  ``(-when, -seq, slot)`` tuples (negated keys so stdlib C ``insort``
  keeps the minimum at the *tail*).  It serves two roles: pushes that
  land before the current head (worker clocks may lag the event floor),
  and — when the spine and far tier are empty — the whole queue, so
  timer-chain workloads (push one, pop one) never touch numpy at all.
  When a timestamp exists in both the buffer and the spine, the pop
  merges the two runs by ``seq``.

Storm workloads — the ISx all-to-all wave pushing thousands of fabric
deliveries back-to-back — therefore pay one C-speed sort instead of N
heap sifts, and :meth:`push_batch` / :meth:`pop_batch` amortize the
Python bookkeeping over whole timestamp cohorts.

Cancellation is lazy, mirroring the reference: :meth:`cancel`
blanks the record's callback, the record keeps its place in the
calendar, and the consumer skips ``None`` callbacks when the batch
surfaces.  ``len()`` therefore counts *records* (live + cancelled), the
same thing ``len()`` of the heap reports.

Pop order is bit-for-bit the heap's order — ascending ``(when, seq)``
with ``seq`` the global monotone insertion counter — which is what lets
the engine be digest-gated against the reference (see
``docs/sim-internals.md``).

Hot-path calling convention: :meth:`pop_batch` returns the cohort as a
timestamp plus raw slab *slots* (plain ints, no per-event allocation);
the consumer dispatches straight off the slab columns (``fns[slot]`` /
``args[slot]``) and hands the slots back via :meth:`release_batch` once
done.  While a cohort is being dispatched its slots sit on the
:attr:`inflight` stack (not in the free list, so concurrent pushes can
never overwrite them); :meth:`cancel` checks that stack so an event of
the batch currently being dispatched is beyond cancellation's reach —
the same guarantee the reference gets from materializing its batch
out of the heap before running it.  Payload references are cleared on
release (cancel clears the callback immediately).
"""

from __future__ import annotations

from bisect import insort
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["FlatEventQueue"]

_INF = float("inf")

# Slab record kinds.
_K_FREE = 0
_K_CB = 1

_SLOT_MASK = 0xFFFFFFFF

_EMPTY_F = np.empty(0, dtype=np.float64)
_EMPTY_I = np.empty(0, dtype=np.int64)


class FlatEventQueue:
    """Slab-backed calendar queue with heap-identical ``(when, seq)`` order.

    Supports what ``SimExecutor`` needs from its event store:
    truthiness / ``len()`` (pending records), plus
    ``push`` / ``push_batch`` / ``pop_batch`` /
    ``release_batch`` / ``peek_when`` / ``cancel``.
    """

    #: Cap on the near buffer: a burst of early pushes beyond this spills to
    #: the far tier (one extra lexsort) instead of paying O(n) insorts.
    CUR_LIMIT = 1024

    __slots__ = (
        "_when", "_seq_arr", "_kind", "_gen", "fns", "args",
        "_free", "_next_slot", "_cap",
        "_next_seq", "_n_records",
        "_cur", "_far", "_far_w", "_far_q", "_far_min",
        "_sw", "_sq", "_ss", "_head", "_n_sp",
        "inflight",
        "sorts", "sorted_events",
    )

    def __init__(self, capacity: int = 1024) -> None:
        cap = max(16, capacity)
        # The slab: parallel columns indexed by slot.  Plain lists, not
        # numpy arrays — scalar stores/loads are the access pattern here,
        # and list indexing beats numpy scalar indexing; the numpy view is
        # materialized only at sort time.
        self._when: List[float] = [0.0] * cap
        self._seq_arr: List[int] = [0] * cap
        self._kind: List[int] = [_K_FREE] * cap
        self._gen: List[int] = [0] * cap
        #: Slab payload columns, indexed by the slots pop_batch returns.
        self.fns: List[Optional[Callable]] = [None] * cap
        self.args: List[Any] = [None] * cap
        self._free: List[int] = []
        self._next_slot = 0
        self._cap = cap

        self._next_seq = 0
        self._n_records = 0

        # Calendar tiers: near buffer of (-when, -seq, slot) tuples sorted
        # ascending (minimum at the tail), far tier (unsorted slots), and
        # the sorted numpy spine with its head cursor.
        self._cur: List[Tuple[float, int, int]] = []
        # Far tier: parallel slot/when/seq lists.  when/seq are copied here
        # at push time (C-level extends) so _rebuild never has to gather
        # them back out of the slab with a per-slot Python loop.
        self._far: List[int] = []
        self._far_w: List[float] = []
        self._far_q: List[int] = []
        self._far_min = _INF
        self._sw = _EMPTY_F
        self._sq = _EMPTY_I
        self._ss = _EMPTY_I
        self._head = 0
        self._n_sp = 0

        #: Stack of slot batches currently being dispatched (nested when a
        #: callback drives the engine recursively, e.g. help-until-ready).
        #: Their slots are off the calendar but not yet in the free list;
        #: :meth:`cancel` treats them as already-run.
        self.inflight: List[Sequence[int]] = []

        # Introspection counters (telemetry / tests).
        self.sorts = 0
        self.sorted_events = 0

    # ------------------------------------------------------------------
    # Slab management

    def _grow(self, need: int) -> None:
        cap = self._cap
        while cap < need:
            cap *= 2
        extra = cap - self._cap
        self._when.extend([0.0] * extra)
        self._seq_arr.extend([0] * extra)
        self._kind.extend([_K_FREE] * extra)
        self._gen.extend([0] * extra)
        self.fns.extend([None] * extra)
        self.args.extend([None] * extra)
        self._cap = cap

    def _alloc(self) -> int:
        free = self._free
        if free:
            slot = free.pop()
            self._gen[slot] += 1
            return slot
        slot = self._next_slot
        if slot >= self._cap:
            self._grow(slot + 1)
        self._next_slot = slot + 1
        return slot

    # ------------------------------------------------------------------
    # Push

    def push(self, when: float, fn: Callable, arg: Any = None) -> int:
        """Schedule ``fn`` (or ``fn(arg)``) at ``when``; returns a handle
        usable with :meth:`cancel`."""
        # _alloc inlined: push is the per-event hot path.
        free = self._free
        if free:
            slot = free.pop()
            self._gen[slot] += 1
        else:
            slot = self._next_slot
            if slot >= self._cap:
                self._grow(slot + 1)
            self._next_slot = slot + 1
        seq = self._next_seq
        self._next_seq = seq + 1
        self._when[slot] = when
        self._seq_arr[slot] = seq
        self._kind[slot] = _K_CB
        self.fns[slot] = fn
        self.args[slot] = arg
        self._n_records += 1

        cur = self._cur
        if self._head >= self._n_sp and not self._far:
            # Whole queue lives in the near buffer: timer-chain mode (push
            # one, pop one) — a classic insertion-sorted timer list, no
            # numpy anywhere on the path.
            if len(cur) < self.CUR_LIMIT:
                insort(cur, (-when, -seq, slot))
                return (self._gen[slot] << 32) | slot
        else:
            # Strictly before the next pop candidate: buffer it so the
            # push does not force a far-tier merge.  (Ties go to the far
            # tier — this seq is the global maximum, so the pop-side merge
            # preserves cohort order either way.)
            if self._head < self._n_sp:
                sh = self._sw[self._head]
                if cur:
                    cw = -cur[-1][0]
                    cand = cw if cw < sh else sh
                else:
                    cand = sh
            else:
                cand = -cur[-1][0] if cur else _INF
            fm = self._far_min
            if fm < cand:
                cand = fm
            if when < cand and len(cur) < self.CUR_LIMIT:
                insort(cur, (-when, -seq, slot))
                return (self._gen[slot] << 32) | slot
        self._far.append(slot)
        self._far_w.append(when)
        self._far_q.append(seq)
        if when < self._far_min:
            self._far_min = when
        return (self._gen[slot] << 32) | slot

    def push_batch(
        self,
        whens: Sequence[float],
        fn: Callable,
        args: Sequence[Any],
    ) -> None:
        """Schedule ``fn(args[i])`` at ``whens[i]`` for the whole batch.

        The batch always lands in the far tier: one append per slab column
        (a slice-assign when the slots are contiguous), merged into the
        spine by the first pop that needs it.
        """
        n = len(args)
        if n == 0:
            return
        if isinstance(whens, np.ndarray):
            wmin = float(whens.min())
            whens = whens.tolist()
        else:
            whens = list(whens)
            wmin = min(whens)
        if len(whens) != n:
            raise ValueError(
                f"push_batch: {len(whens)} timestamps for {n} args")
        free = self._free
        nf = len(free)
        seq0 = self._next_seq
        self._next_seq = seq0 + n
        seqs = range(seq0, seq0 + n)
        if nf == 0:
            # Contiguous tail: one slice-assign per slab column.
            base = self._next_slot
            end = base + n
            if end > self._cap:
                self._grow(end)
            self._next_slot = end
            slots: Sequence[int] = range(base, end)
            self._when[base:end] = whens
            self._seq_arr[base:end] = seqs
            self._kind[base:end] = [_K_CB] * n
            self.fns[base:end] = [fn] * n
            self.args[base:end] = args
            self._far.extend(slots)
        else:
            if nf >= n:
                # Recycled slots, taken with one slice (slot order is
                # irrelevant: ordering is carried by when/seq, not by
                # slot identity).
                cut = nf - n
                slots = free[cut:]
                del free[cut:]
                gen_l = self._gen
                arr = np.asarray(slots, dtype=np.int64)
                if (int(arr[-1]) - int(arr[0]) == n - 1
                        and bool((arr[1:] > arr[:-1]).all())):
                    # The freed run of a released wave cohort comes back
                    # contiguous ascending: fill every slab column with one
                    # slice-assign instead of a per-slot loop.
                    s0 = int(arr[0])
                    s1 = s0 + n
                    gen_l[s0:s1] = [g + 1 for g in gen_l[s0:s1]]
                    self._when[s0:s1] = whens
                    self._seq_arr[s0:s1] = seqs
                    self._kind[s0:s1] = [_K_CB] * n
                    self.fns[s0:s1] = [fn] * n
                    self.args[s0:s1] = args
                    self._far.extend(slots)
                    slots = None
                else:
                    for slot in slots:
                        gen_l[slot] += 1
            else:
                slots = [self._alloc() for _ in range(n)]
            if slots is not None:
                when_l, seq_l, kind_l = self._when, self._seq_arr, self._kind
                fn_l, arg_l = self.fns, self.args
                for slot, w, s, a in zip(slots, whens, seqs, args):
                    when_l[slot] = w
                    seq_l[slot] = s
                    kind_l[slot] = _K_CB
                    fn_l[slot] = fn
                    arg_l[slot] = a
                self._far.extend(slots)
        self._far_w.extend(whens)
        self._far_q.extend(seqs)
        if wmin < self._far_min:
            self._far_min = wmin
        self._n_records += n

    # ------------------------------------------------------------------
    # Sort machinery

    def _rebuild(self) -> None:
        """Merge the spine remainder and the far tier into a fresh spine,
        sorted ascending by ``(when, seq)``.

        Only the far *batch* is truly unsorted, so it alone pays a lexsort
        (O(m log m) for the m new records); the spine remainder is already
        in order, and the two sorted runs are combined with one **stable**
        argsort of the concatenated timestamps — numpy's stable kind is
        timsort, whose run detection gallops through two pre-sorted runs in
        ~O(n) instead of re-sorting them.  Without this, workloads that
        interleave pushes and pops (a real all-to-all, unlike the push-all-
        then-drain micro-bench shape) re-sort the whole outstanding queue on
        every merge and go quadratic at scale.

        Tie correctness: a stable sort keeps equal-``when`` spine entries
        (first in the concatenation) ahead of far entries, and that *is*
        seq order — every far record was pushed after the last rebuild, so
        its seq exceeds every spine record's."""
        head = self._head
        fw = np.asarray(self._far_w, dtype=np.float64)
        fq = np.asarray(self._far_q, dtype=np.int64)
        fs = np.asarray(self._far, dtype=np.int64)
        self._far = []
        self._far_w = []
        self._far_q = []
        self._far_min = _INF
        order_f = np.lexsort((fq, fw))
        fw = fw[order_f]
        fq = fq[order_f]
        fs = fs[order_f]
        if head < self._n_sp:
            w2 = np.concatenate((self._sw[head:], fw))
            order = np.argsort(w2, kind="stable")
            self._sw = w2[order]
            self._sq = np.concatenate((self._sq[head:], fq))[order]
            self._ss = np.concatenate((self._ss[head:], fs))[order]
        else:
            self._sw = fw
            self._sq = fq
            self._ss = fs
        self._head = 0
        self._n_sp = len(self._sw)
        self.sorts += 1
        self.sorted_events += self._n_sp

    # ------------------------------------------------------------------
    # Pop / peek / cancel

    def _candidate(self) -> float:
        """Timestamp the next pop would surface (after any needed merge)."""
        cur = self._cur
        if self._head < self._n_sp:
            sh = float(self._sw[self._head])
            cand = -cur[-1][0] if cur and -cur[-1][0] < sh else sh
        elif cur:
            cand = -cur[-1][0]
        else:
            cand = _INF
        fm = self._far_min
        return fm if fm < cand else cand

    def peek_when(self) -> Optional[float]:
        """Timestamp of the next record (live or cancelled), or None."""
        if not self._n_records:
            return None
        return self._candidate()

    def pop_batch(self) -> Tuple[float, List[int]]:
        """Pop *all* records sharing the minimum timestamp, in seq (FIFO)
        order, as ``(when, slots)``.

        The caller reads :attr:`fns` / :attr:`args` by slot (skipping
        ``None`` callbacks — cancelled records) and MUST hand the slots
        back via :meth:`release_batch` once dispatched.
        """
        if not self._n_records:
            raise IndexError("pop from an empty FlatEventQueue")
        cur = self._cur
        head = self._head
        if self._far:
            cand = float(self._sw[head]) if head < self._n_sp else _INF
            if cur and -cur[-1][0] < cand:
                cand = -cur[-1][0]
            if self._far_min <= cand:
                self._rebuild()
                head = 0
        sw = self._sw
        n_sp = self._n_sp
        sp_ok = head < n_sp
        if sp_ok and (not cur or sw[head] <= -cur[-1][0]):
            t0 = float(sw[head])
            if cur and -cur[-1][0] == t0:
                return t0, self._pop_merge(t0)
            # Pure spine cohort: one C-level searchsorted + slice, no
            # per-event Python work at all.
            nxt = head + 1
            if nxt == n_sp or sw[nxt] != t0:
                slots: Sequence[int] = [int(self._ss[head])]
                self._head = nxt
            else:
                end = int(np.searchsorted(sw, t0, side="right"))
                seg = self._ss[head:end]
                s0 = int(seg[0])
                if (int(seg[-1]) - s0 == end - head - 1
                        and bool((seg[1:] > seg[:-1]).all())):
                    # Contiguous ascending slots (wave cohorts recycle their
                    # predecessor's slot run verbatim): return a range so the
                    # dispatcher and release can use slice ops per column
                    # instead of per-slot loops.
                    slots = range(s0, s0 + (end - head))
                else:
                    slots = seg.tolist()
                self._head = end
            self._n_records -= len(slots)
            return t0, slots
        if cur:
            nw0 = cur[-1][0]
            t0 = -nw0
            if sp_ok and sw[head] == t0:
                return t0, self._pop_merge(t0)
            out: List[int] = []
            while cur and cur[-1][0] == nw0:
                out.append(cur.pop()[2])
            self._n_records -= len(out)
            return t0, out
        raise IndexError("pop from an empty FlatEventQueue")  # pragma: no cover

    def _pop_merge(self, t0: float) -> List[int]:
        """Drain the ``t0`` cohort from both the near buffer and the spine,
        interleaved by seq (both sources are seq-sorted within a timestamp)."""
        cur = self._cur
        sw, sq, ss = self._sw, self._sq, self._ss
        head = self._head
        n_sp = self._n_sp
        out: List[int] = []
        while True:
            cur_ok = bool(cur) and -cur[-1][0] == t0
            sp_ok = head < n_sp and sw[head] == t0
            if cur_ok and sp_ok:
                if -cur[-1][1] < sq[head]:
                    out.append(cur.pop()[2])
                else:
                    out.append(int(ss[head]))
                    head += 1
            elif sp_ok:
                out.append(int(ss[head]))
                head += 1
            elif cur_ok:
                out.append(cur.pop()[2])
            else:
                break
        self._head = head
        self._n_records -= len(out)
        return out

    def release_batch(self, slots: Sequence[int]) -> None:
        """Recycle the slots of a dispatched :meth:`pop_batch` cohort."""
        kind = self._kind
        fn_l, arg_l = self.fns, self.args
        if type(slots) is range:
            s0, s1 = slots.start, slots.stop
            n = s1 - s0
            kind[s0:s1] = [_K_FREE] * n
            fn_l[s0:s1] = [None] * n
            arg_l[s0:s1] = [None] * n
        else:
            for slot in slots:
                kind[slot] = _K_FREE
                fn_l[slot] = None
                arg_l[slot] = None
        self._free.extend(slots)

    def cancel(self, handle: int) -> bool:
        """Cancel the event behind ``handle``.  Returns True if it was
        still pending; False if it already ran, was already cancelled, or
        the handle is stale (slot recycled into a newer generation).

        Lazy delete: the record keeps its calendar position with a blanked
        callback, exactly like the reference's cancelled entries."""
        slot = handle & _SLOT_MASK
        if slot >= self._cap:
            return False
        if (self._kind[slot] != _K_CB or self._gen[slot] != (handle >> 32)
                or self.fns[slot] is None):
            return False
        # An in-flight slot (popped, mid-dispatch, not yet released) still
        # looks live on the slab; it is nonetheless beyond reach, exactly
        # like the reference's already-materialized batch.  Rare op,
        # so the O(batch) scan is fine.
        for batch in self.inflight:
            if slot in batch:
                return False
        self.fns[slot] = None
        self.args[slot] = None
        return True

    # ------------------------------------------------------------------
    # Container protocol

    def __len__(self) -> int:
        """Pending records — live *plus* lazily-cancelled, the same count
        ``len()`` of the reference's heap reports."""
        return self._n_records

    def __bool__(self) -> bool:
        return self._n_records > 0
