"""Hybrid lockset + happens-before race detector.

A :class:`RaceDetector` is a :class:`~repro.runtime.instrument.Probe` that
watches the policy core's shared-state accesses (deque slot contents,
occupancy mask/counter updates, finish-scope pending counts) and reports
pairs of accesses that could race on a real multiprocessor:

- **Locksets** (Eraser-style): each access records the set of tracked locks
  its logical thread held. Two accesses to the same location from different
  threads, at least one a write, with *disjoint* locksets are a candidate
  race.
- **Happens-before** (vector clocks): candidates are discarded when a true
  synchronization edge orders them. Crucially, *lock acquire/release do NOT
  create happens-before edges here* — under the cooperative interleaving
  executor every instruction is serialized, so lock-induced HB would order
  everything and hide every real race. Only genuine payload-carrying sync
  operations do: promise satisfaction (release) to future observation
  (acquire), which is how the runtime publishes results across threads.

This is the hybrid design of O'Callahan & Choi: locksets supply coverage
(one witnessed schedule implies races in many), happens-before supplies
precision (message-passing idioms aren't flagged).

The detector also tracks :class:`~repro.runtime.finish.FinishScope`
lifetimes for the leak invariant, and keeps a *benign-read whitelist*: the
policy core deliberately reads ``PlaceDeques.mask``/``ready`` without a lock
(bounded-stale by design, see ``docs/concurrency.md``); those reads are
counted but never reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.runtime.context import current_context
from repro.runtime.instrument import Location, Probe

#: (kind, field) pairs whose lock-free *reads* are documented benign.
DEFAULT_BENIGN_READS = frozenset({
    ("place", "mask"),
    ("place", "ready"),
})

#: Thread id for probe events fired outside any task (engine/timer context).
ENGINE_TID = "@engine"


@dataclass(frozen=True)
class Access:
    """One recorded access to a shared location."""

    tid: Any
    vc: Dict[Any, int]
    locks: FrozenSet[int]
    is_write: bool
    step: int

    def __str__(self) -> str:
        kind = "write" if self.is_write else "read"
        held = ("{" + ", ".join(f"#{l}" for l in sorted(self.locks)) + "}"
                if self.locks else "{}")
        return f"{kind} by {self.tid} at step {self.step}, locks {held}"


@dataclass
class RaceReport:
    """Two unordered, lockset-disjoint accesses to one location."""

    loc: Location
    first: Access
    second: Access

    def describe(self) -> str:
        kind, obj, fld = self.loc
        return (
            f"race on {kind} {obj!r} field {fld!r}:\n"
            f"    {self.first}\n"
            f"    {self.second}\n"
            f"    (no common lock, no happens-before edge)"
        )


def _current_tid() -> Any:
    ctx = current_context()
    if ctx is not None and ctx.worker is not None:
        return ("w", ctx.worker.rank, ctx.worker.wid)
    return ENGINE_TID


class RaceDetector(Probe):
    """Hybrid lockset/happens-before detector over instrument hook events.

    One detector observes one run; install it with
    :func:`repro.runtime.instrument.probed`. Reports accumulate in
    :attr:`races` (deduplicated per location/thread-pair/access-kind so a
    racy loop doesn't bury the output).
    """

    def __init__(self, benign_reads: Optional[Set[Tuple[str, str]]] = None):
        self.benign_reads = (DEFAULT_BENIGN_READS if benign_reads is None
                             else frozenset(benign_reads))
        self.races: List[RaceReport] = []
        self.benign_suppressed = 0
        self.accesses_seen = 0
        self._step = 0
        # per logical thread
        self._vc: Dict[Any, Dict[Any, int]] = {}
        self._held: Dict[Any, Set[int]] = {}
        # per sync key: joined clock of all releases so far
        self._sync_vc: Dict[Any, Dict[Any, int]] = {}
        # per location: last write / last read per thread
        self._last_write: Dict[Location, Dict[Any, Access]] = {}
        self._last_read: Dict[Location, Dict[Any, Access]] = {}
        self._reported: Set[Tuple] = set()
        # scope leak tracking
        self._open_scopes: Dict[int, Any] = {}
        self.scopes_created = 0
        # CPython reuses id() of freed objects, so "scope" locations keyed by
        # raw id would conflate a dead scope with a new one at the same
        # address (distinct locks -> false disjoint-lockset race). Translate
        # raw ids to a per-creation generation id via on_scope_created.
        self._scope_gen: Dict[int, int] = {}

    # -- thread-state helpers -------------------------------------------
    def _clock(self, tid: Any) -> Dict[Any, int]:
        vc = self._vc.get(tid)
        if vc is None:
            vc = {tid: 0}
            self._vc[tid] = vc
        return vc

    @staticmethod
    def _happens_before(earlier: Access, later_vc: Dict[Any, int]) -> bool:
        """True iff ``earlier`` is ordered before the thread state with
        clock ``later_vc`` by the recorded synchronization edges."""
        return earlier.vc.get(earlier.tid, 0) <= later_vc.get(earlier.tid, -1)

    # -- Probe: locks (locksets ONLY, never happens-before) -------------
    def on_lock_acquire(self, lock) -> None:
        self._held.setdefault(_current_tid(), set()).add(lock.lid)

    def on_lock_release(self, lock) -> None:
        held = self._held.get(_current_tid())
        if held is not None:
            held.discard(lock.lid)

    # -- Probe: true synchronization (happens-before edges) -------------
    def on_sync_release(self, key: Any) -> None:
        tid = _current_tid()
        vc = self._clock(tid)
        vc[tid] = vc.get(tid, 0) + 1
        joined = self._sync_vc.setdefault(key, {})
        for t, c in vc.items():
            if c > joined.get(t, -1):
                joined[t] = c

    def on_sync_acquire(self, key: Any) -> None:
        src = self._sync_vc.get(key)
        if not src:
            return
        vc = self._clock(_current_tid())
        for t, c in src.items():
            if c > vc.get(t, -1):
                vc[t] = c

    # -- Probe: shared-state accesses ------------------------------------
    def on_access(self, loc: Location, is_write: bool,
                  benign: bool = False) -> None:
        self.accesses_seen += 1
        if not is_write and (loc[0], loc[2]) in self.benign_reads:
            self.benign_suppressed += 1
            return
        if loc[0] == "scope":
            loc = ("scope", self._scope_gen.get(loc[1], loc[1]), loc[2])
        tid = _current_tid()
        self._step += 1
        acc = Access(
            tid=tid,
            vc=dict(self._clock(tid)),
            locks=frozenset(self._held.get(tid) or ()),
            is_write=is_write,
            step=self._step,
        )
        # A write races with prior reads AND writes; a read only with writes.
        self._check(loc, acc, self._last_write.get(loc))
        if is_write:
            self._check(loc, acc, self._last_read.get(loc))
            self._last_write.setdefault(loc, {})[tid] = acc
        else:
            self._last_read.setdefault(loc, {})[tid] = acc

    def _check(self, loc: Location, acc: Access,
               prior: Optional[Dict[Any, Access]]) -> None:
        if not prior:
            return
        for tid, old in prior.items():
            if tid == acc.tid:
                continue
            if acc.locks & old.locks:
                continue  # a common lock serializes them
            if self._happens_before(old, acc.vc):
                continue  # a sync edge orders them
            key = (loc, *sorted((str(old.tid), str(acc.tid))),
                   old.is_write, acc.is_write)
            if key in self._reported:
                continue
            self._reported.add(key)
            self.races.append(RaceReport(loc=loc, first=old, second=acc))

    # -- Probe: finish-scope lifetimes -----------------------------------
    def on_scope_created(self, scope: Any) -> None:
        self.scopes_created += 1
        self._scope_gen[id(scope)] = self.scopes_created
        self._open_scopes[id(scope)] = scope

    def on_scope_closed(self, scope: Any) -> None:
        self._open_scopes.pop(id(scope), None)

    def leaked_scopes(self) -> List[Any]:
        """Scopes created but never closed, excluding the per-rank daemon
        scopes that live for the runtime's whole lifetime by design."""
        return [
            s for s in self._open_scopes.values()
            if not (getattr(s, "name", "") or "").startswith("daemon-")
        ]
