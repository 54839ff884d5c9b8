"""Data handles: named, versioned data the task graph tracks accesses on.

A :class:`DataHandle` wraps one payload (typically a numpy array, but any
object works) and carries the per-datum dependency state the graph's access
rules read and update — the Specx/StarPU "data" half of the task-graph
model:

- ``version``: the committed write count. Every completed write-mode access
  (``write``, ``commute``, ``maybe_write``) bumps it, so the sequence of
  writers forms the datum's *version chain* and a node's declared accesses
  pin it to a position in that chain.
- the *current writer* (the node of the last write-mode access) and the
  *readers since that writer* — exactly the state needed to infer
  read-after-write, write-after-read, and write-after-write edges.
- the open *commute run*, when the most recent accesses are ``commute``:
  a set of tasks that all depend on the same base state, may run in any
  order, but are mutually serialized (see :class:`CommuteRun`).
- ``residence``: which device kind ("cpu"/"gpu") the cost model believes
  currently holds the bytes — fed into dmda's transfer-time estimates.

Handles are created via :meth:`repro.taskgraph.TaskGraph.handle` and are
owned by exactly one graph; task bodies read ``handle.data`` and assign or
mutate it in place. All dependency fields are graph-internal (guarded by
the graph's lock) — applications only touch ``data``/``name``/``version``.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.taskgraph.graph import TaskNode


class CommuteRun:
    """One open run of commute accesses on a datum.

    Every member depends on the same ``base_deps`` (the writer + readers at
    the moment the run opened), so members become *ready* independently —
    but they share one serialization slot (``busy``): a member executes only
    while holding it, and the slot is granted in **readiness-arrival order**,
    not submission order. That gap is the observable commute reordering: a
    cheap producer's accumulate step may run before an expensive earlier
    one's, which a plain ``write`` chain would forbid.

    The first non-commute access closes the run; the run's members
    collectively become "the writer" for that successor (:class:`RunJoin`).
    """

    __slots__ = ("base_deps", "members", "busy", "pending", "granted", "cursor")

    def __init__(self, base_deps: List[Any]):
        self.base_deps = base_deps
        #: every member submitted into the run, in submission order
        self.members: List["TaskNode"] = []
        #: the member currently holding the serialization slot (or None)
        self.busy: Optional["TaskNode"] = None
        #: ready members waiting for the slot: (node, resume_index) FIFO
        self.pending: Deque[Tuple["TaskNode", int]] = deque()
        #: members that have been granted the slot
        self.granted: set = set()
        #: index of the first member not in ``granted``; only moves up
        self.cursor = 0

    def grant(self, node: "TaskNode") -> bool:
        """Hand the free slot to ``node``; True on a reorder: the first
        member that has not had it yet is not ``node`` but an earlier one.
        Each member passes the cursor once — amortised O(1) per grant."""
        self.busy = node
        self.granted.add(node)
        members, i = self.members, self.cursor
        reordered = members[i] is not node
        while i < len(members) and members[i] in self.granted:
            i += 1
        self.cursor = i
        return reordered


class Releasable:
    """Release state of anything a node can wait for: a ``TaskNode`` or a
    :class:`RunJoin` (guarded by the graph's lock)."""

    __slots__ = ("npending", "succs", "exc", "completed", "stamp")

    def __init__(self) -> None:
        #: predecessors that have not finished yet
        self.npending = 0
        #: dependents in registration order: ``()`` until the first one
        #: registers, None once they are released
        self.succs: Any = ()
        #: the failure it finished with (before: an already-failed pred's)
        self.exc: Optional[BaseException] = None
        self.completed = False
        #: seq of the last node registered behind this one (edge dedupe)
        self.stamp = -1

    def after(self, pred: "Releasable") -> None:
        """Make ``pred`` a predecessor. One that already failed fails this
        fast (its creator sees ``exc``), pinned against being released."""
        succs = pred.succs
        if succs is not None:
            if succs:
                succs.append(self)
            else:
                pred.succs = [self]
            self.npending += 1
        elif self.exc is None and pred.exc is not None:
            self.exc = pred.exc
            self.npending += 1

    def release(self, exc: Optional[BaseException],
                out: List["TaskNode"]) -> None:
        """Finished, with ``exc`` or cleanly. Collect, in registration
        order, the dependent nodes now ready — or, with ``exc``, failing
        fast; a join that completes passes the news on in place."""
        self.completed, self.exc = True, exc
        succs, self.succs = self.succs, None
        for s in succs:
            if s.completed:
                continue
            if exc is None:
                s.npending -= 1
                if s.npending:
                    continue
            if type(s) is RunJoin:
                s.release(exc, out)
            else:
                out.append(s)


class RunJoin(Releasable):
    """A closed run of several members, standing where a writer node would:
    complete with its last member, or at once with the first failure."""

    __slots__ = ()

    #: a run is never speculated past
    maybe_writes: Tuple = ()

    def __init__(self, members: List["TaskNode"]):
        super().__init__()
        for m in members:
            self.after(m)
        if self.exc is not None or self.npending == 0:
            self.completed, self.succs = True, None


class DataHandle:
    """A named, versioned datum registered with one :class:`TaskGraph`."""

    __slots__ = ("graph", "name", "data", "version", "residence",
                 "writer", "readers", "run", "spec_fallback")

    def __init__(self, graph: Any, payload: Any, name: str):
        self.graph = graph
        self.name = name
        #: the payload task bodies read and write
        self.data = payload
        #: committed write count (length of the version chain so far)
        self.version = 0
        #: device kind the cost model tracks the bytes on ("cpu"/"gpu")
        self.residence = "cpu"
        # --- graph-internal dependency state (guarded by graph._lock) ---
        #: last write-mode access: a node, or the join of a closed run
        self.writer: Any = None
        self.readers: List["TaskNode"] = []
        self.run: Optional[CommuteRun] = None
        #: the writer superseded by the current one — what a reader that
        #: speculates past an uncertain writer must still wait for
        self.spec_fallback: Any = None

    @property
    def nbytes(self) -> int:
        """Payload size the transfer model charges for (0 if unsized)."""
        return int(getattr(self.data, "nbytes", 0) or 0)

    def __repr__(self) -> str:
        return (f"DataHandle({self.name!r}, v{self.version}, "
                f"{type(self.data).__name__})")
