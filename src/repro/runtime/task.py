"""Tasks: suspendable single-threaded streams of execution (paper §II-B1).

A task wraps a Python callable. If the callable returns a *generator*, the
task is a *coroutine task*: the worker drives it with ``send`` and the task
may suspend by yielding a :class:`~repro.runtime.future.Future` (the value
sent back on resume is the future's value). Yielding ``None`` is a
cooperative re-schedule. This is the reproduction's substitute for the
paper's Boost.Context call-stack swapping: a coroutine task that blocks
releases its worker entirely.

Plain callables may still block (``future.wait()``, ``finish``); the executor
then keeps the worker useful via help-until-ready (see ``Executor.block_until``).
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, Any, Callable, Optional, Tuple

from repro.runtime.future import Future, Promise
from repro.util.errors import RuntimeStateError

if TYPE_CHECKING:  # pragma: no cover
    from repro.platform.place import Place
    from repro.runtime.finish import FinishScope

_task_ids = itertools.count()


class TaskState(enum.Enum):
    CREATED = "created"
    READY = "ready"
    RUNNING = "running"
    SUSPENDED = "suspended"
    DONE = "done"
    FAILED = "failed"


class Task:
    """One schedulable unit.

    Attributes
    ----------
    place:
        The place whose deques hold this task while ready.
    created_by:
        Worker index whose deque slot the task occupies (paper §II-B2: the
        i-th deque at a place holds tasks spawned by worker i).
    scope:
        Enclosing :class:`FinishScope`, charged at spawn and discharged at
        completion (including transitive failure propagation).
    cost:
        Simulated compute seconds charged when the task body runs (on top of
        any explicit ``charge()`` calls inside the body). Ignored by the
        threaded executor.
    result_promise:
        Set for ``async_future``-style tasks; satisfied with the body's
        return value (or its exception) at completion.
    release_time:
        Virtual time at which the task became ready (set on enqueue); a
        worker popping it advances its clock to at least this time.
    """

    __slots__ = (
        "task_id", "fn", "args", "kwargs", "_name", "module", "place",
        "created_by", "scope", "cost", "result_promise", "state", "gen",
        "_send_value", "_send_exc", "release_time", "rank", "active_scope",
        "attempts", "epilogue", "slab_slot", "slab_gen",
    )

    def __init__(
        self,
        fn: Callable[..., Any],
        args: Tuple = (),
        kwargs: Optional[dict] = None,
        name: str = "",
        module: str = "core",
        place: Optional["Place"] = None,
        created_by: int = 0,
        scope: Optional["FinishScope"] = None,
        cost: float = 0.0,
        result_promise: Optional[Promise] = None,
        rank: int = 0,
    ):
        if not callable(fn):
            raise TypeError(f"task body must be callable, got {type(fn)!r}")
        if cost < 0:
            raise ValueError(f"task cost must be non-negative, got {cost}")
        self.task_id = next(_task_ids)
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        self._name = name  # resolved lazily from fn when empty (hot path)
        self.module = module
        self.place = place
        self.created_by = created_by
        self.scope = scope
        self.cost = cost
        self.result_promise = result_promise
        self.state = TaskState.CREATED
        self.gen = None  # generator, once started, for coroutine tasks
        self._send_value: Any = None
        self._send_exc: Optional[BaseException] = None
        self.release_time: float = 0.0
        self.rank = rank
        #: Innermost open finish scope while this task executes; ``finish``
        #: and ``begin_finish``/``end_finish`` push/pop it. Spawns performed
        #: by this task register with this scope.
        self.active_scope = scope
        #: Execution attempts so far; > 0 marks a task replayed after a
        #: place/worker failure (resilience subsystem).
        self.attempts = 0
        #: Optional ``(task, exc_or_None)`` callback invoked after the scope
        #: is discharged — resilience telemetry, never failure routing.
        self.epilogue = None
        #: Slab bookkeeping (``TaskSlab``): -1 == not slab-managed. The
        #: generation counts tenancies of the slot, so a handle captured for
        #: one tenancy can never resolve to a recycled record.
        self.slab_slot = -1
        self.slab_gen = 0

    @property
    def name(self) -> str:
        """Task name for diagnostics/tracing; derived from the body's
        ``__name__`` on first read so unnamed hot-path spawns never pay the
        getattr."""
        n = self._name
        if not n:
            n = getattr(self.fn, "__name__", "task")
            self._name = n
        return n

    # -- coroutine plumbing (used by executors) -------------------------
    def start_body(self) -> Any:
        """Invoke the body. Returns the body's value, or the generator if the
        body is a coroutine (caller must then drive it via :meth:`step`)."""
        self.state = TaskState.RUNNING
        if self.kwargs:
            return self.fn(*self.args, **self.kwargs)
        return self.fn(*self.args)

    def step(self) -> Tuple[bool, Any]:
        """Advance a coroutine task one hop.

        Returns ``(finished, payload)``: if finished, payload is the return
        value; otherwise payload is the yielded object (a Future or ``None``).
        """
        if self.gen is None:
            raise RuntimeStateError(f"task {self.name} is not a coroutine task")
        self.state = TaskState.RUNNING
        try:
            if self._send_exc is not None:
                exc, self._send_exc = self._send_exc, None
                yielded = self.gen.throw(exc)
            else:
                value, self._send_value = self._send_value, None
                yielded = self.gen.send(value)
        except StopIteration as stop:
            return True, stop.value
        return False, yielded

    def prepare_resume(self, fut: Future) -> None:
        """Capture the satisfied future's value/exception for the next step."""
        try:
            self._send_value = fut.value()
        except BaseException as exc:
            self._send_exc = exc

    def describe(self) -> str:
        where = self.place.name if self.place is not None else "?"
        return f"task#{self.task_id} {self.name!r} [{self.module}] at {where} (rank {self.rank})"

    def __repr__(self) -> str:
        return f"<{self.describe()} {self.state.value}>"


class TaskSlab:
    """Recycling pool of :class:`Task` records (the BufferPool idiom applied
    to tasks; counterpart of the event slab in
    ``repro.exec.eventq``).

    The deterministic simulator churns through one short-lived ``Task``
    object per spawn; at paper-scale rank counts the allocator traffic is a
    measurable slice of the dispatch hot path. The slab keeps every record
    it ever created in ``_records`` (indexed by the record's permanent
    ``slab_slot``) and reuses completed ones: :meth:`acquire` re-initializes
    a pooled record in place — with a *fresh* ``task_id``, so traces,
    digests, and diagnostics are indistinguishable from freshly-constructed
    tasks — and bumps its ``slab_gen`` tenancy counter.

    Release discipline (enforced by the caller, ``SimExecutor._run_task``):
    only DONE/FAILED tasks whose execution just returned may be released —
    suspended coroutines, re-enqueued tasks, and tasks failed outside the
    run path are still referenced elsewhere and simply fall out of the
    slab's working set (their slots are never pooled).

    :meth:`get` resolves a generation-tagged handle
    (``(slab_gen << 32) | slab_slot``) to the record iff the tenancy that
    produced the handle is still live — a recycled or stale handle returns
    None instead of aliasing an unrelated task.
    """

    __slots__ = ("_records", "_free", "acquired", "recycled", "released")

    def __init__(self) -> None:
        self._records: list = []
        self._free: list = []
        self.acquired = 0
        self.recycled = 0
        self.released = 0

    def acquire(
        self,
        fn: Callable[..., Any],
        args: Tuple = (),
        kwargs: Optional[dict] = None,
        name: str = "",
        module: str = "core",
        place: Optional["Place"] = None,
        created_by: int = 0,
        scope: Optional["FinishScope"] = None,
        cost: float = 0.0,
        result_promise: Optional[Promise] = None,
        rank: int = 0,
    ) -> Task:
        """A ready-to-enqueue Task record, pooled if one is free."""
        self.acquired += 1
        free = self._free
        if not free:
            t = Task(fn, args, kwargs, name, module, place, created_by,
                     scope, cost, result_promise, rank)
            t.slab_slot = len(self._records)
            self._records.append(t)
            return t
        t = self._records[free.pop()]
        self.recycled += 1
        t.slab_gen += 1
        # Field-for-field mirror of Task.__init__ (kept inline: a shared
        # re-init helper would put an extra call on the spawn hot path).
        if not callable(fn):
            raise TypeError(f"task body must be callable, got {type(fn)!r}")
        if cost < 0:
            raise ValueError(f"task cost must be non-negative, got {cost}")
        t.task_id = next(_task_ids)
        t.fn = fn
        t.args = args
        t.kwargs = kwargs
        t._name = name
        t.module = module
        t.place = place
        t.created_by = created_by
        t.scope = scope
        t.cost = cost
        t.result_promise = result_promise
        t.state = TaskState.CREATED
        t.gen = None
        t._send_value = None
        t._send_exc = None
        t.release_time = 0.0
        t.rank = rank
        t.active_scope = scope
        t.attempts = 0
        t.epilogue = None
        return t

    def release(self, task: Task) -> None:
        """Return a finished record to the pool and drop its references."""
        if task.slab_slot < 0 or task.fn is None:
            # Not slab-managed, or already released (fn is never None on a
            # live record — Task.__init__/acquire validate it's callable).
            return
        self.released += 1
        task.fn = None
        task.args = ()
        task.kwargs = None
        task.gen = None
        task.scope = None
        task.active_scope = None
        task.result_promise = None
        task.epilogue = None
        task.place = None
        task._send_value = None
        task._send_exc = None
        self._free.append(task.slab_slot)

    def get(self, handle: int) -> Optional[Task]:
        """Resolve a generation-tagged handle; None if stale or released."""
        slot = handle & 0xFFFFFFFF
        records = self._records
        if not 0 <= slot < len(records):
            return None
        t = records[slot]
        if t.slab_gen != (handle >> 32) or t.fn is None:
            return None
        return t

    @staticmethod
    def handle_of(task: Task) -> int:
        """The generation-tagged handle for a slab-managed record."""
        return (task.slab_gen << 32) | task.slab_slot

    def __len__(self) -> int:
        return len(self._records)
