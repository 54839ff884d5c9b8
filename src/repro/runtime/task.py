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
        "attempts", "epilogue",
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
        if not cost >= 0:  # NaN too: it would poison the worker clock
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
