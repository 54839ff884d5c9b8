"""Current-execution context: which (executor, runtime, worker, task) is
running on this OS thread right now.

Both executors maintain this context:

- the threaded executor has one OS thread per worker, so the context is a
  plain thread-local;
- the simulated executor multiplexes every simulated worker onto one OS
  thread and *stacks* contexts when it context-switches mid-``block_until``
  (help-first blocking re-enters the engine loop).

User-facing API functions (:mod:`repro.runtime.api`) resolve the current
context to know where to spawn, charge, and block.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Optional

from repro.util.errors import RuntimeStateError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.base import Executor
    from repro.runtime.runtime import HiperRuntime
    from repro.runtime.task import Task
    from repro.runtime.worker import WorkerState


class ExecContext:
    """Immutable-ish snapshot of who is executing."""

    __slots__ = ("executor", "runtime", "worker", "task")

    def __init__(
        self,
        executor: "Executor",
        runtime: Optional["HiperRuntime"] = None,
        worker: Optional["WorkerState"] = None,
        task: Optional["Task"] = None,
    ):
        self.executor = executor
        self.runtime = runtime
        self.worker = worker
        self.task = task


class _ContextStack(threading.local):
    def __init__(self):
        self.stack = []


_tls = _ContextStack()


def push_context(ctx: ExecContext) -> None:
    _tls.stack.append(ctx)


def pop_context() -> ExecContext:
    if not _tls.stack:
        raise RuntimeStateError("context stack underflow (internal error)")
    return _tls.stack.pop()


def current_context() -> Optional[ExecContext]:
    """The innermost active context on this OS thread, or ``None``."""
    return _tls.stack[-1] if _tls.stack else None


def require_context() -> ExecContext:
    ctx = current_context()
    if ctx is None:
        raise RuntimeStateError(
            "this API must be called from inside a HiPER task or rank main "
            "(no active runtime context on this thread)"
        )
    return ctx


def context_depth() -> int:
    return len(_tls.stack)


class scoped_context:
    """``with scoped_context(ctx): ...`` — push/pop with exception safety.

    Inlines the stack access (rather than calling push_context/pop_context):
    this wraps every task segment, so two saved function calls per task are
    measurable on the dispatch hot path.
    """

    __slots__ = ("_ctx",)

    def __init__(self, ctx: ExecContext):
        self._ctx = ctx

    def __enter__(self) -> ExecContext:
        ctx = self._ctx
        _tls.stack.append(ctx)
        return ctx

    def __exit__(self, *exc) -> None:
        _tls.stack.pop()

