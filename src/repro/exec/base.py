"""Executor interface: what drives workers.

The scheduling *policy* (deques, paths, finish, futures) is engine-agnostic;
an :class:`Executor` supplies the *mechanism*: how workers loop, how time
advances, how blocked tasks keep their worker useful, and how timers fire.

Two implementations ship:

- :class:`repro.exec.sim.SimExecutor` — deterministic virtual-time
  discrete-event engine; the vehicle for all performance evaluation (the
  paper ran on Cray hardware; under the CPython GIL only virtual time gives
  meaningful scheduling measurements — see DESIGN.md §2).
- :class:`repro.exec.threaded.ThreadedExecutor` — one OS thread per worker;
  validates that the policy core is thread-safe and provides real
  concurrency for single-rank usage.
"""

from __future__ import annotations

import abc
import threading
from types import GeneratorType
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.runtime.context import ExecContext, _tls
from repro.runtime.future import Future
from repro.runtime.task import Task, TaskState
from repro.util.errors import HiperError

if TYPE_CHECKING:  # pragma: no cover
    from repro.platform.place import Place
    from repro.runtime.runtime import HiperRuntime
    from repro.runtime.worker import WorkerState

class Executor(abc.ABC):
    """Engine contract shared by the simulated and threaded executors."""

    #: "sim" or "threads"; modules may branch on this (e.g. poll intervals).
    mode: str = "abstract"

    #: Lock class protecting engine-adjacent shared state (deque slots,
    #: occupancy indexes, polling services). The single-threaded simulated
    #: executor overrides this with :class:`repro.runtime.deques.NullLock`,
    #: eliding all lock traffic from the scheduling hot path.
    lock_class: type = threading.Lock

    #: Whether the runtime must call :meth:`notify` on *every* enqueue, or
    #: only when a deque slot flips from empty to non-empty. Engines with
    #: exact occupancy tracking and no parking races (the simulated executor)
    #: set this False: while a slot stays occupied, every worker that could
    #: take from it is provably still maybe-ready.
    notify_on_every_push: bool = True

    #: Optional :class:`repro.tools.TraceRecorder`; set via attach_tracer.
    tracer = None

    #: Optional fault-injection hook (``repro.resilience``): called with the
    #: task before its body first runs; raising fails the task through the
    #: normal ``_fail`` path. None in production — one attribute load + None
    #: test per fresh task is the entire no-fault cost.
    task_fault_hook = None

    def attach_tracer(self, tracer) -> None:
        """Record every executed task segment into ``tracer`` (paper §V
        tooling: the unified scheduler sees all work, so one hook covers
        every module)."""
        self.tracer = tracer

    def pending_events(self) -> int:
        """Pending engine events/timers (telemetry: event-queue depth)."""
        return 0

    # -- lifecycle ----------------------------------------------------------
    @abc.abstractmethod
    def register_runtime(self, runtime: "HiperRuntime") -> None:
        """Attach one runtime (one rank) to this executor."""

    @abc.abstractmethod
    def shutdown(self) -> None:
        """Stop workers and release resources. Idempotent."""

    # -- time ------------------------------------------------------------
    @abc.abstractmethod
    def now(self) -> float:
        """Current time: the running worker's virtual clock (sim) or wall
        time since executor start (threads)."""

    @abc.abstractmethod
    def charge(self, seconds: float) -> None:
        """Account ``seconds`` of simulated compute to the current worker.

        The threaded executor only adds it to the worker's clock as busy
        time (real work takes real time there). Must be called from inside a
        task.
        """

    # -- scheduling hooks -------------------------------------------------
    @abc.abstractmethod
    def notify(self, runtime: "HiperRuntime", place: "Place",
               created_by: Optional[int] = None) -> None:
        """A task became ready at ``place``; wake candidate workers.

        ``created_by`` (the spawning worker id, when known) lets engines wake
        precisely: only worker ``created_by`` can *pop* the task, and only
        workers with ``place`` on their steal path can *steal* it."""

    @abc.abstractmethod
    def block_until(
        self,
        predicate: Callable[[], bool],
        description: str = "",
        time_source: Optional[Callable[[], float]] = None,
    ) -> None:
        """Block the *current task* until ``predicate()`` is true without
        idling its worker (help-until-ready). ``time_source``, if given,
        reports the timestamp at which the condition became true; engines
        MUST advance the blocked worker's clock to it on return
        (``worker.advance_clock_to(time_source())``), so blocked-time
        accounting stays comparable across engines. On the simulated engine
        the timestamp is virtual; on the threaded engine it is wall-seconds
        since executor start. Either way the wait moves ``clock`` and
        ``idle_time`` together, so the worker's ``busy_time`` is unchanged.
        """

    @abc.abstractmethod
    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` after ``delay`` (virtual or wall) seconds, outside any
        task context. Used by polling services and timeout modelling."""

    @abc.abstractmethod
    def run_root(self, runtime: "HiperRuntime", fn: Callable[[], Any], *,
                 name: str = "root") -> Any:
        """Spawn ``fn`` as a root task on ``runtime``, drive the engine until
        it (and everything it transitively spawned) completes, and return its
        value. This is the external entry point used by ``HiperRuntime.run``."""

    # -- shared task-execution machinery ------------------------------------
    def execute_task(self, runtime: "HiperRuntime", worker: "WorkerState",
                     task: Task) -> None:
        """Run one task (or one segment of a coroutine task) on ``worker``.

        Shared by both executors; engine-specific accounting happens in the
        :meth:`on_task_start` hook.
        """
        # Context push/pop inlined (vs scoped_context): this wraps every task
        # segment, and the thread-local stack access must happen per call (the
        # threaded engine has one stack per OS thread).
        stack = _tls.stack
        stack.append(ExecContext(self, runtime, worker, task))
        tracer = self.tracer
        try:
            t0 = self.now() if tracer is not None else 0.0
            self.on_task_start(worker, task)
            worker.tasks_run += 1
            try:
                if task.gen is None:
                    fault_hook = self.task_fault_hook
                    if fault_hook is not None:
                        fault_hook(task)
                    result = task.start_body()
                    if type(result) is GeneratorType:
                        task.gen = result
                        self._drive_coroutine(runtime, task)
                    else:
                        self._complete(runtime, task, result)
                else:
                    self._drive_coroutine(runtime, task)
            except BaseException as exc:  # noqa: BLE001 - boundary by design
                self._fail(runtime, task, exc)
            finally:
                if tracer is not None:
                    t1 = self.now()
                    tracer.record(task.rank, worker.wid, task.module,
                                  task.name, t0, t1,
                                  task_id=task.task_id)
                    runtime.stats.time(task.module, "task", t1 - t0)
        finally:
            stack.pop()

    def _drive_coroutine(self, runtime: "HiperRuntime", task: Task) -> None:
        while True:
            finished, payload = task.step()
            if finished:
                self._complete(runtime, task, payload)
                return
            if payload is None:
                # Cooperative yield: go to the back of the line.
                task.state = TaskState.READY
                runtime.reenqueue(task)
                return
            if isinstance(payload, Future):
                if payload.satisfied:
                    task.prepare_resume(payload)
                    continue
                task.state = TaskState.SUSPENDED
                runtime.suspends += 1
                payload.on_ready(_make_resumer(runtime, task))
                return
            raise HiperError(
                f"coroutine task {task.name!r} yielded {type(payload).__name__}; "
                "only Future or None may be yielded"
            )

    def _complete(self, runtime: "HiperRuntime", task: Task, result: Any) -> None:
        task.state = TaskState.DONE
        if task.result_promise is not None:
            task.result_promise.put(result)
        if task.scope is not None:
            task.scope.task_completed(None)
        runtime.tasks_completed += 1
        ep = task.epilogue
        if ep is not None:
            ep(task, None)

    def _fail(self, runtime: "HiperRuntime", task: Task, exc: BaseException) -> None:
        task.state = TaskState.FAILED
        runtime.stats.count("core", "tasks_failed")
        if task.result_promise is not None:
            # The consumer of the future owns the failure.
            task.result_promise.put_exception(exc)
            if task.scope is not None:
                task.scope.task_completed(None)
        elif task.scope is not None:
            task.scope.task_completed(exc)
        else:  # pragma: no cover - root tasks always have a scope
            raise exc
        ep = task.epilogue
        if ep is not None:
            ep(task, exc)

    # -- engine-specific accounting hook -----------------------------------
    def on_task_start(self, worker: "WorkerState", task: Task) -> None:
        """Called just before a task body/segment runs (override to charge
        task cost, advance clocks, record stats)."""


def _make_resumer(runtime: "HiperRuntime", task: Task):
    def _resume(fut: Future) -> None:
        task.prepare_resume(fut)
        task.state = TaskState.READY
        runtime.resumes += 1
        runtime.reenqueue(task)

    return _resume
