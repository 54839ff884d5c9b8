"""The HiPER runtime facade: one instance per rank.

Owns the platform model copy, the deque table, worker states, installed
modules, the module-extensible operation namespace (paper §II-C item 4), and
copy-handler registrations (item 3). Task-creation APIs with the paper's
spellings live in :mod:`repro.runtime.api`; they resolve the ambient runtime
from the execution context and delegate to :meth:`HiperRuntime.spawn`.
"""

from __future__ import annotations

import types
from collections import defaultdict
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.platform.model import PlatformModel
from repro.platform.paths import WorkerPaths, make_paths
from repro.platform.place import Place, PlaceType
from repro.runtime.context import _tls
from repro.runtime.deques import DequeTable
from repro.runtime.finish import FinishScope
from repro.runtime.future import Future, Promise
from repro.runtime.task import Task, TaskState
from repro.runtime.worker import WorkerState
from repro.util.errors import (ConfigError, ModuleError, PlaceFailure,
                               RuntimeStateError)
from repro.util.rng import RngFactory
from repro.util.stats import RuntimeStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.exec.base import Executor
    from repro.modules.base import HiperModule

CopyHandler = Callable[..., Future]


class HiperRuntime:
    """Generalized work-stealing runtime over a platform model (paper §II-B)."""

    def __init__(
        self,
        model: PlatformModel,
        executor: "Executor",
        paths: Union[str, WorkerPaths] = "default",
        rank: int = 0,
        nranks: int = 1,
        seed: int = 0,
        path_kwargs: Optional[dict] = None,
    ):
        model.validate()
        self.model = model.freeze()
        self.executor = executor
        self.rank = rank
        self.nranks = nranks
        self.rng_factory = RngFactory(seed).spawn("rank", rank)
        self.stats = RuntimeStats()
        #: Per-task tallies, read by :meth:`_collect` only when the stats
        #: are: tasks spawned per module, completed, suspended and resumed.
        self.spawned: Dict[str, int] = defaultdict(int)
        self.tasks_completed = self.suspends = self.resumes = 0
        self.stats.register(self._collect)
        self.num_workers = model.num_workers

        if isinstance(paths, str):
            paths = make_paths(model, paths, **(path_kwargs or {}))
        paths.validate(model)
        if paths.num_workers != model.num_workers:
            raise ConfigError(
                f"paths for {paths.num_workers} workers but model declares "
                f"{model.num_workers}"
            )
        self.paths = paths

        # The executor supplies the lock discipline: real locks under the
        # threaded engine, no-op locks (and lock-free deque slots) under the
        # single-threaded simulated engine.
        self.deques = DequeTable(model, lock_cls=executor.lock_class)
        self._notify_every_push = executor.notify_on_every_push
        self.workers: List[WorkerState] = [
            WorkerState(
                w, rank, self, paths.pop[w], paths.steal[w],
                self.rng_factory.stream("steal", w),
            )
            for w in range(model.num_workers)
        ]

        self.modules: Dict[str, "HiperModule"] = {}
        #: Module-injected user-facing functions: ``rt.ops.MPI_Send(...)``.
        self.ops = types.SimpleNamespace()
        self._copy_handlers: Dict[Tuple[PlaceType, PlaceType], CopyHandler] = {}
        self._started = False
        self._shutdown = False
        self._daemon_scope: Optional[FinishScope] = None
        # Resilience redirect tables — empty in healthy runs; _enqueue pays
        # one flag test until a failure is injected (repro.resilience).
        self._redirects_active = False
        self._dead_places: Dict[int, Place] = {}   # place_id -> fallback
        self._worker_redirect: Dict[int, int] = {}  # dead wid -> live wid

        executor.register_runtime(self)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, modules: Sequence["HiperModule"] = ()) -> "HiperRuntime":
        """Initialize the runtime and its pluggable modules (paper §II-C)."""
        if self._started:
            raise RuntimeStateError("runtime already started")
        self._started = True
        for mod in modules:
            self.install(mod)
        return self

    def install(self, module: "HiperModule") -> None:
        if self._shutdown:
            raise RuntimeStateError("cannot install a module after shutdown")
        if module.name in self.modules:
            raise ModuleError(f"module {module.name!r} installed twice")
        self.modules[module.name] = module
        try:
            module.initialize(self)
        except Exception:
            del self.modules[module.name]
            raise
        self.stats.register(module.collect_counts)

    def _collect(self, counters: Dict, histograms: Dict) -> None:
        for module, n in self.spawned.items():
            counters[(module, "tasks_spawned")] += n
        for op, n in (("tasks_completed", self.tasks_completed),
                      ("suspend", self.suspends), ("resume", self.resumes),
                      ("pop", sum(w.pops for w in self.workers)),
                      ("steal", sum(w.steals for w in self.workers))):
            if n:
                counters[("core", op)] += n

    def module(self, name: str) -> "HiperModule":
        try:
            return self.modules[name]
        except KeyError:
            raise ModuleError(
                f"module {name!r} is not installed on rank {self.rank}; "
                f"installed: {sorted(self.modules)}"
            ) from None

    def query_modules(self, capability: str) -> List["HiperModule"]:
        """Installed modules advertising ``capability`` (paper §IV future
        direction: modules discovering integration partners), in install
        order."""
        return [m for m in self.modules.values() if capability in m.capabilities]

    def shutdown(self) -> None:
        """Finalize modules in reverse install order. Idempotent."""
        if self._shutdown:
            return
        self._shutdown = True
        for name in reversed(list(self.modules)):
            self.modules[name].finalize(self)

    @property
    def is_shutdown(self) -> bool:
        return self._shutdown

    # ------------------------------------------------------------------
    # places
    # ------------------------------------------------------------------
    @property
    def interconnect(self) -> Place:
        return self.model.first_of_type(PlaceType.INTERCONNECT)

    @property
    def sysmem(self) -> Place:
        return self.model.first_of_type(PlaceType.SYSTEM_MEM)

    # ------------------------------------------------------------------
    # task creation (the engine room behind repro.runtime.api)
    # ------------------------------------------------------------------
    def spawn(
        self,
        fn: Callable[..., Any],
        args: Tuple = (),
        *,
        place: Optional[Place] = None,
        name: str = "",
        module: str = "core",
        cost: float = 0.0,
        await_future: Optional[Future] = None,
        return_future: bool = False,
        scope: Optional[FinishScope] = None,
        kwargs: Optional[dict] = None,
    ) -> Optional[Future]:
        """Create a task. Returns its completion future iff ``return_future``.

        The task registers with ``scope`` (default: the spawning task's
        innermost open finish scope) immediately, even when its execution is
        predicated on ``await_future`` — so enclosing ``finish`` scopes
        correctly wait for dependent tasks that have not become ready yet.
        """
        if self._shutdown:
            raise RuntimeStateError("cannot spawn after runtime shutdown")
        if not self._started:
            raise RuntimeStateError("runtime not started; call start() first")

        # current_context() inlined — spawn is the framework's hottest entry.
        stack = _tls.stack
        ctx = stack[-1] if stack else None
        in_ctx = ctx is not None and ctx.runtime is self and ctx.worker is not None
        created_by = ctx.worker.wid if in_ctx else 0

        if scope is None:
            if ctx is not None and ctx.task is not None and ctx.runtime is self:
                scope = ctx.task.active_scope
            if scope is None:
                raise RuntimeStateError(
                    "spawn outside a task requires an explicit scope= "
                    "(use HiperRuntime.run for the root of a computation)"
                )
        if place is None:
            # The place "closest to the current runtime thread" (paper: the
            # target of plain ``async``): the first place on the worker's
            # pop path, or system memory outside worker context.
            place = ctx.worker.pop_path[0] if in_ctx else self.sysmem
        elif place not in self.model:
            raise ConfigError(f"place {place.name!r} belongs to a different model")

        promise = (
            Promise(name=f"{name or getattr(fn, '__name__', 'task')}-done")
            if return_future else None
        )
        # Positional args (matching Task.__init__'s order): keyword passing
        # costs noticeably more per call, and this runs once per task.
        task = Task(fn, args, kwargs, name, module, place,
                    created_by, scope, cost, promise, self.rank)
        scope.task_spawned()
        self.spawned[module] += 1
        tracer = self.executor.tracer
        if tracer is not None:
            tracer.record_spawn(self.rank, created_by, task.task_id,
                                task.name, self.executor.now())

        if await_future is not None and not await_future.satisfied:
            task.state = TaskState.CREATED

            def _on_dep_ready(fut: Future) -> None:
                try:
                    fut.value()
                except BaseException as exc:
                    # Dependency failed: fail the task without running it.
                    self.executor._fail(self, task, exc)
                    return
                self._enqueue(task)

            await_future.on_ready(_on_dep_ready)
        else:
            if await_future is not None:
                try:
                    await_future.value()
                except BaseException as exc:
                    self.executor._fail(self, task, exc)
                    return promise.get_future() if promise else None
            self._enqueue(task)
        return promise.get_future() if promise else None

    def _enqueue(self, task: Task) -> None:
        if self._redirects_active and not self._redirect(task):
            return  # task was killed instead of enqueued
        task.state = TaskState.READY
        task.release_time = self.executor.now()
        newly_occupied = self.deques.push(task)
        # Engines that track exact occupancy (the simulated executor) only
        # need a wake when a slot flips non-empty: while a slot is occupied,
        # every worker able to take from it provably stays maybe-ready.
        if newly_occupied or self._notify_every_push:
            self.executor.notify(self, task.place, task.created_by)

    def reenqueue(self, task: Task) -> None:
        """Put a resumed/yielded task back on its deque (continuations)."""
        self._enqueue(task)

    # ------------------------------------------------------------------
    # failure redirection (repro.resilience; see SimExecutor.fail_place)
    # ------------------------------------------------------------------
    def _redirect(self, task: Task) -> bool:
        """Reroute a task away from failed places/worker slots.

        Returns False when the task was killed instead: a partially-executed
        coroutine resuming onto a dead place lost its affine state with the
        place, so it fails with :class:`PlaceFailure` rather than silently
        migrating. Never-started tasks are safe to re-place and are simply
        redirected.
        """
        if task.place is not None:
            fb = self._dead_places.get(task.place.place_id)
            if fb is not None:
                if task.gen is not None:
                    self.stats.count("resilience", "tasks_killed")
                    self.executor._fail(self, task, PlaceFailure(
                        f"place {task.place.name!r} on rank {self.rank} "
                        f"failed while task {task.name!r} was suspended",
                        place=task.place.name))
                    return False
                task.place = fb
        nw = self._worker_redirect.get(task.created_by)
        if nw is not None:
            task.created_by = nw
        return True

    def mark_place_failed(self, place: Place, fallback: Place) -> None:
        """Redirect all future enqueues for ``place`` to ``fallback``."""
        self._dead_places[place.place_id] = fallback
        # Re-point earlier failures that were falling back onto this place.
        for pid, fb in list(self._dead_places.items()):
            if fb is place:
                self._dead_places[pid] = fallback
        self._redirects_active = True

    def mark_worker_failed(self, wid: int, target: int) -> None:
        """Credit future pushes into dead slot ``wid`` to worker ``target``."""
        self._worker_redirect[wid] = target
        for k, v in list(self._worker_redirect.items()):
            if v == wid:
                self._worker_redirect[k] = target
        self._redirects_active = True

    def _poll_scope(self) -> FinishScope:
        """The daemon scope for module polling tasks (paper §II-C1 step 3).

        Never closed: polling tasks must not hold user ``finish`` scopes open,
        and they re-arm from timer context where no task scope is ambient.
        """
        if self._daemon_scope is None:
            self._daemon_scope = FinishScope(
                name=f"daemon-r{self.rank}",
                lock_cls=self.executor.lock_class,
            )
        return self._daemon_scope

    # ------------------------------------------------------------------
    # root entry
    # ------------------------------------------------------------------
    def run(self, fn: Callable[[], Any], *, name: str = "root") -> Any:
        """Execute ``fn`` as a root task; drive to quiescence; return its value."""
        if not self._started:
            raise RuntimeStateError("runtime not started; call start() first")
        return self.executor.run_root(self, fn, name=name)

    # ------------------------------------------------------------------
    # copy handlers (paper §II-C item 3; used by async_copy)
    # ------------------------------------------------------------------
    def register_copy_handler(
        self, src_kind: PlaceType, dst_kind: PlaceType, handler: CopyHandler
    ) -> None:
        key = (src_kind, dst_kind)
        if key in self._copy_handlers:
            raise ModuleError(
                f"copy handler for {src_kind.value}->{dst_kind.value} already registered"
            )
        self._copy_handlers[key] = handler

    def copy_handler(self, src_kind: PlaceType, dst_kind: PlaceType) -> Optional[CopyHandler]:
        return self._copy_handlers.get((src_kind, dst_kind))

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"HiperRuntime(rank={self.rank}/{self.nranks}, "
            f"workers={self.num_workers}, model={self.model.name!r}, "
            f"modules={sorted(self.modules)})"
        )
