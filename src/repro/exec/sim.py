"""Deterministic virtual-time executor (discrete-event simulation).

This is the reproduction's substitute for running on Edison/Titan (DESIGN.md
§2): every (rank, worker) pair carries a virtual clock; compute is charged
explicitly (task ``cost=`` or ``charge()``); communication and device
completions arrive as timestamped events. One OS thread drives everything, so
runs are bit-for-bit reproducible for a given seed.

Scheduling order: the engine always runs the lowest-``(clock, rank, wid)``
worker that may have work; when no worker can find work it advances the event
queue; when both are exhausted it has *proved* quiescence (and raises
:class:`DeadlockError` if anything is still blocked).

Worker selection is O(log W): maybe-ready workers live in a lazy-deletion
heap keyed by ``(clock, rank, wid)``. Entries whose worker left the set are
dropped on pop; entries whose clock went stale (the worker ran and advanced
while staying maybe-ready) are re-keyed in place — clocks only move forward,
so a stale entry always surfaces no later than its fresh position. The
selection order is bit-for-bit identical to an O(W) ``min()`` scan (the key
is a strict total order per worker).

Events live in a :class:`~repro.exec.eventq.EventList`, a ``heapq`` of
numeric keys popped one timestamp cohort at a time (see
``docs/sim-internals.md``). This is the only engine; the test-only reference
it is compared with bit for bit (scan-min selection over the same event
list) is the verifier's ``ref-sim`` engine, ``make_engine("ref-sim")``.

Blocking (``future.wait``, ``finish``) uses *help-until-ready*: the blocked
frame re-enters the engine loop, so any worker — including the blocked one —
keeps executing ready tasks and events keep flowing. This nests on the Python
call stack; pathological nesting depth raises a diagnostic rather than a bare
``RecursionError`` (coroutine tasks avoid the nesting entirely).
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
from typing import Any, Callable, List, Optional, Set

from repro.exec.base import Executor
from repro.exec.eventq import EventList
from repro.runtime.context import ExecContext, _tls, current_context
from repro.runtime.finish import FinishScope
from repro.runtime.deques import NullLock
from repro.runtime.future import Future, Promise
from repro.runtime.runtime import HiperRuntime
from repro.runtime.task import Task, TaskState
from repro.runtime.worker import WorkerState, find_task
from repro.util.errors import (
    ConfigError,
    DeadlockError,
    HiperError,
    PlaceFailure,
    RuntimeStateError,
)


class _ClosedEventQueue:
    """What a shut-down executor holds in place of its event list: always
    empty, every push raises — use-after-shutdown is a defined error with no
    per-event ``if self._shutdown`` on the ``call_at`` hot path."""

    __slots__ = ()

    def __len__(self) -> int:
        return 0

    def push(self, *_args) -> int:
        raise RuntimeStateError("executor already shut down")

    push_batch = push

    def cancel(self, handle: int) -> bool:
        return False


class SimExecutor(Executor):
    """Single-threaded, deterministic, virtual-time engine for 1..N runtimes."""

    mode = "sim"

    #: Single OS thread: deque slots and occupancy indexes need no locking.
    lock_class = NullLock

    #: Exact occupancy + no parking races: wakes are only needed on
    #: empty -> non-empty slot transitions (see Executor.notify_on_every_push).
    notify_on_every_push = False

    #: Nested help-until-ready levels beyond which we fail loudly with advice
    #: instead of hitting Python's recursion limit somewhere unhelpful.
    MAX_HELP_DEPTH = 4000

    def __init__(self, *, task_overhead: float = 0.0, engine: str = "flat",
                 shards: int = 1):
        """``task_overhead``: virtual seconds charged per task dispatch
        (models scheduler/dispatch cost; 0 by default, exercised by the
        runtime-overhead ablation bench). ``engine``: accepted for callers
        that still spell out ``engine="flat"``; there is one engine, so any
        other value is a :class:`ConfigError` and nothing reads it.
        ``shards``: partition an SPMD run across N OS processes, each driving
        its own sub-simulator, synchronized by conservative time windows
        (see ``repro.exec.shards``). ``shards=1`` (default) is a strict
        passthrough — this executor runs everything itself and the attribute
        is never consulted again."""
        if engine != "flat":
            raise ConfigError(
                f"SimExecutor has one engine, 'flat'; got engine={engine!r} "
                "(the test-only reference is the verifier's 'ref-sim' "
                "engine: repro verify --engines sim ref-sim)")
        if not isinstance(shards, int) or isinstance(shards, bool):
            raise ConfigError(f"shards must be an int, got {shards!r}")
        if shards < 1:
            raise ConfigError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        self._runtimes: List[HiperRuntime] = []
        self._workers: List[WorkerState] = []
        # (runtime id) -> place_id -> (pop_cover: wid->WorkerState,
        #                              steal_cover: List[WorkerState])
        self._coverage = {}
        self._maybe_ready: Set[WorkerState] = set()
        self._ready_heap: List = []  # (clock, rank, wid, seq, worker)
        self._wake_seq = itertools.count()
        self._events: Any = EventList()
        # Reusable bare dispatch context (now() == event floor):
        # _advance_events pushes/pops this one instance per batch.
        self._bare_ctx = ExecContext(self)
        self._event_floor = 0.0
        self._help_depth = 0
        self._dead_workers = {}  # id(runtime) -> set of failed worker ids
        self._blocked: List[str] = []
        self._shutdown = False
        self._stepping = False
        self.task_overhead = float(task_overhead)
        self.events_processed = 0
        # Help-until-ready nests on the Python call stack, so engine driving
        # needs recursion headroom; raised on first drive/drain and restored
        # at shutdown (not a permanent process-wide side effect).
        self._saved_recursion_limit: Optional[int] = None

    #: Recursion limit while the engine drives (covers MAX_HELP_DEPTH nesting
    #: with several Python frames per help level).
    ENGINE_RECURSION_LIMIT = 100_000

    def _ensure_recursion_headroom(self) -> None:
        if self._saved_recursion_limit is not None:
            return
        current = sys.getrecursionlimit()
        if current < self.ENGINE_RECURSION_LIMIT:
            self._saved_recursion_limit = current
            sys.setrecursionlimit(self.ENGINE_RECURSION_LIMIT)

    def _restore_recursion_limit(self) -> None:
        if self._saved_recursion_limit is None:
            return
        # Restore only if nobody else adjusted the limit in the meantime.
        if sys.getrecursionlimit() == self.ENGINE_RECURSION_LIMIT:
            sys.setrecursionlimit(self._saved_recursion_limit)
        self._saved_recursion_limit = None

    # ------------------------------------------------------------------
    # Executor interface
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._shutdown:
            raise RuntimeStateError("executor already shut down")

    def register_runtime(self, runtime: HiperRuntime) -> None:
        self._check_open()
        self._runtimes.append(runtime)
        self._coverage[id(runtime)] = self._build_coverage(runtime)
        self._workers.extend(runtime.workers)

    def _build_coverage(self, runtime: HiperRuntime,
                        exclude=frozenset()):
        """Precompute, per (place, creating worker), the tuple of workers
        that could actually take such a task: only the creator pops its slot
        (if the place is on its pop path) and only *other* workers steal it
        (if the place is on their steal path). notify() then wakes exactly
        the workers whose search could succeed, in one tuple walk.

        ``exclude`` (worker ids) drops failed workers from every wake list —
        fail_worker rebuilds the maps so the dead worker is never woken
        again."""
        cov = {}
        live = [w for w in runtime.workers if w.wid not in exclude]
        pop_sets = {w.wid: set(w.pop_path) for w in live}
        steal_sets = {w.wid: set(w.steal_path) for w in live}
        for place in runtime.model:
            steal_cover = [w for w in live if place in steal_sets[w.wid]]
            wake_all = tuple(
                dict.fromkeys(
                    [w for w in live if place in pop_sets[w.wid]] + steal_cover
                )
            )
            by_creator = []
            for creator in range(runtime.num_workers):
                wake = []
                if place in pop_sets.get(creator, ()):
                    wake.append(runtime.workers[creator])
                wake.extend(w for w in steal_cover if w.wid != creator)
                by_creator.append(tuple(wake))
            cov[place.place_id] = (by_creator, wake_all)
        return cov

    def shutdown(self) -> None:
        self._shutdown = True
        self._maybe_ready.clear()
        self._ready_heap.clear()
        # Drop the event list and break the one reference cycle through
        # this object (the reusable dispatch context points back at it), so
        # a finished executor is freed by refcounting alone: pytest-benchmark
        # runs with the cycle collector off, and a surviving cycle there
        # pins an event list per round.
        self._events = _ClosedEventQueue()
        self._bare_ctx = None
        self._restore_recursion_limit()

    def pending_events(self) -> int:
        return len(self._events)

    def now(self) -> float:
        # current_context() inlined: now() runs once per enqueue (release-time
        # stamping), so the extra call is measurable on the dispatch path.
        stack = _tls.stack
        if stack:
            worker = stack[-1].worker
            if worker is not None:
                return worker.clock
        return self._event_floor

    def charge(self, seconds: float) -> None:
        if not seconds >= 0:  # NaN too: it would poison the worker clock
            raise ConfigError(f"cannot charge negative time {seconds}")
        ctx = current_context()
        if ctx is None or ctx.worker is None:
            raise RuntimeStateError("charge() must be called from a worker context")
        ctx.worker.clock += seconds

    def notify(self, runtime: HiperRuntime, place,
               created_by: Optional[int] = None) -> None:
        by_creator, wake_all = self._coverage[id(runtime)][place.place_id]
        workers = wake_all if created_by is None else by_creator[created_by]
        ready = self._maybe_ready
        heap, seq = self._ready_heap, self._wake_seq
        for w in workers:
            if w not in ready:
                ready.add(w)
                heapq.heappush(heap, (w.clock, w.rank, w.wid, next(seq), w))

    def _wake(self, worker: WorkerState) -> None:
        if worker not in self._maybe_ready:
            self._maybe_ready.add(worker)
            heapq.heappush(
                self._ready_heap,
                (worker.clock, worker.rank, worker.wid,
                 next(self._wake_seq), worker),
            )

    def call_later(self, delay: float, fn: Callable[[], None]) -> int:
        """Schedule ``fn`` after ``delay`` virtual seconds; returns a handle
        for :meth:`cancel_event`. Rejects negative and NaN delays — a NaN
        would corrupt the queue order silently (every comparison against
        it is False), scrambling event order downstream."""
        if delay < 0 or delay != delay:
            raise ConfigError(
                f"call_later delay must be a non-negative number, got {delay}")
        return self._events.push(self.now() + delay, fn)

    def call_at(self, when: float, fn: Callable, arg: Any = None) -> int:
        """Schedule ``fn()`` — or ``fn(arg)``, which spares the network
        fabric a closure per message — at an absolute virtual time;
        returns a handle for :meth:`cancel_event`. Rejects NaN timestamps
        (silent order corruption, as in :meth:`call_later`).

        Clamped to the event floor, not zero: the floor only moves forward,
        and an event stamped in the virtual past would sort "before" events
        that have already been processed, silently reordering causality."""
        if when != when:
            raise ConfigError(f"call_at timestamp must not be NaN, got {when}")
        return self._events.push(
            when if when > self._event_floor else self._event_floor, fn, arg)

    def call_at_batch(self, whens, fn: Callable[[Any], None], args) -> None:
        """Schedule ``fn(args[i])`` at each ``whens[i]`` (floor-clamped like
        :meth:`call_at`). One call posts a whole fabric wave, ``whens`` and
        ``args`` being lists. Internal fast path: no NaN validation, no
        cancellation handles."""
        # Clamp to the event floor only when some timestamp is below it:
        # waves are stamped at-or-after "now", so the common case is one
        # min() instead of a per-event rewrite.
        floor = self._event_floor
        if whens and min(whens) < floor:
            whens = [w if w > floor else floor for w in whens]
        self._events.push_batch(whens, fn, args)

    def cancel_event(self, handle: int) -> bool:
        """Cancel a pending event by the handle ``call_later``/``call_at``
        returned. Returns True if the event was still pending. Cancellation
        is lazy: the record keeps its queue position with a blanked callback
        and is skipped at dispatch, so an event of the batch currently being
        dispatched is already out of reach."""
        return self._events.cancel(handle)

    # ------------------------------------------------------------------
    # fault injection (repro.resilience)
    # ------------------------------------------------------------------
    def fail_place(self, runtime: HiperRuntime, place,
                   reassign_to=None):
        """Simulate the failure of ``place`` on ``runtime`` at the current
        virtual time.

        Ready tasks whose body has not started are *replayed*: moved to
        ``reassign_to`` (default: system memory) with ``attempts`` bumped.
        Their finish-scope registration carries over unchanged, so enclosing
        joins keep waiting for the replayed work. Partially-executed
        coroutine continuations have observed state that died with the place,
        so they are failed with :class:`PlaceFailure` (catch it with
        ``async_retry(retry_on=PlaceFailure)`` to restore-and-redo from a
        checkpoint). Future enqueues targeting the place are redirected to
        the fallback. Returns ``(replayed, killed)`` counts.
        """
        fallback = reassign_to if reassign_to is not None else runtime.sysmem
        if fallback is place:
            raise ConfigError(
                f"cannot reassign failed place {place.name!r} to itself")
        if fallback.place_id in runtime._dead_places:
            raise ConfigError(
                f"fallback place {fallback.name!r} has itself failed")
        t = self.now()
        drained = runtime.deques.at(place).drain()
        runtime.mark_place_failed(place, fallback)
        replayed = killed = 0
        for task in drained:
            if task.gen is None:
                task.attempts += 1
                task.place = fallback
                replayed += 1
                runtime._enqueue(task)
            else:
                killed += 1
                self._fail(runtime, task, PlaceFailure(
                    f"place {place.name!r} on rank {runtime.rank} failed at "
                    f"t={t:.9f} with task {task.name!r} in flight",
                    place=place.name))
        stats = runtime.stats
        stats.count("resilience", "place_failures")
        if replayed:
            stats.count("resilience", "tasks_replayed", replayed)
        if killed:
            stats.count("resilience", "tasks_killed", killed)
        stats.sample("resilience/failures", t, float(replayed + killed))
        return replayed, killed

    def fail_worker(self, runtime: HiperRuntime, wid: int) -> int:
        """Simulate the failure of worker ``wid`` on ``runtime``.

        The worker leaves the maybe-ready set (its stale heap entries are
        lazily discarded), every wake-coverage list is rebuilt without it,
        and its deque slots are evacuated: stranded tasks are re-pushed under
        the lowest live worker id, which also receives all future pushes
        crediting the dead worker. Returns the number of tasks moved.
        """
        if not 0 <= wid < runtime.num_workers:
            raise ConfigError(
                f"worker {wid} out of range [0, {runtime.num_workers})")
        dead = self._dead_workers.setdefault(id(runtime), set())
        if wid in dead:
            return 0
        if len(dead) + 1 >= runtime.num_workers:
            raise ConfigError(
                f"cannot fail worker {wid}: it is the last live worker on "
                f"rank {runtime.rank}")
        dead.add(wid)
        worker = runtime.workers[wid]
        self._maybe_ready.discard(worker)
        self._coverage[id(runtime)] = self._build_coverage(runtime,
                                                           exclude=dead)
        target = min(w.wid for w in runtime.workers if w.wid not in dead)
        runtime.mark_worker_failed(wid, target)
        moved = 0
        for place in runtime.model:
            for task in runtime.deques.at(place).slots[wid].drain():
                task.created_by = target
                moved += 1
                runtime._enqueue(task)
        stats = runtime.stats
        stats.count("resilience", "worker_failures")
        if moved:
            stats.count("resilience", "tasks_moved", moved)
        stats.sample("resilience/failures", self.now(), float(moved))
        return moved

    # ------------------------------------------------------------------
    # the engine loop
    # ------------------------------------------------------------------
    #: The step bound: only workers whose clock is below it run, and only
    #: event batches stamped below it advance. A sharded run sets it per
    #: window (``repro.exec.shards``); everywhere else it is +inf, and the
    #: event queue is then never peeked.
    _horizon = math.inf
    #: Called when nothing is left below the bound; True means it moved the
    #: bound (keep stepping). None (the default) ends the loop there.
    _window_hook: Optional[Callable[[], bool]] = None

    def _step(self) -> bool:
        """Run one task or one event batch below the bound. False iff
        nothing can happen and the window hook (if any) declined.

        The only stepping loop: a subclass changes only *which* ready worker
        runs next, by overriding :meth:`_select`."""
        while True:
            bound = self._horizon
            picked = self._select(bound)
            if picked is not None:
                worker, task = picked
                self._run_task(worker, task)
                return True
            events = self._events
            if events and (bound == math.inf or events.peek_when() < bound):
                self._advance_events()
                return True
            hook = self._window_hook
            if hook is None or not hook():
                return False

    def _select(self, bound: float):
        """The next ``(worker, task)`` whose worker clock is below ``bound``,
        or None: the lowest-``(clock, rank, wid)`` maybe-ready worker that
        finds a task, walked off the lazy-deletion heap."""
        ready, heap = self._maybe_ready, self._ready_heap
        while ready:
            clock, _rank, _wid, _seq, worker = heap[0]
            if worker not in ready:
                heapq.heappop(heap)  # lazily-deleted entry
                continue
            if clock != worker.clock:
                # Stale key: the worker ran (clocks only advance) while
                # staying maybe-ready. Re-key at its current clock.
                heapq.heapreplace(
                    heap, (worker.clock, worker.rank, worker.wid,
                           next(self._wake_seq), worker))
                continue
            if clock >= bound:
                return None
            task = find_task(worker)
            if task is None:
                ready.discard(worker)
                heapq.heappop(heap)
                continue
            return worker, task
        return None

    def _run_task(self, worker: WorkerState, task: Task) -> None:
        release = task.release_time
        if release > worker.clock:  # advance_clock_to, inlined (hot path)
            worker.idle_time += release - worker.clock
            worker.clock = release
        self.execute_task(worker.runtime, worker, task)
        state = task.state
        if state is TaskState.DONE or state is TaskState.FAILED:
            # The record's lifetime ends here (suspended or re-enqueued tasks
            # are still referenced by resumer closures or deques): drop what
            # it holds. Otherwise a failed task stays in a reference cycle
            # through its exception's traceback frames, left for the cycle
            # collector.
            task.fn = task.gen = task.kwargs = None
            task.scope = task.active_scope = task.result_promise = None
            task.epilogue = task.place = None
            task._send_value = task._send_exc = None
            task.args = ()
        # The task may have pushed follow-up work for this worker; notify()
        # covers cross-worker wakes but re-adding ourselves is cheap and keeps
        # the hot pop-path loop tight. (Usually still a member here — then
        # this is just a set test; the worker's existing heap entry is
        # re-keyed lazily when its stale clock surfaces at the heap top.)
        if worker not in self._maybe_ready:
            self._wake(worker)

    def _advance_events(self) -> None:
        """Pop the cohort of events at the minimum timestamp and run it in
        seq order, skipping cancelled (blanked) records. The cohort is a
        snapshot taken off the event list before the first callback runs:
        pushes made meanwhile land in a later cohort, and cancels cannot
        reach it.

        The bare dispatch context (now() == event floor) is one reusable
        instance, and the context-stack push/pop is inlined: this wraps
        every virtual-time advance, and most cohorts hold one event."""
        t0, batch = self._events.pop_batch()
        if t0 > self._event_floor:
            self._event_floor = t0
        n = 0
        stack = _tls.stack
        stack.append(self._bare_ctx)
        try:
            for fn, arg in batch:
                if fn is None:
                    continue
                if arg is None:
                    fn()
                else:
                    fn(arg)
                n += 1
        finally:
            stack.pop()
            self.events_processed += n

    def on_task_start(self, worker: WorkerState, task: Task) -> None:
        # task.cost is the body's total compute: charge it on the FIRST
        # segment only (coroutine resumes are continuations of the same
        # body); the dispatch overhead applies to every segment.
        cost = self.task_overhead + (task.cost if task.gen is None else 0.0)
        worker.clock += cost

    # ------------------------------------------------------------------
    # blocking
    # ------------------------------------------------------------------
    def block_until(
        self,
        predicate: Callable[[], bool],
        description: str = "",
        time_source: Optional[Callable[[], float]] = None,
    ) -> None:
        ctx = current_context()
        worker = ctx.worker if ctx is not None else None
        if not predicate():
            self._help_depth += 1
            if self._help_depth > self.MAX_HELP_DEPTH:
                self._help_depth -= 1
                raise HiperError(
                    f"help-until-ready nesting exceeded {self.MAX_HELP_DEPTH} "
                    f"while blocking on {description or 'a condition'}; "
                    "convert deeply-blocking plain tasks to coroutine tasks "
                    "(yield the future instead of wait())"
                )
            self._blocked.append((description or "<anonymous wait>", predicate))
            try:
                while not predicate():
                    if not self._step():
                        names = [d for d, _ in self._blocked]
                        # Diagnose help-stack inversion: an OUTER blocked
                        # frame whose condition is already satisfied cannot
                        # unwind past us — plain blocking calls in an
                        # iterative SPMD pattern; the fix is coroutine style.
                        inverted = [
                            d for d, p in self._blocked[:-1] if p()
                        ]
                        if inverted:
                            raise DeadlockError(
                                "help-stack inversion: progress requires "
                                f"unwinding to {inverted!r}, which is buried "
                                "beneath this frame on the help stack. Use "
                                "the *_async/future APIs and yield from "
                                "coroutine mains instead of blocking calls "
                                f"(innermost wait: {description!r})",
                                blocked=names,
                            )
                        raise DeadlockError(
                            f"no runnable work or events while waiting on "
                            f"{description or 'a condition'}",
                            blocked=names,
                        )
            finally:
                self._blocked.pop()
                self._help_depth -= 1
        if worker is not None and time_source is not None:
            worker.advance_clock_to(time_source())

    # ------------------------------------------------------------------
    # roots and driving
    # ------------------------------------------------------------------
    def submit_root(
        self, runtime: HiperRuntime, fn: Callable[[], Any], *, name: str = "root"
    ) -> Future:
        """Enqueue ``fn`` as a root task under a fresh finish scope; return a
        future satisfied (with ``fn``'s value) once the whole scope quiesces.
        Does not drive the engine — SPMD launchers submit all ranks first."""
        self._check_open()
        # self.lock_class, not a hard-coded NullLock: subclasses (the
        # schedule-exploring verifier) plug in tracked locks here.
        scope = FinishScope(name=f"{name}-scope", lock_cls=self.lock_class)
        inner = runtime.spawn(
            fn, scope=scope, return_future=True, name=name,
            place=runtime.workers[0].pop_path[0],
        )
        assert inner is not None
        scope.close()
        out = Promise(name=f"{name}-done")

        def _joined(_f) -> None:
            try:
                scope.raise_collected()
                out.put(inner.value())
            except BaseException as exc:  # noqa: BLE001
                out.put_exception(exc)

        scope.all_done_future().on_ready(_joined)
        return out.get_future()

    def drive(self, until: Callable[[], bool]) -> None:
        """Pump the engine until ``until()`` is true; raise on dead quiescence."""
        self._check_open()
        if self._stepping:
            raise RuntimeStateError(
                "drive() re-entered; use block_until from inside tasks"
            )
        self._ensure_recursion_headroom()
        self._stepping = True
        try:
            while not until():
                if not self._step():
                    raise DeadlockError(
                        "engine quiesced before completion",
                        blocked=[d for d, _ in self._blocked]
                        + [
                            f"ready tasks at {name}: {n}"
                            for rt in self._runtimes
                            for name, n in rt.deques.snapshot().items()
                        ],
                    )
        finally:
            self._stepping = False

    def drain(self) -> None:
        """Run until full quiescence (no ready tasks, no events)."""
        self._check_open()
        self._ensure_recursion_headroom()
        while self._step():
            pass

    def run_root(
        self, runtime: HiperRuntime, fn: Callable[[], Any], *, name: str = "root"
    ) -> Any:
        fut = self.submit_root(runtime, fn, name=name)
        # Per engine step: an attribute read beats the `satisfied` property.
        self.drive(lambda: fut._satisfied)
        return fut.value()

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def makespan(self) -> float:
        """Virtual completion time: max worker clock / event floor seen."""
        clocks = [w.clock for w in self._workers]
        return max(clocks + [self._event_floor]) if clocks else self._event_floor

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(runtimes={len(self._runtimes)}, "
            f"workers={len(self._workers)}, events={len(self._events)}, "
            f"floor={self._event_floor:.6f})"
        )
