"""The access-mode task graph: declared ``read``/``write``/``commute``/
``maybe_write`` accesses, inferred dependencies, commutative reordering,
and Specx-style speculative execution with checkpoint/rollback.

Instead of wiring futures by hand (``async_future`` + ``async_await``),
the application declares what each task touches::

    with TaskGraph() as g:
        a, b = g.handle(arr_a, "a"), g.handle(arr_b, "b")
        async_task(produce, write=[a])
        async_task(combine, read=[a], write=[b])   # RAW edge inferred
        async_task(accum,   commute=[b])           # any order, serialized
    # __exit__ waits and re-raises failures

Dependency rules (per datum, Specx/StarPU semantics):

- **read** waits for the current writer; joins the readers list.
- **write** waits for the current writer *and* all readers since it
  (write-after-read), then becomes the new writer and bumps the version.
- **commute** opens (or joins) a *commute run*: every member depends only
  on the state at run open, so members start in readiness order; a
  per-run slot serializes their bodies without ordering them
  (:class:`~repro.taskgraph.data.CommuteRun`). The first non-commute
  access closes the run and waits for all members.
- **maybe_write** is a write for dependency purposes, but marks the task
  *uncertain*: pure readers behind it may run **speculatively** when the
  predictor expects no write. The graph snapshots a speculative reader's
  write-set before it runs (:mod:`repro.resilience.snapshot`) and holds
  its completion until the uncertain task validates — by comparing the
  datum's content digest before/after. On a correct prediction the held
  result is released (overlap won); on a misprediction the reader's
  writes are rolled back bit-for-bit and the reader replays against the
  post-write state, reproducing the non-speculative answer exactly.

Speculation is only enabled under the deterministic simulator (task bodies
are atomic there, so a speculative body can never observe a half-written
datum); on other engines the same graphs run, just without speculation.

Placement flows through a pluggable policy (:mod:`repro.taskgraph.cost`):
help-first (baseline) or dmda (cost-model-driven place + variant choice
over multi-implementation tasks).
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.resilience.snapshot import (payload_digest, restore_payload,
                                       snapshot_payload)
from repro.runtime.context import require_context
from repro.runtime.deques import NullLock
from repro.runtime.finish import FinishScope, TaskGroupError
from repro.runtime.future import Future, Promise
from repro.taskgraph.cost import CostModel, TaskImpl, make_policy
from repro.taskgraph.data import CommuteRun, DataHandle, Releasable, RunJoin
from repro.util.errors import ConfigError, RuntimeStateError

__all__ = ["TaskGraph", "TaskNode", "WritePredictor", "async_task"]


class WritePredictor:
    """Predicts whether an uncertain (maybe-write) task will actually write.

    Per-``kind`` write-ratio history with an optional per-task static hint
    (``likely_writes=``). Unseen kinds are conservatively predicted to
    write — speculation starts only once history (or a hint) says the task
    usually doesn't.
    """

    def __init__(self, threshold: float = 0.5):
        self.threshold = threshold
        self._hist: Dict[str, List[int]] = {}  # kind -> [writes, total]

    def predict_writes(self, node: "TaskNode") -> bool:
        if node.likely_writes is not None:
            return bool(node.likely_writes)
        wrote, total = self._hist.get(node.kind, (0, 0))
        if total == 0:
            return True
        return (wrote / total) >= self.threshold

    def observe(self, kind: str, wrote: bool) -> None:
        rec = self._hist.setdefault(kind, [0, 0])
        rec[0] += 1 if wrote else 0
        rec[1] += 1


class TaskNode(Releasable):
    """One submitted task: accesses, dependency state, speculation state."""

    __slots__ = (
        "fn", "name", "kind", "cost", "reads", "writes", "commutes",
        "maybe_writes", "impls", "likely_writes", "done_promise", "seq",
        "commute_runs", "spec_pending", "spec_rollback", "ran", "spec_value",
        "spec_exc", "snapshots", "pre_digests", "validation_waiters", "where",
    )

    def __init__(self, fn: Callable[[], Any], name: str, kind: str,
                 cost: float, reads, writes, commutes, maybe_writes,
                 impls: Tuple[TaskImpl, ...], likely_writes: Optional[bool],
                 done_promise, seq: int):
        super().__init__()
        self.fn = fn
        self.name = name
        self.kind = kind
        self.cost = cost
        self.reads: Tuple[DataHandle, ...] = reads
        self.writes: Tuple[DataHandle, ...] = writes
        self.commutes: Tuple[DataHandle, ...] = commutes
        self.maybe_writes: Tuple[DataHandle, ...] = maybe_writes
        self.impls = impls
        self.likely_writes = likely_writes
        self.done_promise = done_promise
        self.seq = seq
        #: commute runs this node belongs to, in slot-acquisition order
        self.commute_runs: List[CommuteRun] = []
        #: unvalidated uncertain predecessors this node speculated past
        self.spec_pending = 0
        self.spec_rollback = False
        self.ran = False
        self.spec_value: Any = None
        self.spec_exc: Optional[BaseException] = None
        #: pre-run byte snapshots of the write-set (speculative runs only)
        self.snapshots: Optional[Dict[DataHandle, Any]] = None
        #: pre-run content digests of maybe_write data (uncertain runs only)
        self.pre_digests: Optional[Dict[DataHandle, str]] = None
        #: speculative successors to validate when this node completes
        self.validation_waiters: List["TaskNode"] = []
        self.where = "cpu"

    def data_touched(self) -> Tuple[DataHandle, ...]:
        return self.reads + self.writes + self.commutes + self.maybe_writes

    @property
    def is_uncertain(self) -> bool:
        return bool(self.maybe_writes)

    def __repr__(self) -> str:
        return f"TaskNode({self.name!r}, seq={self.seq})"


class TaskGraph:
    """A dependency graph inferred from declared access modes.

    Created inside a running task; nodes register with the creating task's
    finish scope (held open across dependency gaps, the ``async_retry``
    idiom), so an enclosing ``finish`` — or :meth:`wait` / the context
    manager — joins the whole graph.
    """

    _ambient = threading.local()

    def __init__(self, *, name: str = "taskgraph", policy: Any = "help-first",
                 speculation: bool = False,
                 predictor: Optional[WritePredictor] = None,
                 cost_model: Optional[CostModel] = None,
                 runtime: Any = None, scope: Optional[FinishScope] = None):
        ctx = require_context()
        self._rt = runtime if runtime is not None else ctx.runtime
        if self._rt is None:
            raise RuntimeStateError("TaskGraph requires a runtime context")
        if scope is None:
            scope = ctx.task.active_scope if ctx.task is not None else None
            if scope is None:
                raise RuntimeStateError(
                    "TaskGraph outside a task requires an explicit scope=")
        self._scope = scope
        self.name = name
        self.cost_model = cost_model if cost_model is not None else CostModel()
        # Telemetry feed: seed estimates from this runtime's recorded
        # taskgraph timers so warm runtimes start calibrated.
        self.cost_model.calibrate_from_stats(self._rt.stats)
        self._policy = make_policy(policy, self._rt.model, self.cost_model)
        self.predictor = predictor if predictor is not None else WritePredictor()
        # Speculation needs atomic task bodies; only the DES engine has them.
        self.speculation = bool(speculation) and self._rt.executor.mode == "sim"
        # The executor's discipline: no-op under the single-threaded sim;
        # else real, and re-entrant (predictor and policy run under it).
        self._lock = (NullLock() if self._rt.executor.lock_class is NullLock
                      else threading.RLock())
        self._seq = 0
        self._handle_ids = itertools.count()
        self._outstanding = 0
        self._last_done = 0.0
        self._failures: List[Tuple[str, BaseException]] = []
        # observability
        self.nodes = 0
        self.edges = 0
        self.commute_reorders = 0
        self.spec_attempts = 0
        self.spec_hits = 0
        self.spec_rollbacks = 0

    # ------------------------------------------------------------------
    # construction API
    # ------------------------------------------------------------------
    def handle(self, payload: Any = None, name: str = "") -> DataHandle:
        """Register a datum; its accesses are tracked from this point on."""
        return DataHandle(self, payload, name or f"data{next(self._handle_ids)}")

    def submit(self, fn: Callable[[], Any], *,
               read: Sequence[DataHandle] = (),
               write: Sequence[DataHandle] = (),
               commute: Sequence[DataHandle] = (),
               maybe_write: Sequence[DataHandle] = (),
               name: str = "", kind: str = "", cost: float = 0.0,
               impls: Sequence[TaskImpl] = (),
               likely_writes: Optional[bool] = None) -> Future:
        """Declare one task; returns a future of its return value.

        ``fn`` takes no arguments and closes over its handles (read
        ``h.data``, assign or mutate in place). ``kind`` keys the cost
        model and write predictor (defaults to the function name);
        ``impls`` supplies alternative implementations for cost-model
        placement; ``likely_writes`` statically hints the predictor for a
        ``maybe_write`` task.
        """
        reads, writes = tuple(read), tuple(write)
        commutes, maybes = tuple(commute), tuple(maybe_write)
        for d in reads + writes + commutes + maybes:
            if not isinstance(d, DataHandle):
                raise ConfigError(
                    f"access lists take DataHandle, got {type(d).__name__} "
                    "(wrap payloads with graph.handle())")
        seen: set = set()
        for d in writes + commutes + maybes:
            if id(d) in seen:
                raise ConfigError(
                    f"datum {d.name!r} declared in more than one write-mode "
                    "access on the same task")
            seen.add(id(d))
        kind = kind or getattr(fn, "__name__", "task")
        impl_tuple = tuple(impls) if impls else (TaskImpl(fn, "cpu", cost),)

        with self._lock:
            node = TaskNode(fn, name or f"{kind}#{self._seq}", kind, cost,
                            reads, writes, commutes, maybes, impl_tuple,
                            likely_writes,
                            Promise(name=f"{kind}#{self._seq}-done"),
                            self._seq)
            self._seq += 1
            spec_on: Optional[List[TaskNode]] = [] if (
                self.speculation and not commutes and not maybes) else None
            for d in reads:
                self._access_read(d, node, spec_on)
            for d in writes + maybes:
                self._access_write(d, node)
            for d in commutes:
                self._access_commute(d, node)
            if spec_on:
                node.spec_pending = len(spec_on)
                self.spec_attempts += 1
                self.edges += len(spec_on)  # waived, but edges all the same
                for wn in spec_on:
                    wn.validation_waiters.append(node)
            self.nodes += 1
            self._outstanding += 1
            # Hold the enclosing scope open across the dependency gap (the
            # async_retry idiom): released when the node's promise resolves.
            self._scope.task_spawned()
            failed, ready = node.exc, node.npending == 0
        if failed is not None:
            self._finish_node(node, None, failed, cascade=True)
        elif ready:
            self._acquire_commute(node, 0)
        return node.done_promise.get_future()

    def __enter__(self) -> "TaskGraph":
        stack = getattr(TaskGraph._ambient, "stack", None)
        if stack is None:
            stack = TaskGraph._ambient.stack = []
        stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        TaskGraph._ambient.stack.pop()
        if exc_type is None:
            self.wait()

    # ------------------------------------------------------------------
    # access rules (all under self._lock)
    # ------------------------------------------------------------------
    def _depend(self, node: TaskNode, pred: Any) -> None:
        """One inferred edge: ``node`` waits for ``pred`` (a node or a
        closed run's join), counted once however many accesses imply it."""
        if pred.stamp == node.seq or pred is node:
            return
        pred.stamp = node.seq
        self.edges += 1
        node.after(pred)

    def _close_run(self, d: DataHandle) -> None:
        run, d.run = d.run, None
        d.writer = run.members[0] if len(run.members) == 1 else RunJoin(run.members)
        d.readers = []

    def _access_read(self, d: DataHandle, node: TaskNode,
                     spec_on: Optional[List[TaskNode]]) -> None:
        if d.run is not None:
            self._close_run(d)
        w = d.writer
        if w is not None:
            # Waive only a dependency that is genuinely uncertain *for this
            # datum*: a node may maybe-write one handle while definitely
            # writing another, and readers of the latter must wait.
            if (spec_on is not None and d in w.maybe_writes
                    and not w.completed
                    and not self.predictor.predict_writes(w)):
                if w not in spec_on:
                    spec_on.append(w)  # dependency waived: run speculatively
                if d.spec_fallback is not None:
                    # Still read-after-write against the state the maybe
                    # task itself builds on — speculation skips only the
                    # uncertain writer, never its committed predecessors.
                    self._depend(node, d.spec_fallback)
            else:
                self._depend(node, w)
        d.readers.append(node)

    def _access_write(self, d: DataHandle, node: TaskNode) -> None:
        if d.run is not None:
            self._close_run(d)
        if d.writer is not None:
            self._depend(node, d.writer)
        for r in d.readers:  # write-after-read ordering
            self._depend(node, r)
        d.spec_fallback = d.writer
        d.writer = node
        d.readers = []

    def _access_commute(self, d: DataHandle, node: TaskNode) -> None:
        if d.run is None:
            base = d.readers if d.writer is None else [d.writer] + d.readers
            d.run = CommuteRun(base)
            d.readers = []
            d.writer = None
        run = d.run
        run.members.append(node)
        for p in run.base_deps:
            self._depend(node, p)
        node.commute_runs.append(run)

    # ------------------------------------------------------------------
    # commute slots -> dispatch
    # ------------------------------------------------------------------
    def _acquire_commute(self, node: TaskNode, idx: int) -> None:
        with self._lock:
            while idx < len(node.commute_runs):
                run = node.commute_runs[idx]
                if run.busy is not None:
                    run.pending.append((node, idx))
                    return
                if run.grant(node):  # the observable reordering
                    self.commute_reorders += 1
                idx += 1
        self._dispatch(node)

    def _dispatch(self, node: TaskNode) -> None:
        ex = self._rt.executor
        with self._lock:
            place, impl, transfer = self._policy.choose(node, ex.now())
        if impl is None:
            impl = node.impls[0]
            place = None
        node.where = impl.where
        # ``_run_node`` routes its own failures into the node; only a fault
        # hook (installed before dispatch) fails a task *before* its body is
        # entered. That lands on the return future: route it, or the graph
        # would never quiesce.
        fut = self._rt.spawn(self._run_node, (node, impl, transfer + impl.cost),
                             place=place, scope=self._scope, name=node.name,
                             module="taskgraph",
                             return_future=ex.task_fault_hook is not None)
        if fut is not None:
            def _task_done(f: Future) -> None:
                exc = f._exception
                if exc is not None:
                    self._finish_node(node, None, exc)

            fut.on_ready(_task_done)

    def _run_node(self, node: TaskNode, impl: TaskImpl, charge: float) -> None:
        ex = self._rt.executor
        # Speculation state exists only under the simulator (atomic bodies).
        speculation = self.speculation
        value: Any = None
        exc: Optional[BaseException] = None
        t0 = ex.now()
        try:
            if speculation and node.spec_pending > 0:
                node.snapshots = {
                    d: snapshot_payload(d.data) for d in node.writes}
            if node.maybe_writes:
                node.pre_digests = {
                    d: payload_digest(d.data) for d in node.maybe_writes}
            if charge > 0.0:
                ex.charge(charge)
            value = impl.fn()
        except BaseException as e:  # noqa: BLE001 - routed to the node future
            exc = e
        elapsed = ex.now() - t0
        self.cost_model.observe(node.kind, node.where, elapsed)
        self._rt.stats.time("taskgraph", f"{node.kind}@{node.where}", elapsed)
        if speculation:
            with self._lock:
                node.ran = True
                if node.spec_pending > 0:
                    # Still speculative: hold the result until validation.
                    node.spec_value, node.spec_exc = value, exc
                    return
        self._finish_node(node, value, exc)

    # ------------------------------------------------------------------
    # completion, validation, rollback
    # ------------------------------------------------------------------
    def _finish_node(self, node: TaskNode, value: Any,
                     exc: Optional[BaseException],
                     cascade: bool = False) -> None:
        # A failure fails every dependent fast. Explicit LIFO worklist: the
        # depth-first order recursion would give, at constant stack depth.
        work = [(node, value, cascade)]
        while work:
            node, value, cascade = work.pop()
            resumptions: List[Tuple[TaskNode, int]] = []
            with self._lock:
                if node.completed:  # idempotent: body vs return-future path,
                    continue        # or failed fast by two dependencies
                wrote = False
                if node.pre_digests:
                    wrote = any(payload_digest(d.data) != dig
                                for d, dig in node.pre_digests.items())
                    self.predictor.observe(node.kind, wrote)
                if not cascade:
                    for d in node.writes + node.maybe_writes + node.commutes:
                        d.version += 1
                for run in node.commute_runs:
                    if run.busy is node:
                        run.busy = None
                        if run.pending:
                            resumptions.append(run.pending.popleft())
                waiters, node.validation_waiters = node.validation_waiters, []
                node.completed = True
                self._last_done = max(self._last_done, self._rt.executor.now())
                if exc is not None and not cascade:
                    # Cascaded nodes carry their dependency's exception; the
                    # root cause is already recorded once under its own node.
                    self._failures.append((node.name, exc))
                self._outstanding -= 1
            for waiter, idx in resumptions:
                self._acquire_commute(waiter, idx)
            for s in waiters:
                self._validate_waiter(s, wrote)
            # Satisfied before any dependent starts, and before a later
            # submit finds ``succs`` gone: bodies may read the future.
            if exc is not None:
                node.done_promise.put_exception(exc)
            else:
                node.done_promise.put(value)
            released: List[TaskNode] = []
            with self._lock:
                node.release(exc, released)
            if exc is None:
                for s in released:
                    self._acquire_commute(s, 0)
            else:
                work.extend((s, None, True) for s in reversed(released))
            self._scope.task_completed(None)

    def _validate_waiter(self, node: TaskNode, wrote: bool) -> None:
        """One uncertain predecessor of a speculative ``node`` completed."""
        with self._lock:
            node.spec_pending -= 1
            if wrote and node.ran:
                # The speculative run read stale data; its held result is
                # invalid. (If it has not run yet it will simply read the
                # post-write state when it does — no rollback needed.)
                node.spec_rollback = True
            if node.spec_pending > 0 or not node.ran:
                return
            rollback = node.spec_rollback
        if rollback:
            with self._lock:
                self.spec_rollbacks += 1
                for d, snap in (node.snapshots or {}).items():
                    d.data = restore_payload(snap)
                node.ran = False
                node.spec_value = node.spec_exc = None
            self._rt.stats.count("taskgraph", "spec_rollback")
            self._dispatch(node)  # replay against the validated state
        else:
            self.spec_hits += 1
            self._rt.stats.count("taskgraph", "spec_hit")
            self._finish_node(node, node.spec_value, node.spec_exc)

    # ------------------------------------------------------------------
    # join
    # ------------------------------------------------------------------
    def wait(self, raise_failures: bool = True) -> None:
        """Block the calling task until every submitted node completed.

        Advances the caller's virtual clock to the last completion
        (help-until-ready, like ``finish``); re-raises collected node
        failures unless ``raise_failures=False``.
        """
        ctx = require_context()
        if self._outstanding > 0:
            ctx.executor.block_until(
                lambda: self._outstanding == 0,
                description=f"taskgraph {self.name!r}",
                time_source=lambda: self._last_done,
            )
        if raise_failures:
            with self._lock:
                failures, self._failures = self._failures, []
            excs = [e for _, e in failures]
            if len(excs) == 1:
                raise excs[0]
            if excs:
                raise TaskGroupError(excs)

    def describe(self) -> str:
        return (f"taskgraph {self.name!r}: {self.nodes} nodes, "
                f"{self.edges} edges, {self.commute_reorders} commute "
                f"reorders, speculation {self.spec_hits} hits / "
                f"{self.spec_rollbacks} rollbacks "
                f"({getattr(self._policy, 'name', 'custom')})")


def async_task(fn: Callable[[], Any], **accesses: Any) -> Future:
    """Submit ``fn`` to the innermost ``with TaskGraph(...)`` block.

    The paper-style spelling: ``async_task(f, read=[a], write=[b])``.
    Accepts every :meth:`TaskGraph.submit` keyword.
    """
    stack = getattr(TaskGraph._ambient, "stack", None)
    if not stack:
        raise RuntimeStateError(
            "async_task requires an enclosing `with TaskGraph(...)` block "
            "(or call graph.submit directly)")
    return stack[-1].submit(fn, **accesses)
