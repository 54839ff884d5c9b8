"""Sharded parallel DES: one sub-simulator per shard, synchronized by
conservative time windows (ROADMAP item 4's "one sub-simulator per rank with
conservative time windows", generalized to N shards).

``SimExecutor(shards=N)`` partitions an SPMD run's ranks
across N OS processes. Each shard runs its own :class:`FlatEventQueue` +
``TaskSlab`` over its slice of the cluster (a contiguous, *node-aligned*
rank range — see :class:`ShardPlan`), and the shards advance in lockstep
windows:

1. each shard drains every task and event with virtual time strictly below
   the current horizon ``H``, parking cross-shard sends (priced on the send
   side) in per-destination-shard outboxes;
2. at the barrier, each shard reports ``(next local activation, done?,
   outboxes)`` to the coordinator (the parent process) over its control
   link — each shard worker is a :class:`repro.launch.Child`, which starts,
   diagnoses and reaps it; this module keeps the window protocol;
3. the coordinator routes the outboxes, computes ``N_min`` — the minimum
   over every shard's next activation and every in-flight message's arrival
   time — and replies with the next horizon ``H' = N_min + lookahead`` plus
   each shard's inbox, which the shard injects in a deterministic
   ``(arrival, src, seq)`` total order.

**Safety.** ``lookahead`` (:meth:`NetworkModel.lookahead`) is the minimum
wire time between distinct nodes: two NIC serializations plus the wire
latency (plus the topology's minimum extra hop latency). Every action
executed during a round happens at virtual time ``t >= N_min`` (nothing
earlier exists anywhere), so any message it sends arrives no earlier than
``N_min + inj_overhead + latency`` and is *delivered* no earlier than
``N_min + lookahead = H'``. Deferring cross-shard injection to the barrier
therefore never delivers a message into its own past; and because every
enqueue happens from an action below ``H``, every queued task's release
time is below ``H`` too — the bounded step loop needs no release guard.

**Determinism.** Within a shard the engine is the unmodified ``SimExecutor``.
Across shards, inboxes are injected in ``(arrival, src, seq)`` order —
identical on every replay — and the receiver-side cost recurrences (NIC
availability, pairwise FIFO) run in that order. Per-rank *results* are
therefore deterministic and equal to the single-shard run's (gated by the
``isx_sharded_differential``); per-rank virtual *times* can differ from the
single-shard schedule, because receiver-NIC contention is resolved against
shard-local send interleavings (the same caveat the real-multiprocess procs
backend documents). ``shards=1`` never reaches this module at all.
"""

from __future__ import annotations

import bisect
import dataclasses
import heapq
import math
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.exec.sim import SimExecutor
from repro.launch import (Child, ChildCrashed, ChildDied, ChildTimeout,
                          close_all)
from repro.net.fabric import SimFabric
from repro.runtime.worker import find_task
from repro.util.errors import (
    ConfigError,
    DeadlockError,
    PlaceFailure,
    RuntimeStateError,
)
from repro.util.stats import RuntimeStats


@dataclasses.dataclass(frozen=True)
class ShardPlan:
    """Node-aligned partition of ``nranks`` ranks into ``nshards`` slices.

    Shards own whole nodes: cross-shard traffic is then always inter-node,
    so the cost model's lookahead bound applies to every message a shard
    cannot deliver itself (same-node and self sends never cross a shard).
    """

    nranks: int
    nshards: int
    ranks_per_node: int
    #: Per-shard contiguous rank range ``[lo, hi)``.
    bounds: Tuple[Tuple[int, int], ...]

    @classmethod
    def build(cls, nranks: int, nshards: int,
              ranks_per_node: int = 1) -> "ShardPlan":
        if nshards < 1:
            raise ConfigError(f"shards must be >= 1, got {nshards}")
        nnodes = (nranks + ranks_per_node - 1) // ranks_per_node
        if nshards > nnodes:
            raise ConfigError(
                f"cannot split {nnodes} node(s) across {nshards} shards; "
                "shards partition whole nodes (use fewer shards or more "
                "nodes)")
        q, r = divmod(nnodes, nshards)
        bounds = []
        node = 0
        for k in range(nshards):
            take = q + (1 if k < r else 0)
            lo = node * ranks_per_node
            node += take
            hi = min(node * ranks_per_node, nranks)
            bounds.append((lo, hi))
        return cls(nranks, nshards, ranks_per_node, tuple(bounds))

    def shard_of(self, rank: int) -> int:
        if not (0 <= rank < self.nranks):
            raise ConfigError(
                f"rank {rank} out of range [0, {self.nranks})")
        starts = [lo for lo, _ in self.bounds]
        return bisect.bisect_right(starts, rank) - 1


class _ShardSimExecutor(SimExecutor):
    """The engine bounded by a horizon, with a window hook at quiescence.

    ``_step`` first drains work strictly below ``_horizon``; when the slice
    is dry it invokes ``_window_hook`` (the barrier exchange). The hook
    returns True after advancing the horizon (keep stepping) or False when
    the run is finished or globally stalled. Because the exchange happens
    *inside* ``_step``, help-until-ready blocking (``block_until``) crosses
    window boundaries without any change."""

    def __init__(self, *, trace: bool = False, task_overhead: float = 0.0):
        super().__init__(trace=trace, task_overhead=task_overhead)
        self._horizon = 0.0
        self._window_hook: Optional[Callable[[], bool]] = None

    def _ready_head(self):
        """The lowest-clock maybe-ready worker, or None: the ready heap's
        top after dropping lazily-deleted entries and re-keying stale
        clocks, exactly as ``SimExecutor._step`` does."""
        ready, heap = self._maybe_ready, self._ready_heap
        while heap:
            clock, _rank, _wid, _seq, worker = heap[0]
            if worker not in ready:
                heapq.heappop(heap)
            elif clock != worker.clock:
                heapq.heapreplace(
                    heap, (worker.clock, worker.rank, worker.wid,
                           next(self._wake_seq), worker))
            else:
                return worker
        return None

    def next_activation(self) -> float:
        """Earliest virtual time this shard could act at, or +inf.

        May be conservatively low — a maybe-ready worker can turn out to
        have no task — which costs at most an extra window, never
        correctness."""
        worker = self._ready_head()
        t = math.inf if worker is None else worker.clock
        when = self._events.peek_when()
        if when is not None and when < t:
            t = when
        return t

    def _step_bounded(self) -> bool:
        """One task or event batch strictly below the horizon; False when
        the sub-horizon slice is drained."""
        horizon = self._horizon
        while True:
            worker = self._ready_head()
            if worker is None or worker.clock >= horizon:
                break
            task = find_task(worker)
            if task is None:
                self._maybe_ready.discard(worker)
                heapq.heappop(self._ready_heap)
                continue
            self._run_task(worker, task)
            return True
        when = self._events.peek_when()
        if when is not None and when < horizon:
            self._advance_events()
            return True
        return False

    def _step(self) -> bool:
        while True:
            if self._step_bounded():
                return True
            hook = self._window_hook
            if hook is None or not hook():
                return False


@dataclasses.dataclass
class ShardedSpmdResult:
    """Outcome of a sharded SPMD run (the cross-process analogue of
    :class:`repro.distrib.spmd.SpmdResult`)."""

    results: List[Any]
    makespan: float
    nshards: int
    plan: ShardPlan
    #: Merged ``"module.op"`` counters from every rank, plus the sharding
    #: layer's own: ``shards.windows``, ``shards.cross_shard_msgs``,
    #: ``shards.cross_shard_bytes``.
    counters: Dict[str, int]
    #: Per-shard telemetry: windows, cross_shard_msgs, cross_shard_bytes,
    #: idle_wall_s (wall time blocked at window barriers), events_processed.
    shard_counters: List[Dict[str, Any]]
    windows: int

    @property
    def nranks(self) -> int:
        return len(self.results)

    def merged_stats(self) -> RuntimeStats:
        out = RuntimeStats()
        for key, n in self.counters.items():
            module, _, op = key.partition(".")
            out.count(module, op, n)
        return out


# ----------------------------------------------------------------------
# shard worker (child process)
# ----------------------------------------------------------------------

# Wire (frames over the shard's control link, see :mod:`repro.launch`), one
# reply per window report:
#   shard -> ("win", next activation, done?, outboxes)
#   coordinator -> ("adv", horizon, inbox) | ("fin",) | ("dead",)
#   shard -> ("result", statuses, makespan, counters, telemetry)

def _run_shard(link, main, config, module_factories, plan, shard_id) -> None:
    """Body of one shard worker (a :class:`repro.launch.Child` runs it)."""
    from repro.distrib.spmd import RankContext, _bind_main
    from repro.platform.hwloc import discover
    from repro.runtime.runtime import HiperRuntime

    ex = _ShardSimExecutor(trace=config.trace,
                           task_overhead=config.task_overhead)
    fabric = SimFabric(ex, config.nranks, config.network,
                       ranks_per_node=config.ranks_per_node,
                       topology=config.topology, plan=plan, shard_id=shard_id)
    lo, hi = plan.bounds[shard_id]
    shared: dict = {}
    contexts = []
    for rank in range(lo, hi):
        model = discover(config.machine, num_workers=config.workers_per_rank,
                         detail=config.detail)
        model.name = f"{model.name}-r{rank}"
        rt = HiperRuntime(model, ex, paths=config.path_policy, rank=rank,
                          nranks=config.nranks, seed=config.seed)
        contexts.append(RankContext(rank, config.nranks, rt, fabric, config,
                                    shared=shared))
    for ctx in contexts:
        mods = [factory(ctx) for factory in module_factories]
        ctx.runtime.start(mods)

    futures = [
        ex.submit_root(ctx.runtime, _bind_main(main, ctx),
                       name=f"rank{ctx.rank}-main")
        for ctx in contexts
    ]

    state = {"finished": False}
    windows = 0
    idle_wall = 0.0

    def _exchange() -> bool:
        nonlocal windows, idle_wall
        if state["finished"]:
            return False
        outboxes = fabric.take_outboxes()
        t_next = ex.next_activation()
        done = all(f.satisfied for f in futures)
        t0 = time.perf_counter()
        link.send(("win", t_next, done, outboxes))
        reply = link.recv()
        idle_wall += time.perf_counter() - t0
        if reply is None:
            raise RuntimeStateError(
                f"shard {shard_id}: coordinator closed the link mid-window")
        if reply[0] == "adv":
            _, horizon, inbox = reply
            ex._horizon = horizon
            windows += 1
            if inbox:
                fabric.inject_remote(inbox)
            return True
        state["finished"] = True  # ("fin",) or ("dead",)
        return False

    ex._window_hook = _exchange
    ex._ensure_recursion_headroom()
    ex._stepping = True
    try:
        while not state["finished"]:
            if not ex._step():
                break
    finally:
        ex._stepping = False

    statuses: List[tuple] = []
    errored = False
    for ctx, fut in zip(contexts, futures):
        if not fut.satisfied:
            statuses.append(("error", ctx.rank, "DeadlockError",
                             f"rank {ctx.rank} stalled after a peer failure",
                             None))
            errored = True
            continue
        try:
            statuses.append(("ok", ctx.rank, fut.value()))
        except BaseException as exc:  # noqa: BLE001 - surface after loop
            statuses.append(("error", ctx.rank, type(exc).__name__, str(exc),
                             traceback.format_exc()))
            errored = True
    makespan = ex.makespan()
    merged = RuntimeStats()
    for ctx in contexts:
        try:
            ctx.runtime.shutdown()
        except Exception:  # noqa: BLE001 - see spmd_run: don't mask root cause
            if not errored:
                raise
        merged.merge(ctx.runtime.stats)
    shard_counters = {
        "shard": shard_id,
        "windows": windows,
        "cross_shard_msgs": fabric.cross_shard_msgs,
        "cross_shard_bytes": fabric.cross_shard_bytes,
        "idle_wall_s": idle_wall,
        "events_processed": ex.events_processed,
    }
    link.send(("result", statuses, makespan,
               merged.to_dict()["counters"], shard_counters))
    ex.shutdown()


# ----------------------------------------------------------------------
# coordinator (parent process)
# ----------------------------------------------------------------------

def _recv(child: Child, deadline: float, shard_id: int):
    """One frame from a shard, bounded by the run's wall deadline."""
    try:
        return child.recv(deadline - time.monotonic())
    except ChildTimeout:
        raise RuntimeStateError(
            f"sharded run timed out waiting for shard {shard_id}") from None
    except ChildDied as exc:
        raise PlaceFailure(
            f"shard {shard_id} died mid-window (pid {exc.pid}, exit code "
            f"{exc.exit_code})", place=f"shard-{shard_id}") from None
    except ChildCrashed as exc:  # outside rank code: those travel as results
        raise RuntimeStateError(str(exc)) from None


def _send(child: Child, frame: tuple) -> None:
    try:
        child.send(frame)
    except ChildDied:
        pass  # the _recv that follows every send says how it went


def sharded_spmd_run(
    main,
    config=None,
    *,
    module_factories: Sequence[Callable] = (),
    executor: SimExecutor,
    fault_injector=None,
    timeout: float = 300.0,
) -> ShardedSpmdResult:
    """Run ``main(ctx)`` on every rank across ``executor.shards`` OS-process
    shards; the conservative-window counterpart of
    :func:`repro.distrib.spmd.spmd_run` (which dispatches here when its
    executor was built with ``shards > 1``)."""
    from repro.distrib.spmd import ClusterConfig

    config = config or ClusterConfig()
    if fault_injector is not None:
        raise ConfigError(
            "fault injection requires shards=1: fault verdicts are "
            "per-message sender state the window protocol does not carry")
    nshards = executor.shards
    plan = ShardPlan.build(config.nranks, nshards, config.ranks_per_node)
    lookahead = config.network.lookahead(config.topology)

    children: List[Child] = []
    try:
        for k in range(nshards):
            children.append(Child.start(
                "fork", _run_shard,
                (main, config, tuple(module_factories), plan, k),
                name=f"shard {k}"))

        deadline = time.monotonic() + timeout
        horizon = 0.0
        windows = 0
        stalled = False
        while True:
            reports = [_recv(children[k], deadline, k)
                       for k in range(nshards)]
            n_min = math.inf
            all_done = True
            total_msgs = 0
            route: Dict[int, List[tuple]] = {k: [] for k in range(nshards)}
            for _, t_next, done, outboxes in reports:
                if t_next < n_min:
                    n_min = t_next
                all_done = all_done and done
                for dshard, msgs in outboxes.items():
                    route[dshard].extend(msgs)
                    total_msgs += len(msgs)
                    for m in msgs:
                        if m[0] < n_min:
                            n_min = m[0]
            if all_done and total_msgs == 0:
                for child in children:
                    _send(child, ("fin",))
                break
            if n_min == math.inf:
                # Nothing can ever happen again anywhere: every shard is out
                # of work below +inf and no message is in flight.
                stalled = True
                for child in children:
                    _send(child, ("dead",))
                break
            horizon = max(horizon, n_min + lookahead)
            windows += 1
            for k, child in enumerate(children):
                _send(child, ("adv", horizon, route[k]))

        results: List[Any] = [None] * config.nranks
        errors: List[Tuple[int, str, str]] = []
        counters: Dict[str, int] = {}
        shard_counters: List[Dict[str, Any]] = []
        makespan = 0.0
        for k in range(nshards):
            frame = _recv(children[k], deadline, k)
            _, statuses, shard_makespan, shard_stats, telemetry = frame
            makespan = max(makespan, shard_makespan)
            for key, n in shard_stats.items():
                counters[key] = counters.get(key, 0) + n
            telemetry["horizon_final"] = horizon
            shard_counters.append(telemetry)
            for status in statuses:
                if status[0] == "ok":
                    results[status[1]] = status[2]
                else:
                    _, rank, ename, emsg, _tb = status
                    errors.append((rank, ename, emsg))
    except BaseException:
        close_all(children, grace=0.0)
        raise
    codes = close_all(children)
    if any(codes):
        raise RuntimeStateError(
            f"shard process(es) did not exit cleanly after their results: "
            f"exit codes {codes}")

    cross_msgs = sum(t["cross_shard_msgs"] for t in shard_counters)
    cross_bytes = sum(t["cross_shard_bytes"] for t in shard_counters)
    counters["shards.windows"] = windows
    counters["shards.cross_shard_msgs"] = cross_msgs
    counters["shards.cross_shard_bytes"] = cross_bytes
    if errors:
        errors.sort(key=lambda e: e[1] == "DeadlockError")
        rank, ename, emsg = errors[0]
        first: Exception = (
            DeadlockError(emsg) if ename == "DeadlockError"
            else RuntimeStateError(f"{ename}: {emsg}"))
        raise ConfigError(
            f"{len(errors)} rank(s) failed; first failure on rank {rank}: "
            f"{ename}: {emsg}"
        ) from first
    if stalled:
        raise DeadlockError(
            "sharded engine quiesced before completion: every shard ran out "
            "of work with no messages in flight")
    return ShardedSpmdResult(results, makespan, nshards, plan, counters,
                             shard_counters, windows)
