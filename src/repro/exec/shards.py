"""Sharded parallel DES: one sub-simulator per shard, synchronized by
conservative time windows.

``SimExecutor(shards=N)`` partitions an SPMD run's ranks
across N OS processes. Each shard runs a plain ``SimExecutor`` over its
slice of the cluster (a contiguous, *node-aligned* rank range — see
:class:`ShardPlan`), and the shards advance in lockstep windows:

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
time is below ``H`` too — the bounded step needs no release guard.

**Determinism.** Within a shard the engine is the unmodified ``SimExecutor``:
the shard sets its step bound (``_horizon``, 0.0 until the first window) and
its window hook (the barrier exchange below) and calls ``drain()``. The
exchange runs *inside* ``SimExecutor._step`` when nothing is left below the
horizon, so help-until-ready blocking crosses window boundaries unchanged.
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
import math
import time
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Sequence,
                    Tuple)

from repro.exec.sim import SimExecutor
from repro.launch import (Child, ChildCrashed, ChildDied, ChildTimeout,
                          close_all)
from repro.net.fabric import SimFabric
from repro.util.errors import (
    ConfigError,
    DeadlockError,
    PlaceFailure,
    RuntimeStateError,
)

if TYPE_CHECKING:
    from repro.distrib.spmd import SpmdResult

#: Wall seconds a sharded run may take before its shards are torn down.
_TIMEOUT = 300.0


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
    from repro.distrib.spmd import RankGroup, merged_counters

    ex = SimExecutor(trace=config.trace, task_overhead=config.task_overhead)
    ex._horizon = 0.0
    fabric = SimFabric(ex, config.nranks, config.network,
                       ranks_per_node=config.ranks_per_node,
                       topology=config.topology, plan=plan, shard_id=shard_id)
    lo, hi = plan.bounds[shard_id]
    group = RankGroup(config, module_factories, ex, fabric, lo, hi)
    group.submit(main)

    finished = False
    windows = 0
    idle_wall = 0.0

    def _exchange() -> bool:
        nonlocal finished, windows, idle_wall
        if finished:
            return False
        outboxes = fabric.take_outboxes()
        # The earliest virtual time this shard could act at: the maybe-ready
        # set's lowest clock (conservatively low — a maybe-ready worker can
        # turn out to have no task, which costs at most an extra window) or
        # the next event, whichever is earlier.
        t_next = min((w.clock for w in ex._maybe_ready), default=math.inf)
        when = ex._events.peek_when()
        if when is not None and when < t_next:
            t_next = when
        done = all(f.satisfied for f in group.futures)
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
        finished = True  # ("fin",) or ("dead",)
        return False

    ex._window_hook = _exchange
    ex.drain()

    statuses = group.statuses(remote=True)
    makespan = ex.makespan()
    group.shutdown(statuses)
    shard_counters = {
        "shard": shard_id,
        "windows": windows,
        "cross_shard_msgs": fabric.cross_shard_msgs,
        "cross_shard_bytes": fabric.cross_shard_bytes,
        "idle_wall_s": idle_wall,
        "events_processed": ex.events_processed,
    }
    link.send(("result", statuses, makespan,
               merged_counters(group.contexts), shard_counters))
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


def run_shards(main, config, module_factories: Sequence[Callable],
               executor: SimExecutor) -> SpmdResult:
    """:func:`repro.distrib.spmd.spmd_run` on ``executor.shards``
    OS-process shards: start one worker per shard, coordinate the windows,
    then settle the ranks' statuses into one :class:`SpmdResult`."""
    from repro.distrib.spmd import SpmdResult, settle

    t0 = time.perf_counter()
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

        deadline = time.monotonic() + _TIMEOUT
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

        statuses: List[tuple] = []
        counters: Dict[str, int] = {}
        shard_counters: List[Dict[str, Any]] = []
        makespan = 0.0
        for k in range(nshards):
            frame = _recv(children[k], deadline, k)
            _, shard_statuses, shard_makespan, shard_stats, telemetry = frame
            makespan = max(makespan, shard_makespan)
            for key, n in shard_stats.items():
                counters[key] = counters.get(key, 0) + n
            telemetry["horizon_final"] = horizon
            shard_counters.append(telemetry)
            statuses.extend(shard_statuses)
    except BaseException:
        close_all(children, grace=0.0)
        raise
    codes = close_all(children)
    if any(codes):
        raise RuntimeStateError(
            f"shard process(es) did not exit cleanly after their results: "
            f"exit codes {codes}")

    counters["shards.windows"] = windows
    counters["shards.cross_shard_msgs"] = sum(
        t["cross_shard_msgs"] for t in shard_counters)
    counters["shards.cross_shard_bytes"] = sum(
        t["cross_shard_bytes"] for t in shard_counters)
    results = settle(statuses, config.nranks)
    if stalled:
        raise DeadlockError(
            "sharded engine quiesced before completion: every shard ran out "
            "of work with no messages in flight")
    return SpmdResult(results, makespan, time.perf_counter() - t0, executor,
                      windows=windows, shard_counters=shard_counters,
                      counters=counters)
