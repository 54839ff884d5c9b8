"""SPMD launcher: run ``main(ctx)`` on every rank of a simulated cluster.

One :class:`SimExecutor` drives every rank's runtime in a single deterministic
virtual-time engine; one :class:`SimFabric` carries all communication. This is
the reproduction's substitute for ``aprun``/``srun`` on Edison/Titan.

The paper's two process layouts map directly:

- *flat* (1 process per core): ``ranks_per_node = cores, workers_per_rank = 1``
- *hybrid* (1-2 processes per node): ``ranks_per_node = 1, workers_per_rank =
  cores`` (the paper's Titan hybrid configuration).
"""

from __future__ import annotations

import dataclasses
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.exec.sim import SimExecutor
from repro.net.costmodel import NetworkModel, network
from repro.net.fabric import SimFabric
from repro.net.mux import FabricMux
from repro.platform.hwloc import MachineSpec, discover, machine
from repro.runtime.runtime import HiperRuntime
from repro.util.errors import ConfigError, DeadlockError
from repro.util.stats import RuntimeStats

ModuleFactory = Callable[["RankContext"], Any]


@dataclasses.dataclass
class ClusterConfig:
    """Shape of the simulated cluster and run."""

    nodes: int = 1
    ranks_per_node: int = 1
    workers_per_rank: int = 1
    machine: MachineSpec = dataclasses.field(
        default_factory=lambda: machine("workstation")
    )
    network: NetworkModel = dataclasses.field(default_factory=lambda: network("generic"))
    path_policy: str = "default"
    #: Platform-graph granularity per rank; "flat" keeps simulations fast.
    detail: str = "flat"
    seed: int = 0
    #: Virtual seconds charged per task dispatch (runtime-overhead ablation).
    task_overhead: float = 0.0
    #: Hop-distance topology refining the wire latency (None = uniform).
    topology: Optional[object] = None

    def __post_init__(self):
        if self.nodes < 1 or self.ranks_per_node < 1 or self.workers_per_rank < 1:
            raise ConfigError("nodes, ranks_per_node, workers_per_rank must be >= 1")
        if self.ranks_per_node * self.workers_per_rank > self.machine.cores * 4:
            raise ConfigError(
                f"{self.ranks_per_node} ranks x {self.workers_per_rank} workers "
                f"heavily oversubscribes {self.machine.cores} cores on "
                f"{self.machine.name!r}"
            )

    @property
    def nranks(self) -> int:
        return self.nodes * self.ranks_per_node


class RankContext:
    """Everything one rank's ``main`` needs: identity, runtime, modules.

    ``main`` functions should be *generator* functions that ``yield`` on the
    futures the modules return: in the simulated executor a yielded coroutine
    releases its worker entirely, which is the safe way for iterative SPMD
    patterns to block (see ``SimExecutor`` docs on help-until-ready nesting).
    """

    def __init__(self, rank: int, nranks: int, runtime: HiperRuntime,
                 fabric: SimFabric, config: ClusterConfig,
                 shared: Optional[dict] = None):
        self.rank = rank
        self.nranks = nranks
        self.runtime = runtime
        self.fabric = fabric
        self.config = config
        #: One dict object shared by every rank of the run; modules use it to
        #: find their peer instances (e.g. UPC++ RPC target runtimes).
        self.shared = shared if shared is not None else {}
        self._mux: Optional["FabricMux"] = None

    @property
    def mux(self) -> "FabricMux":
        """The rank's protocol multiplexer (created on first use).

        The runtime's stats registry is attached so every module's
        communication volume is accounted per channel automatically.
        """
        if self._mux is None:
            self._mux = FabricMux(self.fabric, self.rank,
                                  stats=self.runtime.stats)
        return self._mux

    # Convenience accessors for the standard modules (raise if not installed).
    @property
    def mpi(self):
        return self.runtime.module("mpi")

    @property
    def shmem(self):
        return self.runtime.module("shmem")

    @property
    def cuda(self):
        return self.runtime.module("cuda")

    @property
    def upcxx(self):
        return self.runtime.module("upcxx")

    def __repr__(self) -> str:
        return f"RankContext(rank={self.rank}/{self.nranks})"


#: One rank's outcome, the same shape on every back end:
#: ``("ok", rank, value)`` or ``("error", rank, type name, message, detail)``.
#: ``detail`` is the exception itself for an in-process rank, and the remote
#: traceback text ("" when there is none, e.g. a lost process) for a rank
#: that ran in another process — which is why it pickles.
Status = Tuple

#: Which failure a report leads with: a lost rank before the broken pipes and
#: errors it left its peers, and anything before a stranded peer's stall.
_LEAD = {"ChildDied": 0, "ChildCrashed": 0, "DeadlockError": 2}


def failure(rank: int, exc: BaseException, *, remote: bool) -> Status:
    """The error status of ``rank`` for ``exc`` (call it in the handler)."""
    return ("error", rank, type(exc).__name__, str(exc),
            traceback.format_exc() if remote else exc)


def settle(statuses: Sequence[Optional[Status]], nranks: int) -> List[Any]:
    """Per-rank results of a run, or its first failure raised as one
    :class:`ConfigError`. A None status is a rank that never started
    because a peer's setup failed; it is no failure of its own."""
    results: List[Any] = [None] * nranks
    errors = []
    for status in statuses:
        if status is None:
            continue
        if status[0] == "ok":
            results[status[1]] = status[2]
        else:
            errors.append(status)
    if errors:
        errors.sort(key=lambda e: _LEAD.get(e[2], 1))
        _, rank, ename, emsg, detail = errors[0]
        cause = detail if isinstance(detail, BaseException) else None
        text = f"\n--- rank {rank} traceback ---\n{detail}" \
            if detail and cause is None else ""
        raise ConfigError(
            f"{len(errors)} rank(s) failed; first failure on rank {rank}: "
            f"{ename}: {emsg}{text}"
        ) from cause
    return results


class RankGroup:
    """Ranks ``[lo, hi)`` of one SPMD run on one executor and one fabric.

    The rank lifecycle, written once for every back end: the in-process run
    holds all ranks in one group, a shard worker its slice, a procs rank
    process a group of one. Building the group creates every context first
    and only then starts modules (module initializers may exchange
    registrations through the fabric).
    """

    def __init__(self, config: ClusterConfig,
                 module_factories: Sequence[ModuleFactory], executor,
                 fabric, lo: int, hi: int, shared: Optional[dict] = None):
        nranks = config.nranks
        shared = {} if shared is None else shared
        self.executor = executor
        self.contexts: List[RankContext] = []
        for rank in range(lo, hi):
            model = discover(config.machine,
                             num_workers=config.workers_per_rank,
                             detail=config.detail)
            model.name = f"{model.name}-r{rank}"
            rt = HiperRuntime(model, executor, paths=config.path_policy,
                              rank=rank, nranks=nranks, seed=config.seed)
            self.contexts.append(
                RankContext(rank, nranks, rt, fabric, config, shared=shared))
        for ctx in self.contexts:
            ctx.runtime.start([factory(ctx) for factory in module_factories])
        self.futures: List[Any] = []

    def submit(self, main: Callable[[RankContext], Any]) -> None:
        """Enqueue every rank's main as a root task (does not drive)."""
        self.futures = [
            self.executor.submit_root(ctx.runtime, _bind_main(main, ctx),
                                      name=f"rank{ctx.rank}-main")
            for ctx in self.contexts
        ]

    def run(self, main: Callable[[RankContext], Any]) -> None:
        """Submit every main and drive the executor until all finished. A
        stall after some rank finished is a peer failure's fallout, which
        :meth:`statuses` reports; a stall before any finished is raised."""
        self.submit(main)
        # Count roots down as they finish: drive() evaluates its predicate
        # before every engine step, where a scan of the roots costs a
        # generator each.
        unfinished = set(self.futures)
        for f in self.futures:
            f.on_ready(unfinished.discard)
        try:
            self.executor.drive(lambda: not unfinished)
        except DeadlockError:
            if not any(f.satisfied for f in self.futures):
                raise

    def statuses(self, *, remote: bool = False) -> List[Status]:
        """Each rank's outcome; ``remote`` when it will cross a process."""
        out: List[Status] = []
        for ctx, fut in zip(self.contexts, self.futures):
            if not fut.satisfied:
                out.append(("error", ctx.rank, "DeadlockError",
                            f"rank {ctx.rank} stalled after a peer failure",
                            ""))
                continue
            try:
                out.append(("ok", ctx.rank, fut.value()))
            except BaseException as exc:  # noqa: BLE001 - reported, not raised
                out.append(failure(ctx.rank, exc, remote=remote))
        return out

    def shutdown(self, statuses: Sequence[Status]) -> None:
        """Shut every runtime down. Finalize complaints (un-quieted ops etc.)
        are expected fallout of a rank failure, so they are raised only when
        no rank failed: they must not mask the root cause."""
        failed = any(s[0] == "error" for s in statuses)
        for ctx in self.contexts:
            try:
                ctx.runtime.shutdown()
            except Exception:  # noqa: BLE001
                if not failed:
                    raise



def merged_counters(contexts: Sequence[RankContext]) -> Dict[str, int]:
    """The ranks' ``"module.op"`` counters, summed."""
    out: Dict[str, int] = {}
    for ctx in contexts:
        for (module, op), n in ctx.runtime.stats.counters.items():
            key = f"{module}.{op}"
            out[key] = out.get(key, 0) + int(n)
    return out


class SpmdResult:
    """Outcome of an SPMD run, on every back end.

    ``makespan`` is virtual time, so None on the procs back end. In-process
    runs keep their ``fabric`` and rank ``contexts``, whose stats are merged
    only when asked; sharded runs carry the window protocol's ``windows``
    and per-shard ``shard_counters``. Off-process back ends pass their
    merged ``counters`` in.
    """

    def __init__(self, results: List[Any], makespan: Optional[float],
                 wall_s: float, executor, *,
                 counters: Optional[Dict[str, int]] = None,
                 fabric: Optional[SimFabric] = None,
                 contexts: Sequence[RankContext] = (), windows: int = 0,
                 shard_counters: Sequence[Dict[str, Any]] = ()):
        self.results = results
        self.makespan = makespan
        self.wall_s = wall_s
        self.executor = executor
        self.fabric = fabric
        self.contexts = list(contexts)
        self.windows = windows
        self.shard_counters = list(shard_counters)
        self._counters = counters

    @property
    def counters(self) -> Dict[str, int]:
        """Merged ``"module.op"`` counters of every rank."""
        if self._counters is None:
            self._counters = merged_counters(self.contexts)
        return self._counters

    def merged_stats(self) -> RuntimeStats:
        out = RuntimeStats()
        if self.contexts:
            for ctx in self.contexts:
                out.merge(ctx.runtime.stats, ctx.rank)
        else:
            for key, n in (self._counters or {}).items():
                module, _, op = key.partition(".")
                out.count(module, op, n)
        return out

    @property
    def nranks(self) -> int:
        return len(self.results)


def spmd_run(
    main: Callable[[RankContext], Any],
    config: Optional[ClusterConfig] = None,
    *,
    module_factories: Sequence[ModuleFactory] = (),
    executor=None,
    fault_injector=None,
) -> SpmdResult:
    """Run ``main(ctx)`` on every rank; return per-rank results and timing.

    ``main`` may be a plain callable (blocking waits allowed) or a generator
    function (coroutine main, yielding futures). ``module_factories`` build
    each rank's pluggable modules, e.g.::

        spmd_run(main, cfg, module_factories=[mpi_factory(), cuda_factory()])

    The executor selects where the ranks run: in this process on one
    :class:`SimExecutor` (the default), across OS-process shards on a
    ``SimExecutor(shards=N)`` (:mod:`repro.exec.shards`), or one OS process
    per rank on a :class:`~repro.exec.procs.ProcessExecutor`. Off-process
    back ends pickle ``main`` and the factories under the ``subprocess``
    launcher, so pass module-level functions or partials of them there.

    ``fault_injector`` (a :class:`repro.resilience.FaultInjector`) hooks the
    run for chaos testing: message faults into the fabric, task faults into
    the executor, and per-rank timed failures, retry policies, and
    checkpoint-store faults via ``arm_rank``. It runs in-process only.
    """
    from repro.exec.procs import ProcessExecutor

    config = config or ClusterConfig()
    ex = executor or SimExecutor(task_overhead=config.task_overhead)
    procs = isinstance(ex, ProcessExecutor)
    shards = getattr(ex, "shards", 1)
    if procs or shards > 1:
        backend = "procs" if procs else f"shards={shards}"
        if fault_injector is not None:
            raise ConfigError(
                f"fault injection runs in-process only, not on the {backend} "
                "back end: fault verdicts are per-message sender state that "
                "does not cross a process boundary")
        if procs:
            return ex.run(main, config, module_factories)
        from repro.exec.shards import run_shards

        return run_shards(main, config, module_factories, ex)

    t0 = time.perf_counter()
    fabric = SimFabric(ex, config.nranks, config.network,
                       ranks_per_node=config.ranks_per_node,
                       topology=config.topology)
    if fault_injector is not None:
        fault_injector.attach(ex, fabric)
    group = RankGroup(config, module_factories, ex, fabric, 0, config.nranks)
    if fault_injector is not None:
        # After module install: retry policies need registered channels, and
        # storage hooks need the checkpoint module's store to exist.
        for ctx in group.contexts:
            fault_injector.arm_rank(ctx)
    group.run(main)
    statuses = group.statuses()
    makespan = ex.makespan()
    group.shutdown(statuses)
    results = settle(statuses, config.nranks)
    return SpmdResult(results, makespan, time.perf_counter() - t0, ex,
                      fabric=fabric, contexts=group.contexts)


def _bind_main(main: Callable[[RankContext], Any], ctx: RankContext):
    def _main():
        return main(ctx)

    _main.__name__ = f"main_rank{ctx.rank}"
    return _main
