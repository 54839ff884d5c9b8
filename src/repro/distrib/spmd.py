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
from typing import Any, Callable, List, Optional, Sequence

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
    trace: bool = False
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

    @property
    def node(self) -> int:
        return self.fabric.node_of(self.rank)

    def __repr__(self) -> str:
        return f"RankContext(rank={self.rank}/{self.nranks})"


@dataclasses.dataclass
class SpmdResult:
    """Outcome of an SPMD run."""

    results: List[Any]
    makespan: float
    executor: SimExecutor
    fabric: SimFabric
    contexts: List[RankContext]

    def merged_stats(self) -> RuntimeStats:
        out = RuntimeStats()
        for ctx in self.contexts:
            out.merge(ctx.runtime.stats)
        return out

    @property
    def nranks(self) -> int:
        return len(self.results)


def spmd_run(
    main: Callable[[RankContext], Any],
    config: Optional[ClusterConfig] = None,
    *,
    module_factories: Sequence[ModuleFactory] = (),
    executor: Optional[SimExecutor] = None,
    fault_injector=None,
) -> SpmdResult:
    """Run ``main(ctx)`` on every rank; return per-rank results and timing.

    ``main`` may be a plain callable (blocking waits allowed) or a generator
    function (coroutine main, yielding futures). ``module_factories`` build
    each rank's pluggable modules, e.g.::

        spmd_run(main, cfg, module_factories=[mpi_factory(), cuda_factory()])

    ``fault_injector`` (a :class:`repro.resilience.FaultInjector`) hooks the
    run for chaos testing: message faults into the fabric, task faults into
    the executor, and per-rank timed failures, retry policies, and
    checkpoint-store faults via ``arm_rank``.
    """
    config = config or ClusterConfig()
    ex = executor or SimExecutor(trace=config.trace,
                                 task_overhead=config.task_overhead)
    if getattr(ex, "shards", 1) > 1:
        # Sharded parallel DES: one flat sub-simulator per OS-process shard,
        # synchronized by conservative time windows (repro.exec.shards).
        from repro.exec.shards import sharded_spmd_run

        return sharded_spmd_run(
            main, config, module_factories=module_factories, executor=ex,
            fault_injector=fault_injector)
    nranks = config.nranks
    fabric = SimFabric(ex, nranks, config.network,
                       ranks_per_node=config.ranks_per_node,
                       topology=config.topology)
    if fault_injector is not None:
        fault_injector.attach(ex, fabric)

    shared: dict = {}
    contexts: List[RankContext] = []
    for rank in range(nranks):
        model = discover(
            config.machine,
            num_workers=config.workers_per_rank,
            detail=config.detail,
        )
        model.name = f"{model.name}-r{rank}"
        rt = HiperRuntime(
            model, ex, paths=config.path_policy, rank=rank, nranks=nranks,
            seed=config.seed,
        )
        ctx = RankContext(rank, nranks, rt, fabric, config, shared=shared)
        contexts.append(ctx)

    # Install modules only after every context exists: module initializers
    # may exchange registrations through the fabric.
    for ctx in contexts:
        mods = [factory(ctx) for factory in module_factories]
        ctx.runtime.start(mods)
    if fault_injector is not None:
        # After module install: retry policies need registered channels, and
        # storage hooks need the checkpoint module's store to exist.
        for ctx in contexts:
            fault_injector.arm_rank(ctx)

    futures = [
        ex.submit_root(ctx.runtime, _bind_main(main, ctx), name=f"rank{ctx.rank}-main")
        for ctx in contexts
    ]
    # Count roots down as they finish: drive() evaluates its predicate before
    # every engine step, where a scan of the roots costs a generator each.
    unfinished = set(futures)
    for f in futures:
        f.on_ready(unfinished.discard)
    try:
        ex.drive(lambda: not unfinished)
    except DeadlockError:
        # A rank that died (its future carries the exception) strands its
        # peers at barriers/receives; surface the root cause, not the stall.
        if not any(f.satisfied for f in futures):
            raise

    results = []
    errors = []
    for rank, fut in enumerate(futures):
        if not fut.satisfied:
            errors.append((rank, DeadlockError(
                f"rank {rank} stalled after a peer failure")))
            results.append(None)
            continue
        try:
            results.append(fut.value())
        except BaseException as exc:  # noqa: BLE001 - surface after loop
            errors.append((rank, exc))
            results.append(None)
    makespan = ex.makespan()
    for ctx in contexts:
        try:
            ctx.runtime.shutdown()
        except Exception:  # noqa: BLE001
            # Finalize complaints (un-quieted ops etc.) are expected fallout
            # of a rank failure; don't let them mask the root cause.
            if not errors:
                raise
    if errors:
        errors.sort(key=lambda e: isinstance(e[1], DeadlockError))
        rank, first = errors[0]
        raise ConfigError(
            f"{len(errors)} rank(s) failed; first failure on rank {rank}: "
            f"{type(first).__name__}: {first}"
        ) from first
    return SpmdResult(results, makespan, ex, fabric, contexts)


def _bind_main(main: Callable[[RankContext], Any], ctx: RankContext):
    def _main():
        return main(ctx)

    _main.__name__ = f"main_rank{ctx.rank}"
    return _main
