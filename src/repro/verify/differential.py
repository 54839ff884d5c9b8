"""Sim ↔ threaded ↔ interleave differential checker.

Runs the same task-parallel workload on different engines and asserts that
(1) the *results* are identical — each workload returns a deterministic,
schedule-independent value (a digest of its output) — and (2) the quiesce
invariants (:mod:`repro.verify.invariants`) hold on every engine. Any
divergence means an engine bug: the policy core is shared, so only the
mechanism (threading, time, wakeups) can differ.

The workloads reuse the benchmark apps' kernels (``repro.apps``) in
single-runtime task-parallel form — SPMD drivers are simulator-only, so the
differential versions express the same computations as finish/async fan-outs
that every engine can run:

- **ISx** — bucket sort: partition keys by range, sort buckets in parallel
  tasks, concatenate; digest must equal the digest of ``np.sort`` on the
  whole array.
- **UTS** — unbounded tree search: one task per tree node under a single
  finish scope; the count must equal :func:`sequential_count`.
- **Graph500** — level-synchronous BFS: frontier chunks expand in parallel
  tasks, candidate edges merge *sequentially between levels* in chunk order,
  making the parent array schedule-independent; validated with
  :func:`validate_bfs` and digested. Expansion is one vectorised CSR gather
  per chunk and the merge one first-occurrence pass per level; the parent
  array is bit-identical to the scalar per-edge loop, which is a queue BFS
  (the reference in ``tests/g500_reference.py``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.graph500.common import (
    Graph500Config,
    build_csr,
    kronecker_edges,
    neighbors,
    pick_root,
    validate_bfs,
)
from repro.apps.isx.common import IsxConfig, generate_keys, local_sort
from repro.apps.uts.common import UtsConfig, children, root_node, sequential_count
from repro.exec.sim import SimExecutor
from repro.exec.threaded import ThreadedExecutor
from repro.platform.hwloc import discover, machine
from repro.runtime.api import async_, async_future, finish
from repro.runtime.runtime import HiperRuntime
from repro.verify.invariants import InvariantReport, check_quiesce
from repro.verify.strategies import VerificationError, make_strategy


# ----------------------------------------------------------------------
# workloads (each returns a root body whose value is a digestable tuple)
# ----------------------------------------------------------------------
def isx_workload(cfg: Optional[IsxConfig] = None,
                 nbuckets: int = 8) -> Callable[[], Tuple]:
    """Parallel bucket sort over one PE's ISx key array."""
    cfg = cfg or IsxConfig(keys_per_pe=1 << 11)

    def root() -> Tuple:
        keys = generate_keys(cfg, 0, 1)
        width = (cfg.max_key + nbuckets - 1) // nbuckets
        futs: List[Any] = []

        def body() -> None:
            for b in range(nbuckets):
                lo, hi = b * width, (b + 1) * width
                sel = keys[(keys >= lo) & (keys < hi)]
                futs.append(async_future(
                    lambda s=sel: local_sort(s), name=f"isx-bucket-{b}"))

        finish(body, name="isx-sort")
        out = np.concatenate([f.value() for f in futs])
        if not np.array_equal(out, np.sort(keys)):
            raise AssertionError("bucketed sort diverged from np.sort")
        return ("isx", int(out.size),
                hashlib.sha256(out.tobytes()).hexdigest())

    root.__name__ = "isx_bucket_sort"
    return root


def uts_workload(cfg: Optional[UtsConfig] = None) -> Callable[[], Tuple]:
    """One task per UTS tree node; count must match the sequential walk."""
    cfg = cfg or UtsConfig(root_children=40, mean_children=0.8, node_cost=0.0)
    want = sequential_count(cfg)

    def root() -> Tuple:
        total: List[int] = []  # list.append is GIL-atomic on every engine

        def visit(node) -> None:
            total.append(1)
            for ch in children(cfg, node):
                async_(lambda c=ch: visit(c), name="uts-node")

        finish(lambda: visit(root_node(cfg)), name="uts-walk")
        got = len(total)
        if got != want:
            raise AssertionError(
                f"UTS counted {got} nodes, sequential walk says {want}")
        return ("uts", got)

    root.__name__ = "uts_tree_count"
    return root


def bfs_expand(row_starts: np.ndarray, cols: np.ndarray, parent: np.ndarray,
               part: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """One frontier chunk's claims ``(u, v)``: each neighbour ``u`` of a
    chunk vertex ``v`` that has no parent yet, in CSR order.

    ``parent`` is only *read* during a level (writes happen in the
    sequential merge), so this is schedule-independent.
    """
    u, v = neighbors(row_starts, cols, part)
    fresh = parent[u] < 0
    return u[fresh], v[fresh]


def bfs_merge(parent: np.ndarray,
              claims: Sequence[Tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Apply the chunks' claims in chunk order, the first claim of a vertex
    winning, so the parent array is engine-independent; returns the next
    frontier in claim order."""
    u = np.concatenate([c[0] for c in claims])
    v = np.concatenate([c[1] for c in claims])
    _, first = np.unique(u, return_index=True)
    first.sort()
    nxt = u[first]
    parent[nxt] = v[first]
    return nxt


def graph500_workload(cfg: Optional[Graph500Config] = None,
                      chunk: int = 128) -> Callable[[], Tuple]:
    """Level-synchronous parallel BFS with deterministic inter-level merge."""
    cfg = cfg or Graph500Config(scale=8)

    def root() -> Tuple:
        edges = kronecker_edges(cfg)
        n = cfg.nvertices
        row_starts, cols = build_csr(edges, n)
        src = pick_root(cfg, row_starts)
        parent = np.full(n, -1, dtype=np.int64)
        parent[src] = src
        frontier = np.array([src], dtype=np.int64)
        while frontier.size:
            futs: List[Any] = []

            def body() -> None:
                for i in range(0, frontier.size, chunk):
                    part = frontier[i:i + chunk]
                    futs.append(async_future(
                        lambda p=part: bfs_expand(row_starts, cols, parent, p),
                        name=f"bfs-chunk-{i // chunk}"))

            finish(body, name="bfs-level")
            frontier = bfs_merge(parent, [f.value() for f in futs])
        reached = validate_bfs(cfg, edges, src, parent)
        return ("graph500", int(reached),
                hashlib.sha256(parent.tobytes()).hexdigest())

    root.__name__ = "graph500_bfs"
    return root


def _isx_dag_factory() -> Callable[[], Tuple]:
    # Deferred import: repro.taskgraph sits above the runtime layer that
    # this module is imported alongside.
    from repro.taskgraph.workloads import isx_dag_workload

    return isx_dag_workload()


#: name -> zero-arg factory producing a fresh root body (CI-sized configs).
WORKLOADS: Dict[str, Callable[[], Callable[[], Tuple]]] = {
    "isx": isx_workload,
    "uts": uts_workload,
    "graph500": graph500_workload,
    "isx-dag": _isx_dag_factory,
}


# ----------------------------------------------------------------------
# engines
# ----------------------------------------------------------------------
def make_engine(name: str, *, seed: int = 0, strategy: str = "random",
                block_timeout: float = 60.0):
    if name == "sim":
        return SimExecutor()
    if name == "ref-sim":
        # The seed engine (scan-min selection, heapq events): production
        # must reproduce its schedules bit for bit.
        from repro.verify.reference import ReferenceSimExecutor

        return ReferenceSimExecutor()
    if name == "threads":
        return ThreadedExecutor(block_timeout=block_timeout)
    if name == "interleave":
        from repro.verify.interleave import InterleaveExecutor

        return InterleaveExecutor(make_strategy(strategy, seed))
    raise VerificationError(
        f"unknown engine {name!r}; choose from sim/ref-sim/threads/interleave")


@dataclass
class EngineRun:
    """One workload execution on one engine."""

    engine: str
    result: Any
    invariants: InvariantReport


def run_on_engine(workload: Callable[[], Any], engine: str, *,
                  workers: int = 4, seed: int = 0,
                  strategy: str = "random") -> EngineRun:
    ex = make_engine(engine, seed=seed, strategy=strategy)
    model = discover(machine("workstation"), num_workers=workers,
                     with_interconnect=False)
    rt = HiperRuntime(model, ex).start()
    try:
        result = rt.run(workload, name=getattr(workload, "__name__", "diff"))
        invariants = check_quiesce(rt)
    finally:
        rt.shutdown()
        ex.shutdown()
    return EngineRun(engine=engine, result=result, invariants=invariants)


# ----------------------------------------------------------------------
# the differential check
# ----------------------------------------------------------------------
@dataclass
class DifferentialReport:
    """Cross-engine comparison for one workload."""

    workload: str
    runs: List[EngineRun] = field(default_factory=list)
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def describe(self) -> str:
        status = "OK" if self.ok else "FAIL"
        lines = [f"[{status}] differential {self.workload}: "
                 f"{', '.join(r.engine for r in self.runs)}"]
        for r in self.runs:
            lines.append(f"  {r.engine}: result={r.result!r} "
                         f"{r.invariants.describe()}")
        lines.extend(f"  MISMATCH: {m}" for m in self.mismatches)
        return "\n".join(lines)


def _compare(rep: DifferentialReport) -> DifferentialReport:
    """Every run's result must equal the first run's, and every run's
    quiesce invariants must hold; anything else is recorded as a mismatch
    (``describe()`` prints the results themselves)."""
    baseline = rep.runs[0]
    for run in rep.runs[1:]:
        if run.result != baseline.result:
            rep.mismatches.append(
                f"{run.engine} result != {baseline.engine} result")
    for run in rep.runs:
        if not run.invariants.ok:
            rep.mismatches.append(
                f"{run.engine}: {run.invariants.describe()}")
    return rep


def _isx_spmd_differential(workload: str, arms, *, variant: str,
                           platform: str, nodes: int, makespan: bool = False,
                           **cluster_kw) -> DifferentialReport:
    """The same SPMD ISx exchange once per arm — ``(label, module factory,
    executor)`` — on a fresh ``cluster_for(platform, nodes, **cluster_kw)``:
    every run must pass the ISx oracle and produce the first arm's per-rank
    output digests (and, with ``makespan``, its exact virtual makespan).
    Quiesce invariants are checked per rank inside ``spmd_run``, so the runs
    carry an empty invariant set."""
    from repro.apps.isx import IsxConfig, isx_main, validate_isx
    from repro.bench.harness import cluster_for
    from repro.distrib import spmd_run

    cfg = IsxConfig(keys_per_pe=1 << 10, byte_scale=1 << 7)
    rep = DifferentialReport(workload=workload)
    for label, factory, executor in arms:
        res = spmd_run(isx_main(variant, cfg),
                       cluster_for(platform, nodes, **cluster_kw),
                       module_factories=[factory], executor=executor)
        validate_isx(cfg, res.nranks, res.results)
        digest = tuple(
            hashlib.sha256(np.asarray(r).tobytes()).hexdigest()
            for r in res.results
        )
        timing = (repr(res.makespan),) if makespan else ()
        rep.runs.append(EngineRun(
            engine=label, result=(workload, res.nranks) + timing + (digest,),
            invariants=InvariantReport(),
        ))
    return _compare(rep)


def isx_coalescing_differential(
    nodes: int = 2,
    *,
    platform: str = "titan",
    workers_cap: int = 4,
) -> DifferentialReport:
    """ISx bucket exchange with message coalescing ON vs. OFF must produce
    identical per-rank sorted outputs (and pass the ISx oracle both ways).

    Coalescing reshapes virtual-time schedules — batches inject at flush
    points instead of per message — but may never change *results*: batch
    unpacking preserves per-destination FIFO order and quiet/barrier flush
    the buffers, so the data that lands in each PE's window is the same set
    either way. This check pins that contract end-to-end on the real SPMD
    exchange path (fadds + puts + barriers over the fabric).
    """
    from repro.apps.presets import comm_coalesce
    from repro.shmem import shmem_factory

    return _isx_spmd_differential(
        "isx-coalescing",
        [("coalesce-off", shmem_factory(), None),
         ("coalesce-on", shmem_factory(coalesce=comm_coalesce()), None)],
        variant="hiper", platform=platform, nodes=nodes, layout="hybrid",
        workers_cap=workers_cap)


def isx_engine_differential(
    nodes: int = 4,
    *,
    platform: str = "titan",
    variant: str = "flat",
) -> DifferentialReport:
    """The DES engine's gate: the same SPMD ISx run under the reference
    (:class:`~repro.verify.reference.ReferenceSimExecutor`) and under
    :class:`SimExecutor` must produce bit-identical makespans and per-rank
    output digests.

    This exercises the full production event path — fetch-add reservation
    waves, puts, barriers, coalesced deliveries, help-until-ready nesting —
    so an event ordered differently anywhere in the calendar queue shows up
    as a digest or makespan mismatch. At 4 Titan nodes the flat layout is
    64 PEs, big enough for multi-thousand-event cohorts while staying
    CI-sized.
    """
    from repro.shmem import shmem_factory
    from repro.verify.reference import ReferenceSimExecutor

    return _isx_spmd_differential(
        "isx-engine",
        [("ref-sim", shmem_factory(direct=True), ReferenceSimExecutor()),
         ("sim", shmem_factory(direct=True), SimExecutor())],
        variant=variant, platform=platform, nodes=nodes, layout="flat",
        makespan=True)


def isx_sharded_differential(
    nodes: int = 4,
    *,
    shards: int = 2,
    platform: str = "titan",
    variant: str = "flat",
) -> DifferentialReport:
    """The sharded DES engine's gate: the same SPMD ISx run single-shard and
    with ``shards=N`` sub-simulator processes must produce identical per-rank
    output digests.

    Unlike :func:`isx_engine_differential`, makespans are *not* compared:
    receiver-NIC contention is resolved against shard-local send
    interleavings, so cross-shard virtual times legitimately differ from the
    global single-engine schedule (the same caveat the procs backend
    documents). Results — the data every rank computes — must not.
    """
    from repro.shmem import shmem_factory

    return _isx_spmd_differential(
        "isx-sharded",
        [("flat", shmem_factory(direct=True), SimExecutor()),
         (f"sharded-{shards}", shmem_factory(direct=True),
          SimExecutor(shards=shards))],
        variant=variant, platform=platform, nodes=nodes, layout="flat")


def taskgraph_differential(
    engines: Sequence[str] = ("sim", "threads"),
    *,
    workers: int = 4,
) -> DifferentialReport:
    """DAG-vs-futures gate: the ISx sort with graph-inferred dependencies
    (:func:`repro.taskgraph.workloads.isx_dag_workload`) must produce the
    digest tuple of the hand-wired-futures version (:func:`isx_workload`)
    on every engine.

    Same kernels, same data, only the dependency wiring differs — so any
    divergence is a task-graph edge-inference bug (a missed WAR edge, a
    version chain that let a reader see a half-written bucket), not a
    kernel bug.
    """
    from repro.taskgraph.workloads import isx_dag_workload

    rep = DifferentialReport(workload="isx-dag-vs-futures")
    for engine in engines:
        rep.runs.append(run_on_engine(isx_workload(), engine,
                                      workers=workers))
        rep.runs[-1].engine = f"futures@{engine}"
        rep.runs.append(run_on_engine(isx_dag_workload(), engine,
                                      workers=workers))
        rep.runs[-1].engine = f"dag@{engine}"
    return _compare(rep)


def _run_spmd_twin(workload_name: str, engine: str, *, workers: int,
                   seed: int, nranks: int = 4) -> EngineRun:
    """Run the SPMD twin of a workload on the multiprocess backend
    (``procs``) or across 2 shards of the sharded DES engine (``sharded``).

    The twins (:mod:`repro.verify.spmd_workloads`) are constructed so their
    combined digest equals the single-runtime digest, which puts real OS
    processes — or the window protocol, the cross-shard fabric and the shard
    shmem backend — into the same comparison as every other engine. Quiesce
    invariants are checked per rank in each child, so the set here is empty.
    """
    from repro.exec.procs import ProcessExecutor
    from repro.verify.spmd_workloads import run_spmd_workload

    executor = ProcessExecutor() if engine == "procs" else SimExecutor(shards=2)
    digest, _res = run_spmd_workload(
        workload_name, executor, nranks=nranks, seed=seed,
        workers_per_rank=max(1, workers // 2))
    return EngineRun(engine=engine, result=digest,
                     invariants=InvariantReport())


def differential(
    workload_name: str,
    engines: Sequence[str] = ("sim", "threads"),
    *,
    workers: int = 4,
    seed: int = 0,
    strategy: str = "random",
) -> DifferentialReport:
    """Run one named workload on each engine; compare results + invariants.

    A *fresh* root body is built per engine (factories close over config
    only, never over run state). The ``procs`` engine runs the workload's
    SPMD twin across real OS processes; its digest is constructed to match
    the single-runtime engines' digest bit-for-bit."""
    try:
        factory = WORKLOADS[workload_name]
    except KeyError:
        raise VerificationError(
            f"unknown workload {workload_name!r}; "
            f"choose from {sorted(WORKLOADS)}") from None
    rep = DifferentialReport(workload=workload_name)
    for engine in engines:
        if engine in ("procs", "sharded"):
            # These engines run the workload's SPMD twin; workloads without
            # one (isx-dag, which has its own taskgraph_differential gate)
            # are compared across the single-runtime engines only.
            from repro.verify.spmd_workloads import SPMD_WORKLOADS
            if workload_name not in SPMD_WORKLOADS:
                continue
            rep.runs.append(_run_spmd_twin(
                workload_name, engine, workers=workers, seed=seed))
            continue
        rep.runs.append(run_on_engine(
            factory(), engine, workers=workers, seed=seed, strategy=strategy))
    if not rep.runs:
        rep.mismatches.append(
            f"no engine in {tuple(engines)!r} can run workload "
            f"{workload_name!r} (no SPMD twin)")
        return rep
    return _compare(rep)
