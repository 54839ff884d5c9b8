"""Sim ↔ threaded ↔ interleave differential checker.

Runs the same task-parallel workload on different engines and asserts that
(1) the *results* are identical — each workload returns a deterministic,
schedule-independent value (a digest of its output) — and (2) the quiesce
invariants (:mod:`repro.verify.invariants`) hold on every engine. Any
divergence means an engine bug: the policy core is shared, so only the
mechanism (threading, time, wakeups) can differ.

The workloads reuse the benchmark apps' kernels (``repro.apps``) in
single-runtime task-parallel form — the threaded and interleaving engines
host one runtime, not an SPMD run — as finish/async fan-outs that every
engine can run:

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

:func:`spmd_differential` is the same check for the paper's apps
themselves (:mod:`repro.apps.registry`) across SPMD back ends — sim,
procs, sharded sim, the reference engine, coalescing on or off — and
across their variants, comparing each app's oracle-checked ``answer``.
"""

from __future__ import annotations

import functools
import hashlib
import time
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
from repro.verify.interleave import InterleaveExecutor
from repro.verify.invariants import InvariantReport, check_quiesce
from repro.verify.strategies import (LowestClockStrategy, VerificationError,
                                     make_strategy)


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
    if name == "threads":
        return ThreadedExecutor(block_timeout=block_timeout)
    if name == "ref-sim":
        # Lowest-clock selection by scan and locked deques: production
        # must reproduce its schedules bit for bit.
        return InterleaveExecutor(LowestClockStrategy())
    if name == "interleave":
        return InterleaveExecutor(make_strategy(strategy, seed))
    raise VerificationError(
        f"unknown engine {name!r}; choose from sim/ref-sim/threads/interleave")


@dataclass
class EngineRun:
    """One workload execution on one engine."""

    engine: str
    result: Any
    invariants: InvariantReport
    #: SPMD runs: virtual makespan (None off sim), wall seconds, and the
    #: ``"<Type>: <message>"`` of a run that raised (then ``result`` is None)
    makespan: Optional[float] = None
    wall: Optional[float] = None
    error: Optional[str] = None


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
            lines.append(f"  {r.engine}: error: {r.error}" if r.error else
                         f"  {r.engine}: result={r.result!r} "
                         f"{r.invariants.describe()}")
        lines.extend(f"  MISMATCH: {m}" for m in self.mismatches)
        return "\n".join(lines)


def _compare(rep: DifferentialReport) -> DifferentialReport:
    """Every run must finish with the first finished run's result and with
    its quiesce invariants holding; anything else is recorded as a mismatch
    (``describe()`` prints the results themselves)."""
    ran = [run for run in rep.runs if run.error is None]
    for run in rep.runs:
        if run.error is not None:
            rep.mismatches.append(f"{run.engine} failed: {run.error}")
        elif run.result != ran[0].result:
            rep.mismatches.append(
                f"{run.engine} result != {ran[0].engine} result")
    for run in rep.runs:
        if not run.invariants.ok:
            rep.mismatches.append(
                f"{run.engine}: {run.invariants.describe()}")
    return rep


def spmd_differential(app: str, arms, *, variant: Optional[str] = None,
                      cluster=None, makespan: bool = False
                      ) -> DifferentialReport:
    """One paper app (:data:`repro.apps.registry.APPS`) once per arm —
    ``(label, module factories or None for the app's own, executor maker
    or None for the in-process sim)`` — and, with no ``variant``, once per
    variant on each: every run must pass the app's oracle and give the
    first run's ``answer`` (and, with ``makespan``, its exact virtual
    makespan). A run that raises — a failed rank, a rejected answer — is
    recorded as failed, and the remaining runs still go. ``cluster``
    defaults to the app's own small one. Quiesce invariants are checked
    per rank inside ``spmd_run``, so the runs carry an empty invariant
    set."""
    from repro.apps.registry import app as lookup

    entry = lookup(app)
    variants = entry.variants if variant is None else (variant,)
    rep = DifferentialReport(workload=app)
    for v in variants:
        for label, modules, make_executor in arms:
            run = EngineRun(engine=label if variant else f"{label}:{v}",
                            result=None, invariants=InvariantReport())
            t0 = time.perf_counter()
            try:
                answer, res = entry.run(
                    v, cluster, modules=modules,
                    executor=make_executor() if make_executor else None)
            except Exception as exc:  # noqa: BLE001 - a failed run is a verdict
                run.error = f"{type(exc).__name__}: {exc}"
            else:
                run.makespan = res.makespan
                run.result = (answer, repr(res.makespan)) if makespan \
                    else answer
            run.wall = time.perf_counter() - t0
            rep.runs.append(run)
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
    from repro.bench.harness import cluster_for
    from repro.shmem import shmem_factory

    return spmd_differential(
        "isx",
        [("coalesce-off", [shmem_factory()], None),
         ("coalesce-on", [shmem_factory(coalesce=comm_coalesce())], None)],
        variant="hiper", cluster=cluster_for(platform, nodes, layout="hybrid",
                                             workers_cap=workers_cap))


def isx_engine_differential(
    nodes: int = 4,
    *,
    platform: str = "titan",
    variant: str = "flat",
) -> DifferentialReport:
    """The DES engine's gate: the same SPMD ISx run under the reference
    (``make_engine("ref-sim")``) and under :class:`SimExecutor` must produce
    bit-identical makespans and per-rank output digests.

    This exercises the full production event path — fetch-add reservation
    waves, puts, barriers, coalesced deliveries, help-until-ready nesting —
    so an event or worker ordered differently anywhere shows up as a digest
    or makespan mismatch. At 4 Titan nodes the flat layout is
    64 PEs, big enough for multi-thousand-event cohorts while staying
    CI-sized.
    """
    from repro.bench.harness import cluster_for

    return spmd_differential(
        "isx", [("ref-sim", None, functools.partial(make_engine, "ref-sim")),
                ("sim", None, SimExecutor)],
        variant=variant, cluster=cluster_for(platform, nodes, layout="flat"),
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
    from repro.bench.harness import cluster_for

    return spmd_differential(
        "isx", [("flat", None, SimExecutor),
                (f"sharded-{shards}", None,
                 functools.partial(SimExecutor, shards=shards))],
        variant=variant, cluster=cluster_for(platform, nodes, layout="flat"))


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
    only, never over run state). The engines host one runtime each;
    :func:`spmd_differential` compares the paper's apps across SPMD back
    ends."""
    try:
        factory = WORKLOADS[workload_name]
    except KeyError:
        raise VerificationError(
            f"unknown workload {workload_name!r}; "
            f"choose from {sorted(WORKLOADS)}") from None
    rep = DifferentialReport(workload=workload_name)
    for engine in engines:
        rep.runs.append(run_on_engine(
            factory(), engine, workers=workers, seed=seed, strategy=strategy))
    return _compare(rep)
