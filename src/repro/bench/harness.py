"""Benchmark harness: node-count sweeps over the simulated cluster, with
paper-style series tables.

Each figure benchmark builds a list of :class:`Series` (one per implementation
variant), sweeps them over node counts, and prints the same rows the paper
plots. ``pytest-benchmark`` wraps the whole sweep (wall time of the
simulation); the scientific output is the *virtual* time table, which is also
attached to the benchmark's ``extra_info``.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence

from repro.distrib.spmd import ClusterConfig, SpmdResult
from repro.net.costmodel import network
from repro.platform.hwloc import machine

#: Paper platforms: (machine spec name, interconnect model name).
PLATFORMS = {
    "titan": ("titan", "gemini"),
    "edison": ("edison", "aries"),
}


def cluster_for(
    platform: str,
    nodes: int,
    *,
    layout: str,
    workers_cap: Optional[int] = None,
    seed: int = 0,
) -> ClusterConfig:
    """Build a ClusterConfig for one sweep point.

    ``layout``: "flat" (process per core) or "hybrid" (process per node,
    worker per core). ``workers_cap`` bounds workers/rank to keep Python
    simulation costs sane (documented in EXPERIMENTS.md).
    """
    mspec_name, net_name = PLATFORMS[platform]
    mspec = machine(mspec_name)
    cores = mspec.cores if workers_cap is None else min(mspec.cores, workers_cap)
    if layout == "flat":
        return ClusterConfig(
            nodes=nodes, ranks_per_node=cores, workers_per_rank=1,
            machine=mspec, network=network(net_name), seed=seed,
        )
    if layout == "hybrid":
        return ClusterConfig(
            nodes=nodes, ranks_per_node=1, workers_per_rank=cores,
            machine=mspec, network=network(net_name), seed=seed,
        )
    raise ValueError(f"unknown layout {layout!r}")


@dataclasses.dataclass
class Series:
    """One line of a figure: a variant swept over node counts."""

    name: str
    #: point -> SpmdResult; ``run`` receives the node count.
    run: Callable[[int], SpmdResult]


def run_telemetry(res: SpmdResult) -> Dict[str, float]:
    """Scheduler-telemetry summary of one run: worker utilization (virtual
    busy time over ``workers x makespan``), steal count, and fabric volume.
    Computed from the runtime's always-on accounting — no tracer needed."""
    out: Dict[str, float] = {}
    if not hasattr(res, "contexts"):  # metric stubs in tests
        return out
    busy = 0.0
    nworkers = 0
    for ctx in res.contexts:
        for w in getattr(ctx.runtime, "workers", []):
            busy += max(0.0, w.busy_time)
            nworkers += 1
    if nworkers and res.makespan > 0:
        out["utilization"] = min(1.0, busy / (nworkers * res.makespan))
    merged = res.merged_stats()
    out["steals"] = float(merged.counter("core", "steal"))
    out["msgs"] = float(res.fabric.messages_sent)
    out["bytes"] = float(res.fabric.bytes_sent)
    return out


@dataclasses.dataclass
class SweepResult:
    title: str
    nodes_list: List[int]
    #: series name -> {nodes -> value}
    values: Dict[str, Dict[int, float]]
    unit: str = "ms"
    #: series name -> {nodes -> telemetry summary} (see :func:`run_telemetry`)
    telemetry: Dict[str, Dict[int, Dict[str, float]]] = dataclasses.field(
        default_factory=dict
    )

    def table(self) -> str:
        header = f"{'nodes':>7s} | " + " | ".join(
            f"{name:>18s}" for name in self.values
        )
        lines = [self.title, header, "-" * len(header)]
        for nodes in self.nodes_list:
            lines.append(f"{nodes:7d} | " + " | ".join(
                f"{pts[nodes]:18.4f}" for pts in self.values.values()))
        lines.append(f"(values in {self.unit}, virtual time)")
        if any(self.telemetry.values()):
            lines.append("telemetry (util% / steals / MB moved):")
            for nodes in self.nodes_list:
                cells = []
                for name in self.values:
                    tel = self.telemetry.get(name, {}).get(nodes)
                    if not tel:
                        cells.append(" " * 17 + "-")
                        continue
                    cells.append(
                        f"{tel.get('utilization', 0.0) * 100:5.1f} "
                        f"{int(tel.get('steals', 0)):>5d} "
                        f"{tel.get('bytes', 0.0) / 1e6:6.2f}"
                    )
                lines.append(f"{nodes:7d} | " + " | ".join(cells))
        return "\n".join(lines)

    def flat(self) -> Dict[str, float]:
        """Flattened {series@nodes[:telemetry_key]: value} for benchmark
        extra_info."""
        out = {
            f"{name}@{nodes}": v
            for name, pts in self.values.items()
            for nodes, v in pts.items()
        }
        for name, pts in self.telemetry.items():
            for nodes, tel in pts.items():
                for key, v in tel.items():
                    out[f"{name}@{nodes}:{key}"] = v
        return out


def sweep(
    title: str,
    series: Sequence[Series],
    nodes_list: Sequence[int],
    *,
    metric: Callable[[SpmdResult], float] = lambda r: r.makespan * 1e3,
    unit: str = "ms",
) -> SweepResult:
    """Run every series over every point; collect ``metric`` of each run
    plus its scheduler-telemetry summary."""
    values: Dict[str, Dict[int, float]] = {}
    telemetry: Dict[str, Dict[int, Dict[str, float]]] = {}
    for s in series:
        results = {nodes: s.run(nodes) for nodes in nodes_list}
        values[s.name] = {nodes: metric(res) for nodes, res in results.items()}
        telemetry[s.name] = {
            nodes: run_telemetry(res) for nodes, res in results.items()
        }
    return SweepResult(title, list(nodes_list), values, unit, telemetry)


def source_loc(fn: Callable) -> int:
    """Non-blank source lines of a variant implementation (the paper's
    programmability discussions use LoC as one proxy)."""
    import inspect

    lines = inspect.getsource(fn).splitlines()
    return sum(1 for ln in lines if ln.strip() and not ln.strip().startswith("#"))
