"""Profiling harness: run an SPMD workload with the full observability stack
attached and export machine-readable artifacts.

This is the front door of the unified telemetry layer (paper §V: a unified
scheduler sees *all* work, so one profiling pass yields task timelines,
module time attribution, per-module communication volume, and queue-depth
telemetry together):

- :class:`TelemetryModule` — a pluggable :class:`~repro.modules.base
  .HiperModule` that starts a :class:`~repro.util.stats.TelemetrySampler`
  per rank. It is an ordinary module: append :func:`telemetry_factory` to any
  ``spmd_run``'s ``module_factories`` and every rank samples deque depth,
  event-queue length, pop/steal rates, and idle fractions on virtual-time
  ticks — no core-runtime changes, which is itself the paper's plugin thesis.
- :func:`profile_spmd` — run a main under a tracing executor plus samplers,
  then write ``metrics.json`` (makespan, utilization, module times, comm
  volume, merged cross-rank stats, host wall time and collector cost) and
  ``trace.json`` (Chrome-trace / Perfetto, with spawn→execution and
  send→delivery flow arrows and counter tracks).

Exposed on the command line as ``python -m repro profile <figure>``.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import time
from typing import Any, Callable, Dict, Optional, Sequence

from repro.exec.sim import SimExecutor
from repro.modules.base import HiperModule
from repro.tools.trace import TraceRecorder
from repro.util.stats import TelemetrySampler


class TelemetryModule(HiperModule):
    """Per-rank telemetry sampling as a pluggable module.

    ``initialize`` starts the sampler (picking up the executor's attached
    tracer, if any, for Chrome-trace counter tracks); ``finalize`` stops it.
    """

    name = "telemetry"
    capabilities = frozenset({"observability"})

    def __init__(self, ctx=None, *, period: float = 1e-4,
                 max_samples: int = 2048):
        super().__init__()
        self.ctx = ctx  # optional RankContext; unused single-rank
        self._period = period
        self._max_samples = max_samples
        self.sampler: Optional[TelemetrySampler] = None

    def initialize(self, runtime) -> None:
        self.sampler = TelemetrySampler(
            runtime, period=self._period, max_samples=self._max_samples,
            tracer=runtime.executor.tracer,
        )
        self.sampler.start()
        self._initialized = True

    def finalize(self, runtime) -> None:
        if self.sampler is not None:
            self.sampler.stop()


def telemetry_factory(**kwargs) -> Callable[[Any], TelemetryModule]:
    """Module factory for :func:`repro.distrib.spmd_run`."""
    return lambda ctx: TelemetryModule(ctx, **kwargs)


@dataclasses.dataclass
class ProfileReport:
    """Everything one profiling run produced."""

    result: Any  # SpmdResult
    tracer: TraceRecorder
    metrics: Dict[str, Any]
    metrics_path: Optional[str] = None
    trace_path: Optional[str] = None

    @property
    def utilization(self) -> float:
        return self.metrics["utilization"]


class _GcCost(dict):
    """``metrics["host"]["gc"]``, filled in while it is in ``gc.callbacks``:
    cyclic-collector runs per generation, objects freed, seconds inside, and
    the largest tracked heap a full pass started on (what a pass costs)."""

    def __init__(self) -> None:
        super().__init__(collections=[0, 0, 0], collected=0, seconds=0.0,
                         tracked_peak=0)

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            if info["generation"] == 2:
                self["tracked_peak"] = max(self["tracked_peak"],
                                           len(gc.get_objects()))
            self._t0 = time.perf_counter()
        else:
            self["seconds"] += time.perf_counter() - self._t0
            self["collections"][info["generation"]] += 1
            self["collected"] += info["collected"]


def profile_spmd(
    main: Callable,
    config=None,
    *,
    module_factories: Sequence[Callable] = (),
    out_dir: Optional[str] = None,
    sample_period: float = 1e-4,
    max_samples: int = 2048,
    max_events: int = 1_000_000,
    shards: int = 1,
) -> ProfileReport:
    """Run ``main`` under full instrumentation; optionally write artifacts.

    With ``out_dir`` set, writes ``<out_dir>/metrics.json`` and
    ``<out_dir>/trace.json`` (Chrome-trace format, loadable in Perfetto or
    ``chrome://tracing``).

    ``shards > 1`` profiles the conservative-window sharded DES engine
    instead: the run fans out across OS-process shards, so the in-process
    tracer and telemetry sampler cannot observe it — the report's trace is
    empty and ``metrics["shards"]`` carries the window-protocol telemetry
    (windows, horizon, cross-shard traffic, per-shard barrier idle time).
    """
    from repro.distrib.spmd import ClusterConfig, spmd_run

    cfg = config or ClusterConfig()
    sharded = shards > 1
    ex = SimExecutor(task_overhead=cfg.task_overhead, shards=shards)
    tracer = TraceRecorder(max_events=max_events)
    factories = list(module_factories)
    if not sharded:
        ex.attach_tracer(tracer)
        factories.append(
            telemetry_factory(period=sample_period, max_samples=max_samples)
        )
    gc_cost = _GcCost()
    gc.callbacks.append(gc_cost)
    t0 = time.perf_counter()
    try:
        result = spmd_run(main, cfg, module_factories=factories, executor=ex)
    finally:
        gc.callbacks.remove(gc_cost)
    wall = time.perf_counter() - t0

    merged = result.merged_stats()
    if sharded:
        events = sum(t["events_processed"] for t in result.shard_counters)
        sim_engine = f"flat x{shards} shards"
    else:
        events = ex.events_processed
        sim_engine = "flat"
    metrics: Dict[str, Any] = {
        "makespan": result.makespan,
        "nranks": result.nranks,
        "utilization": tracer.utilization(result.makespan),
        "module_times": tracer.module_times(),
        "comm_volume": tracer.comm_volume(),
        "trace_events": len(tracer.events),
        "trace_dropped": tracer.dropped,
        # DES-engine throughput: whole-run average over the spmd_run wall
        # time (the per-tick instantaneous rate is in the sampler's
        # ``events_per_sec`` series / ``sim.*`` gauges).
        "sim": {
            "engine": sim_engine,
            "events_processed": events,
            "events_per_sec": events / wall if wall > 0 else 0.0,
        },
        "stats": merged.to_dict(),
        # This process only (not a sharded run's children). No per-layer
        # figure shows the collector: a pause is charged to whoever allocated.
        "host": {"wall_s": wall, "gc": gc_cost},
    }
    if sharded:
        metrics["shards"] = {
            "nshards": result.nshards,
            "windows": result.windows,
            "cross_shard_msgs": result.counters["shards.cross_shard_msgs"],
            "cross_shard_bytes": result.counters["shards.cross_shard_bytes"],
            "per_shard": result.shard_counters,
        }

    report = ProfileReport(result=result, tracer=tracer, metrics=metrics)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        report.metrics_path = os.path.join(out_dir, "metrics.json")
        with open(report.metrics_path, "w", encoding="utf-8") as fh:
            json.dump(metrics, fh, indent=2, sort_keys=True)
        report.trace_path = os.path.join(out_dir, "trace.json")
        tracer.save_chrome_trace(report.trace_path)
    return report
