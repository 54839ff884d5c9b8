"""Benchmark harness: sweeps, platforms, series tables (per paper figure)."""

from repro.bench.harness import (
    PLATFORMS,
    Series,
    SweepResult,
    cluster_for,
    run_telemetry,
    source_loc,
    sweep,
)

__all__ = [
    "PLATFORMS",
    "Series",
    "SweepResult",
    "cluster_for",
    "run_telemetry",
    "source_loc",
    "sweep",
]
