"""Shared utilities: errors, deterministic RNG streams, statistics hooks."""

from repro.util.errors import (
    CommError,
    ConfigError,
    DeadlockError,
    GpuError,
    HiperError,
    ModuleError,
    MpiError,
    PlatformError,
    PromiseError,
    RuntimeStateError,
    ShmemError,
    UpcxxError,
)
from repro.util.rng import RngFactory, splitmix64
from repro.util.stats import RuntimeStats, TimerRecord

__all__ = [
    "CommError",
    "ConfigError",
    "DeadlockError",
    "GpuError",
    "HiperError",
    "ModuleError",
    "MpiError",
    "PlatformError",
    "PromiseError",
    "RuntimeStateError",
    "ShmemError",
    "UpcxxError",
    "RngFactory",
    "splitmix64",
    "RuntimeStats",
    "TimerRecord",
]
