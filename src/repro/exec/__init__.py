"""Execution engines: virtual-time simulation, OS threads, OS processes."""

from repro.exec.base import Executor
from repro.exec.sim import SimExecutor
from repro.exec.threaded import ThreadedExecutor
from repro.exec.procs import ProcessExecutor, ProcsJob, procs_child_main

__all__ = [
    "Executor",
    "SimExecutor",
    "ThreadedExecutor",
    "ProcessExecutor",
    "ProcsJob",
    "procs_child_main",
]
