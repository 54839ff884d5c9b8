"""The HiPER OpenSHMEM module: symmetric heap, one-sided operations,
atomics, wait-until, collectives, and the novel ``shmem_async_when``
(paper §II-C2)."""

from repro.shmem.backend import CMP_OPS, ShmemBackend
from repro.shmem.heap import SignatureTable, SymArray, SymmetricHeap
from repro.shmem.module import ShmemModule, shmem_factory
from repro.shmem.shared import SharedArena, cleanup_segments, segment_name

__all__ = [
    "CMP_OPS",
    "ShmemBackend",
    "SignatureTable",
    "SymArray",
    "SymmetricHeap",
    "SharedArena",
    "cleanup_segments",
    "segment_name",
    "ShmemModule",
    "shmem_factory",
]
