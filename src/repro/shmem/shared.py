"""Shared-memory arena backing the symmetric heap on the multiprocess
backend.

Each rank's symmetric allocations become numpy views into one
``multiprocessing.shared_memory`` segment (``/dev/shm/repro-<run>-r<rank>``
on Linux), matching how real OpenSHMEM implementations carve the symmetric
heap out of a registered region. A bump allocator is enough: SHMEM programs
allocate their windows up front and ``shmem_free`` is rare — freed blocks
are simply not recycled (the segment is unlinked wholesale at shutdown).

Lifecycle discipline mirrors the executor's leaked-thread checks: the owner
must ``destroy()`` (close + unlink) its segment, and the parent process
sweeps ``leaked_segments``/``cleanup_segments`` after a run so a crashed
child cannot strand ``/dev/shm`` entries.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import List, Optional

import numpy as np

from repro.util.errors import ShmemError

#: Prefix of every segment this package creates (leak sweeps key on it).
SEGMENT_PREFIX = "repro-shm"

#: Views are aligned to this many bytes (covers every numpy scalar dtype).
_ALIGN = 64


def segment_name(run_id: str, rank: int) -> str:
    return f"{SEGMENT_PREFIX}-{run_id}-r{rank}"


class SharedArena:
    """Bump allocator over one shared-memory segment."""

    def __init__(self, name: str, nbytes: int, *, create: bool = True):
        if nbytes < _ALIGN:
            raise ShmemError(f"arena size {nbytes} too small (min {_ALIGN})")
        self.name = name
        self.nbytes = int(nbytes)
        self._shm = shared_memory.SharedMemory(
            name=name, create=create, size=self.nbytes)
        self._offset = 0
        self._closed = False

    def allocate(self, nbytes: int, dtype=np.uint8) -> np.ndarray:
        """A 1-D view of ``nbytes`` fresh bytes of the segment (caller
        reshapes). Raises when the arena is exhausted — size the heap via
        the job's ``heap_bytes`` instead of spilling to private memory,
        which would silently lose the shared-segment property."""
        if self._closed:
            raise ShmemError(f"arena {self.name} used after close")
        start = self._offset
        end = start + int(nbytes)
        if end > self.nbytes:
            raise ShmemError(
                f"symmetric heap exhausted: arena {self.name} has "
                f"{self.nbytes - start} bytes free, allocation wants "
                f"{nbytes}; raise heap_bytes on the job/executor"
            )
        # Bump to the next aligned offset for the allocation after this one.
        self._offset = (end + _ALIGN - 1) & ~(_ALIGN - 1)
        dt = np.dtype(dtype)
        count = int(nbytes) // dt.itemsize
        return np.frombuffer(self._shm.buf, dtype=dt, count=count,
                             offset=start)

    def close(self) -> None:
        """Drop this process's mapping (views become invalid)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        except BufferError:
            # Live numpy views pin the mapping; the unlink below still
            # removes the name, and the mapping dies with the process.
            # Detach the mmap/fd from the SharedMemory object so its
            # __del__ doesn't retry the close at interpreter shutdown and
            # spew "Exception ignored" noise (fork children skip GC via
            # os._exit, but spawn/subprocess children shut down fully).
            import os

            self._shm._mmap = None  # type: ignore[attr-defined]
            fd = getattr(self._shm, "_fd", -1)
            if fd >= 0:
                try:
                    os.close(fd)
                except OSError:
                    pass
                self._shm._fd = -1  # type: ignore[attr-defined]

    def unlink(self) -> None:
        """Remove the named segment (owner-side; idempotent)."""
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass

    def destroy(self) -> None:
        self.close()
        self.unlink()

    def __repr__(self) -> str:
        return (f"SharedArena({self.name}, used={self._offset}/"
                f"{self.nbytes})")


def leaked_segments(run_id: Optional[str] = None) -> List[str]:
    """Names of live segments from this package (optionally one run only).

    Linux-specific sweep over ``/dev/shm``; returns ``[]`` elsewhere — the
    lifecycle tests that assert emptiness only run where it works.
    """
    import os

    want = SEGMENT_PREFIX if run_id is None else segment_name(run_id, 0)[:-3]
    try:
        entries = os.listdir("/dev/shm")
    except OSError:
        return []
    return sorted(e for e in entries if e.startswith(want))


def cleanup_segments(run_id: str, nranks: int) -> List[str]:
    """Force-unlink any segments a crashed/killed child left behind.

    Returns the names that were actually removed (normally empty)."""
    removed = []
    for rank in range(nranks):
        name = segment_name(run_id, rank)
        try:
            seg = shared_memory.SharedMemory(name=name, create=False)
        except FileNotFoundError:
            continue
        seg.close()
        try:
            seg.unlink()
            removed.append(name)
        except FileNotFoundError:
            pass
    return removed
