"""The symmetric heap: remotely-accessible memory with identical layout on
every PE (processing element), as required by the OpenSHMEM specification.

Allocation is a collective: every PE must call ``allocate`` in the same order
with the same shape/dtype. Each allocation yields a :class:`SymArray` whose
``sym_id`` is the cross-PE address — remote operations name
``(sym_id, offset)`` instead of raw pointers. The run's shared
:class:`SignatureTable` verifies symmetry across ranks and fails fast on
divergence (a bug class that silently corrupts data in real SHMEM programs).
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.util.errors import ShmemError


class SignatureTable:
    """Cross-PE allocation-signature registry with atomic check-then-act.

    One instance is shared by every rank of a run. ``register`` compares the
    caller's ``(shape, dtype)`` against the first allocator's under a lock —
    two PEs allocating the same ``sym_id`` concurrently can no longer both
    observe "no signature yet" and skip the symmetry check. Signatures are
    refcounted: ``retire`` (called by :meth:`SymmetricHeap.free`) drops the
    entry once every registered PE has freed, so a stale signature cannot
    false-pass (or false-fail) a later allocation that reuses the id.
    """

    def __init__(self):
        #: sym_id -> (shape, dtype-str) of the first allocator.
        self._sigs: Dict[int, Tuple] = {}
        self._refs: Dict[int, int] = {}
        self._lock = threading.Lock()

    def register(self, sym_id: int, sig: Tuple, rank: int) -> None:
        with self._lock:
            existing = self._sigs.get(sym_id)
            if existing is None:
                self._sigs[sym_id] = sig
                self._refs[sym_id] = 1
            elif existing != sig:
                raise ShmemError(
                    f"asymmetric allocation: PE {rank} allocated sym_id "
                    f"{sym_id} as {sig} but another PE allocated {existing}; "
                    "shmem allocations must be collective and identical"
                )
            else:
                self._refs[sym_id] = self._refs.get(sym_id, 0) + 1

    def retire(self, sym_id: int) -> None:
        """One PE freed its allocation; drop the signature when the last
        registrant retires so the id can be reused with a new shape."""
        with self._lock:
            n = self._refs.get(sym_id, 0)
            if n <= 1:
                self._refs.pop(sym_id, None)
                self._sigs.pop(sym_id, None)
            else:
                self._refs[sym_id] = n - 1

    def __contains__(self, sym_id: int) -> bool:
        with self._lock:
            return sym_id in self._sigs

    def __len__(self) -> int:
        with self._lock:
            return len(self._sigs)


class SymArray:
    """Handle to one symmetric allocation on the *local* PE."""

    __slots__ = ("sym_id", "arr")

    def __init__(self, sym_id: int, arr: np.ndarray):
        self.sym_id = sym_id
        self.arr = arr

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.arr.shape

    @property
    def size(self) -> int:
        return int(self.arr.size)

    def __getitem__(self, idx):
        return self.arr[idx]

    def __setitem__(self, idx, value):
        self.arr[idx] = value

    def __repr__(self) -> str:
        return f"SymArray(id={self.sym_id}, shape={self.arr.shape}, dtype={self.arr.dtype})"


class SymmetricHeap:
    """Per-PE symmetric heap with cross-PE symmetry verification.

    ``shared_signatures`` is the :class:`SignatureTable` shared by every rank
    of the run (a heap given none checks symmetry against itself only).
    ``arena`` optionally backs allocations with externally-managed storage
    (the multiprocess backend passes a shared-memory arena so symmetric
    arrays live in a ``multiprocessing.shared_memory`` segment).
    """

    def __init__(self, rank: int,
                 shared_signatures: Optional[SignatureTable] = None, *,
                 arena=None):
        self.rank = rank
        self._arrays: Dict[int, np.ndarray] = {}
        # Cached flattened views (zero-copy: symmetric arrays are contiguous,
        # so reshape(-1) aliases the same storage). The delivery hot path
        # resolves (sym_id -> flat view) once per allocation, not per message.
        self._flat: Dict[int, np.ndarray] = {}
        self._next_id = 0
        self._arena = arena
        self._signatures = (shared_signatures if shared_signatures is not None
                            else SignatureTable())

    def allocate(self, shape, dtype=np.int64, fill: Any = 0) -> SymArray:
        """Collective symmetric allocation (call in the same order on all PEs)."""
        if self._arena is not None:
            proto = np.empty(shape, dtype=dtype)
            arr = self._arena.allocate(proto.size * proto.itemsize,
                                       dtype=proto.dtype).reshape(proto.shape)
            arr[...] = fill
        else:
            arr = np.full(shape, fill, dtype=dtype)
        sym_id = self._next_id
        self._next_id += 1
        sig = (arr.shape, str(arr.dtype))
        self._signatures.register(sym_id, sig, self.rank)
        self._arrays[sym_id] = arr
        return SymArray(sym_id, arr)

    def free(self, sym: SymArray) -> None:
        if sym.sym_id not in self._arrays:
            raise ShmemError(f"double free of sym_id {sym.sym_id} on PE {self.rank}")
        del self._arrays[sym.sym_id]
        self._flat.pop(sym.sym_id, None)
        self._signatures.retire(sym.sym_id)

    def resolve(self, sym_id: int) -> np.ndarray:
        try:
            return self._arrays[sym_id]
        except KeyError:
            raise ShmemError(
                f"PE {self.rank}: no symmetric allocation with id {sym_id} "
                "(freed, or allocation order diverged across PEs)"
            ) from None

    def flat(self, sym_id: int) -> np.ndarray:
        """Cached zero-copy 1-D view of the allocation (the remote-op fast
        path: puts/gets/AMOs address flat offsets)."""
        view = self._flat.get(sym_id)
        if view is None:
            view = self._flat[sym_id] = self.resolve(sym_id).reshape(-1)
        return view

    def __len__(self) -> int:
        return len(self._arrays)

    def __repr__(self) -> str:
        return f"SymmetricHeap(rank={self.rank}, live={len(self._arrays)})"
