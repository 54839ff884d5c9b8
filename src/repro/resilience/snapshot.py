"""Byte-exact payload snapshots: the checkpoint/rollback primitive.

The resilience layer already checkpoints *named numpy arrays* through the
storage module (:class:`repro.io.module.CheckpointModule`); speculative
execution in :mod:`repro.taskgraph` needs the same guarantee — restore a
datum to bit-identical pre-task state — for arbitrary task-graph payloads,
without requiring a storage module install. These helpers are that
machinery factored to its core:

- :func:`snapshot_payload` captures an independent copy of a payload (a
  numpy array copy, or a deep copy for other objects);
- :func:`restore_payload` materializes a fresh value from a snapshot (so
  one snapshot can seed multiple rollbacks);
- :func:`payload_digest` produces a stable content digest used both to
  *detect* writes (a maybe-write task is judged by comparing digests
  before/after) and to assert bit-for-bit rollback in tests.

Digests hash raw bytes for contiguous numpy arrays (dtype + shape + data,
the same bytes :class:`~repro.io.storage.SimStore` snapshots) and a
deterministic pickle for everything else.
"""

from __future__ import annotations

import copy
import hashlib
import pickle
from typing import Any

import numpy as np

__all__ = ["snapshot_payload", "restore_payload", "payload_digest"]


def snapshot_payload(payload: Any) -> Any:
    """An independent copy of ``payload``, safe against in-place mutation.

    Arrays are copied with ``np.copy`` (bit-exact, dtype-preserving);
    ``None`` and immutable scalars pass through; everything else is
    deep-copied.
    """
    if payload is None or isinstance(payload, (int, float, complex, str,
                                               bytes, bool, frozenset)):
        return payload
    if isinstance(payload, np.ndarray):
        return payload.copy()
    return copy.deepcopy(payload)


def restore_payload(snapshot: Any) -> Any:
    """A fresh value equal to the snapshot.

    Returns a *copy* (not the snapshot object itself) so a rolled-back task
    that is replayed — and mutates its input again — cannot corrupt the
    snapshot for a second rollback.
    """
    return snapshot_payload(snapshot)


def payload_digest(payload: Any) -> str:
    """Stable SHA-256 content digest of a payload.

    Contiguous arrays hash ``dtype | shape | raw bytes`` — exactly the byte
    view the storage layer snapshots — so "digests equal" means "bit-for-bit
    equal". Non-array payloads hash their pickle (protocol pinned for
    stability within a run).
    """
    h = hashlib.sha256()
    if isinstance(payload, np.ndarray):
        arr = payload if payload.flags["C_CONTIGUOUS"] else np.ascontiguousarray(payload)
        h.update(str(arr.dtype).encode())
        h.update(repr(arr.shape).encode())
        try:
            h.update(arr.data)  # the array's own buffer: no tobytes() copy
        except ValueError:  # dtypes the buffer protocol cannot export
            h.update(arr.tobytes())
    else:
        h.update(pickle.dumps(payload, protocol=4))
    return h.hexdigest()
