"""Deterministic result cache: spec cache-key → workload result.

A job's result is a pure function of its spec (app, params, seed, backend,
ranks) — that is exactly what the verify differentials gate — so the
gateway may answer a resubmission from cache bit-identically without
re-execution. The cache is a bounded LRU: ``capacity`` entries, recency
updated on hit, oldest evicted on overflow. Values are stored in their
JSON-normalized form (:func:`repro.service.jobs.normalize_result`), so a
cached answer is byte-identical on the wire to the execution that produced
it.

Only *successful* results are cached. Failures flow through the retry
policy instead — caching an exception would make a transient fault sticky.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Tuple

from repro.util.errors import ConfigError

_MISSING = object()


class ResultCache:
    """Thread-safe bounded LRU over deterministic job results."""

    def __init__(self, capacity: int = 1024):
        if capacity < 0:
            raise ConfigError(
                f"cache capacity must be non-negative, got {capacity}")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str) -> Tuple[bool, Any]:
        """``(hit, value)``; a hit refreshes the entry's recency."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return False, None
            self._entries.move_to_end(key)
            self.hits += 1
            return True, value

    def put(self, key: str, value: Any) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            if key in self._entries:
                # Deterministic workloads: a re-execution's value equals the
                # stored one, so keep the original and refresh recency.
                self._entries.move_to_end(key)
                return
            self._entries[key] = value
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
