"""ISx: scalable integer sort (paper §III-B, Fig. 5).

Each PE generates ``keys_per_pe`` uniform integer keys, bucket-routes them to
their owner PE (key range is block-partitioned), and locally counting-sorts
what it receives. The bucket exchange is an all-to-all of puts preceded by
atomic fetch-adds to reserve space in the target's receive window — the
communication pattern whose per-NIC incast produces the paper's flat-variant
collapse at scale.

Weak scaling: ``keys_per_pe`` is constant as PEs grow.
"""

from __future__ import annotations

import dataclasses
from typing import List

import numpy as np

from repro.util.errors import ConfigError
from repro.util.rng import RngFactory

#: Approximate host instruction cost per key for bucketizing / sorting,
#: expressed in flops charged against the machine's per-core flop rate.
BUCKETIZE_OPS_PER_KEY = 6.0
SORT_OPS_PER_KEY = 8.0


@dataclasses.dataclass(frozen=True)
class IsxConfig:
    keys_per_pe: int = 1 << 14
    max_key: int = 1 << 28
    seed: int = 777
    #: Receive-window slack factor over the expected keys_per_pe.
    slack: float = 1.6
    #: Shape-preserving workload scale (DESIGN.md §2): compute costs and
    #: message wire sizes are charged as if each key array were this many
    #: times larger, while the actual arrays stay small enough for an
    #: in-memory Python run. The paper's 2^29 keys/PE maps to e.g.
    #: keys_per_pe=2^11 with byte_scale=2^18.
    byte_scale: int = 1

    def __post_init__(self):
        if self.keys_per_pe < 1:
            raise ConfigError("keys_per_pe must be positive")
        if self.max_key < 2:
            raise ConfigError("max_key must be at least 2")
        if self.byte_scale < 1:
            raise ConfigError("byte_scale must be >= 1")

    def window_size(self) -> int:
        return int(self.keys_per_pe * self.slack) + 64


def bucket_width(cfg: IsxConfig, npes: int) -> int:
    return (cfg.max_key + npes - 1) // npes


def generate_keys(cfg: IsxConfig, rank: int, npes: int) -> np.ndarray:
    rng = RngFactory(cfg.seed).stream("isx", rank)
    return rng.integers(0, cfg.max_key, size=cfg.keys_per_pe, dtype=np.int64)


def route_keys(cfg: IsxConfig, npes: int, keys: np.ndarray):
    """Split ``keys`` into per-target contiguous blocks.

    Returns ``(targets_sorted_keys, counts)`` where counts[p] is the number
    of keys destined for PE p and the keys are grouped by target in
    ascending-target order (stable).
    """
    width = bucket_width(cfg, npes)
    targets = keys // width
    order = np.argsort(targets, kind="stable")
    grouped = keys[order]
    counts = np.bincount(targets, minlength=npes).astype(np.int64)
    return grouped, counts


def local_sort(received: np.ndarray) -> np.ndarray:
    """Counting sort of the received keys (they share one bucket range)."""
    return np.sort(received, kind="stable")


def compute_seconds(nkeys: int, ops_per_key: float, core_flops: float) -> float:
    return nkeys * ops_per_key / core_flops


def validate_isx(cfg: IsxConfig, npes: int,
                 final_keys: List[np.ndarray]) -> None:
    """Check the global sort: ownership ranges, per-PE sortedness, and exact
    multiset conservation against the generated input."""
    width = bucket_width(cfg, npes)
    total = 0
    for pe, arr in enumerate(final_keys):
        total += arr.size
        if arr.size == 0:
            continue
        if not np.all(np.diff(arr) >= 0):
            raise AssertionError(f"PE {pe}: received keys not sorted")
        if arr.min() < pe * width or arr.max() >= (pe + 1) * width:
            raise AssertionError(
                f"PE {pe}: key outside its bucket range "
                f"[{pe * width}, {(pe + 1) * width})"
            )
    if total != npes * cfg.keys_per_pe:
        raise AssertionError(
            f"key count mismatch: {total} received vs "
            f"{npes * cfg.keys_per_pe} generated"
        )
    # Each PE's keys are sorted and inside its own range, and the ranges
    # ascend with the PE, so the results in PE order are already the sorted
    # received multiset: compare them slice by slice with the sorted input,
    # generated rank by rank into one buffer.
    kpp = cfg.keys_per_pe
    want = np.empty(npes * kpp, dtype=np.int64)
    for r in range(npes):
        want[r * kpp : (r + 1) * kpp] = generate_keys(cfg, r, npes)
    want.sort()
    lo = 0
    for arr in final_keys:
        if not np.array_equal(arr, want[lo : lo + arr.size]):
            raise AssertionError(
                "global key multiset does not match the input")
        lo += arr.size
