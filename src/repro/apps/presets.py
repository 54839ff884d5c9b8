"""Paper workload presets, scaled (DESIGN.md §2 "shape-preserving scaling").

The paper's exact configurations (§III-A) are far beyond an in-process
Python run — ISx sorts 2^29 keys per PE, UTS walks the ~4.2-billion-node
T1XXL tree, Graph500 uses 2^31 vertices. Each preset maps the paper's
configuration to a scaled instance that keeps the communication-to-compute
ratios and statistical character, with a ``scale`` knob (1.0 = the sizes the
shipped benchmarks use; larger values approach the paper's at higher
simulation cost).
"""

from __future__ import annotations

from repro.apps.geo.common import GeoConfig
from repro.apps.graph500.common import Graph500Config
from repro.apps.hpgmg.solver import HpgmgConfig
from repro.apps.isx.common import IsxConfig
from repro.apps.uts.common import UtsConfig
from repro.net.coalesce import CoalescePolicy
from repro.util.errors import ConfigError


def _check_scale(scale: float) -> None:
    if not (0.1 <= scale <= 64):
        raise ConfigError(f"preset scale {scale} outside the sane range [0.1, 64]")


def isx_weak_scaling(scale: float = 1.0) -> IsxConfig:
    """Paper: 2^29 keys per PE (weak scaling). Carried keys x byte_scale
    reproduce the wire/compute volume; scale multiplies carried keys."""
    _check_scale(scale)
    return IsxConfig(
        keys_per_pe=max(256, int((1 << 11) * scale)),
        byte_scale=1 << 7,
        max_key=1 << 28,
    )


def uts_t1xxl(scale: float = 1.0) -> UtsConfig:
    """Paper: geometric T1XXL (~4.2e9 nodes, ~1 us of SHA-1 work per node).
    Scaled tree with the same root-heavy geometric shape; expected size
    ~1e5 x scale nodes."""
    _check_scale(scale)
    return UtsConfig(
        root_children=max(100, int(3000 * scale)),
        mean_children=0.97,
        node_cost=2e-6,
        seed=1,
    )


def graph500_reference(scale_exponent: int = 12) -> Graph500Config:
    """Paper: scale 31, edgefactor 16. Same generator and parameters at a
    laptop-size scale exponent."""
    if not (4 <= scale_exponent <= 22):
        raise ConfigError("scale_exponent must be in [4, 22] for in-memory runs")
    return Graph500Config(scale=scale_exponent, edgefactor=16)


def hpgmg_paper(scale: float = 1.0) -> HpgmgConfig:
    """Paper: log2(box_dim)=7 (128^3 boxes), 8 boxes per rank. Same box
    structure at box_dim=8 x scale."""
    _check_scale(scale)
    box_dim = 8
    if scale >= 2:
        box_dim = 16
    if scale >= 8:
        box_dim = 32
    return HpgmgConfig(box_dim=box_dim, boxes_xy=2, boxes_z_per_rank=2)


def geo_weak_scaling(scale: float = 1.0) -> GeoConfig:
    """The geophysical stencil: per-rank slab grows with scale."""
    _check_scale(scale)
    n = max(8, int(32 * scale))
    return GeoConfig(nx=n, ny=n, nz=n, timesteps=4)


def comm_coalesce() -> CoalescePolicy:
    """Coalescing policy for the fine-grained benchmarks (ISx bucket
    exchange, Graph500 frontier pushes): batch up to 32 messages / 32 KiB
    per destination, flushing lone stragglers after 5 us of virtual time.
    Pass as ``coalesce=`` to a comm module factory."""
    return CoalescePolicy(max_msgs=32, max_bytes=1 << 15, flush_interval=5e-6)
