"""Places: nodes of the HiPER platform model graph (paper §II-A).

A *place* logically represents a hardware component that software libraries
may utilize — system memory, a cache slice, GPU device memory, the network
interconnect, NVM, or disk. Task deques hang off places; pop/steal paths are
sequences of places.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, Optional

from repro.util.errors import PlatformError


class PlaceType(enum.Enum):
    """Kinds of hardware components a place may model.

    The set mirrors the components named in the paper's abstract platform
    model (Fig. 1): memory/caches for computation, GPU memory for
    accelerators, an interconnect place for communication funneling, and
    NVM/disk for storage modules (paper §V future work).
    """

    SYSTEM_MEM = "system_mem"
    L3_CACHE = "l3_cache"
    L2_CACHE = "l2_cache"
    L1_CACHE = "l1_cache"
    GPU_MEM = "gpu_mem"
    INTERCONNECT = "interconnect"
    NVM = "nvm"
    DISK = "disk"

    @classmethod
    def from_string(cls, s: str) -> "PlaceType":
        try:
            return cls(s)
        except ValueError:
            valid = ", ".join(t.value for t in cls)
            raise PlatformError(f"unknown place type {s!r}; expected one of: {valid}")


#: Place types that model memories data can physically live in, i.e. valid
#: endpoints for ``async_copy``.
MEMORY_PLACE_TYPES = frozenset(
    {
        PlaceType.SYSTEM_MEM,
        PlaceType.GPU_MEM,
        PlaceType.NVM,
        PlaceType.DISK,
    }
)


class Place:
    """One node in the platform graph.

    Attributes
    ----------
    place_id:
        Dense integer id, unique within one :class:`PlatformModel`.
    name:
        Human-readable unique name (used in JSON configs and path specs).
    kind:
        The :class:`PlaceType`.
    properties:
        Free-form hardware properties (``bandwidth_gbs``, ``capacity_bytes``,
        ``socket``, ``device`` ...). Modules may read these during
        initialization — e.g. the CUDA module locates its device index here.
    """

    __slots__ = ("place_id", "name", "kind", "properties", "_model")

    def __init__(
        self,
        place_id: int,
        name: str,
        kind: PlaceType,
        properties: Optional[Dict[str, Any]] = None,
    ):
        if place_id < 0:
            raise PlatformError(f"place_id must be non-negative, got {place_id}")
        if not name:
            raise PlatformError("place name must be non-empty")
        self.place_id = place_id
        self.name = name
        self.kind = kind
        self.properties: Dict[str, Any] = dict(properties or {})
        self._model = None  # set by PlatformModel.add_place

    @property
    def is_memory(self) -> bool:
        """Whether data can reside at this place (``async_copy`` endpoint)."""
        return self.kind in MEMORY_PLACE_TYPES

    def neighbors(self):
        """Places directly accessible from this one (graph edges)."""
        if self._model is None:
            raise PlatformError(f"place {self.name!r} is not attached to a model")
        return self._model.neighbors(self)

    def to_json(self) -> Dict[str, Any]:
        return {"name": self.name, "type": self.kind.value, "properties": dict(self.properties)}

    def __repr__(self) -> str:
        return f"Place({self.place_id}, {self.name!r}, {self.kind.value})"

    # Equality is identity; the hash is what orders every set of places,
    # so it stays as it is.
    def __hash__(self) -> int:
        return hash((id(self._model), self.place_id))
