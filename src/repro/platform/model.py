"""The platform model: an undirected, unweighted graph of places (paper §II-A).

Edges represent *direct accessibility* between hardware components — e.g. an
edge between system memory and a GPU's device memory means data is directly
transferrable between them. The model is loaded from (and saved to) a JSON
format; :mod:`repro.platform.hwloc` can synthesize configurations from a
machine description, mirroring the paper's hwloc-based generator.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.platform.place import Place, PlaceType
from repro.util.errors import PlatformError


class PlatformModel:
    """An in-memory graph of :class:`Place` nodes.

    The model is mutable while being built and is conventionally frozen (via
    :meth:`freeze`) before a runtime starts, after which structural mutation
    raises :class:`PlatformError`. Multiple runtimes (ranks) may each own a
    *copy* of a model; places are identity-scoped to their model.
    """

    def __init__(self, name: str = "platform"):
        self.name = name
        self._places: List[Place] = []
        self._by_name: Dict[str, Place] = {}
        self._adj: Dict[int, Set[int]] = {}
        self._frozen = False
        #: Number of worker threads the runtime should create (paper: defined
        #: in the platform JSON, generally = number of management cores).
        self.num_workers: int = 1

    # -- construction ----------------------------------------------------
    def _check_mutable(self) -> None:
        if self._frozen:
            raise PlatformError("platform model is frozen; copy it to modify")

    def add_place(
        self,
        name: str,
        kind: PlaceType,
        properties: Optional[Dict[str, Any]] = None,
    ) -> Place:
        self._check_mutable()
        if name in self._by_name:
            raise PlatformError(f"duplicate place name {name!r}")
        place = Place(len(self._places), name, kind, properties)
        place._model = self
        self._places.append(place)
        self._by_name[name] = place
        self._adj[place.place_id] = set()
        return place

    def add_edge(self, a: Place, b: Place) -> None:
        self._check_mutable()
        for p in (a, b):
            if p._model is not self:
                raise PlatformError(f"place {p.name!r} does not belong to this model")
        if a is b:
            raise PlatformError(f"self-edge on place {a.name!r} is not allowed")
        self._adj[a.place_id].add(b.place_id)
        self._adj[b.place_id].add(a.place_id)

    def freeze(self) -> "PlatformModel":
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    # -- queries -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._places)

    def __iter__(self) -> Iterator[Place]:
        return iter(self._places)

    def __contains__(self, place: Place) -> bool:
        return place._model is self

    @property
    def places(self) -> Tuple[Place, ...]:
        return tuple(self._places)

    def place(self, name: str) -> Place:
        try:
            return self._by_name[name]
        except KeyError:
            raise PlatformError(f"no place named {name!r} in model {self.name!r}") from None

    def places_of_type(self, kind: PlaceType) -> List[Place]:
        return [p for p in self._places if p.kind is kind]

    def first_of_type(self, kind: PlaceType) -> Place:
        found = self.places_of_type(kind)
        if not found:
            raise PlatformError(f"model {self.name!r} has no place of type {kind.value}")
        return found[0]

    def has_type(self, kind: PlaceType) -> bool:
        return any(p.kind is kind for p in self._places)

    def neighbors(self, place: Place) -> List[Place]:
        if place._model is not self:
            raise PlatformError(f"place {place.name!r} does not belong to this model")
        return [self._places[i] for i in sorted(self._adj[place.place_id])]

    def has_edge(self, a: Place, b: Place) -> bool:
        return b.place_id in self._adj.get(a.place_id, set())

    def shortest_path(self, src: Place, dst: Place) -> List[Place]:
        """BFS shortest path (list of places, inclusive). Raises if disconnected.

        Used by ``async_copy`` to route multi-hop transfers through
        intermediate memories (e.g. GPU→sysmem→NVM) and by path policies.
        """
        if src is dst:
            return [src]
        prev: Dict[int, int] = {src.place_id: -1}
        frontier = [src.place_id]
        while frontier:
            nxt: List[int] = []
            for u in frontier:
                for v in sorted(self._adj[u]):
                    if v not in prev:
                        prev[v] = u
                        if v == dst.place_id:
                            path = [v]
                            while path[-1] != src.place_id:
                                path.append(prev[path[-1]])
                            return [self._places[i] for i in reversed(path)]
                        nxt.append(v)
            frontier = nxt
        raise PlatformError(
            f"places {src.name!r} and {dst.name!r} are not connected in model {self.name!r}"
        )

    def is_connected(self) -> bool:
        if not self._places:
            return True
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in self._adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == len(self._places)

    # -- validation ----------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise :class:`PlatformError` on failure.

        Invariants: non-empty, connected, symmetric adjacency, worker count
        positive, and at most one interconnect place (the MPI/SHMEM/UPC++
        modules assume a single Interconnect place, paper §II-C1).
        """
        if not self._places:
            raise PlatformError("platform model has no places")
        if self.num_workers < 1:
            raise PlatformError(f"num_workers must be >= 1, got {self.num_workers}")
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if u not in self._adj[v]:
                    raise PlatformError("adjacency is not symmetric (internal corruption)")
        if not self.is_connected():
            raise PlatformError("platform model graph is not connected")
        inter = self.places_of_type(PlaceType.INTERCONNECT)
        if len(inter) > 1:
            raise PlatformError(
                f"at most one interconnect place is supported, found {len(inter)}"
            )

    # -- copy / serialization -------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "PlatformModel":
        """Deep-copy the model (unfrozen). Each rank's runtime owns a copy."""
        clone = PlatformModel(name or self.name)
        clone.num_workers = self.num_workers
        for p in self._places:
            clone.add_place(p.name, p.kind, dict(p.properties))
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if u < v:
                    clone.add_edge(clone._places[u], clone._places[v])
        return clone

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "num_workers": self.num_workers,
            "places": [p.to_json() for p in self._places],
            "edges": sorted(
                [self._places[u].name, self._places[v].name]
                for u, nbrs in self._adj.items()
                for v in nbrs
                if u < v
            ),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "PlatformModel":
        try:
            model = cls(data.get("name", "platform"))
            model.num_workers = int(data.get("num_workers", 1))
            for pd in data["places"]:
                model.add_place(
                    pd["name"], PlaceType.from_string(pd["type"]), pd.get("properties")
                )
            for a_name, b_name in data.get("edges", []):
                model.add_edge(model.place(a_name), model.place(b_name))
        except (KeyError, TypeError, ValueError) as exc:
            raise PlatformError(f"malformed platform JSON: {exc!r}") from exc
        return model

    @classmethod
    def from_json(cls, text: str) -> "PlatformModel":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PlatformError(f"invalid JSON: {exc}") from exc
        return cls.from_json_dict(data)

    @classmethod
    def load(cls, path: str) -> "PlatformModel":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    def __repr__(self) -> str:
        return (
            f"PlatformModel({self.name!r}, places={len(self._places)}, "
            f"workers={self.num_workers}, frozen={self._frozen})"
        )
