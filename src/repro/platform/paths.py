"""Pop/steal path construction policies (paper §II-B3, Fig. 3).

Each worker owns a *pop path* and a *steal path*: ordered lists of places the
worker traverses when looking for work. The paper stresses that paths are
"infinitely flexible" and encode load-balancing policy; this module provides
the policies the evaluation needs plus a fully custom escape hatch.

All policies honour the communication-funneling convention from §II-C1: the
Interconnect place appears only on the paths of a single designated worker
(worker 0 by default), which lets communication modules run the underlying
library in a FUNNELED mode.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.platform.model import PlatformModel
from repro.platform.place import Place, PlaceType
from repro.util.errors import ConfigError, PlatformError


class WorkerPaths:
    """The (pop, steal) place sequences for every worker of one runtime."""

    def __init__(self, pop: Sequence[Sequence[Place]], steal: Sequence[Sequence[Place]]):
        if len(pop) != len(steal):
            raise ConfigError("pop and steal path lists must have equal length")
        if not pop:
            raise ConfigError("at least one worker path is required")
        for paths in (pop, steal):
            for wp in paths:
                if not wp:
                    raise ConfigError("every worker needs a non-empty path")
        self.pop: List[List[Place]] = [list(p) for p in pop]
        self.steal: List[List[Place]] = [list(p) for p in steal]

    @property
    def num_workers(self) -> int:
        return len(self.pop)

    def workers_covering(self, place: Place) -> List[int]:
        """Workers that would ever visit ``place`` (on either path)."""
        out = []
        for w in range(self.num_workers):
            if any(p is place for p in self.pop[w]) or any(p is place for p in self.steal[w]):
                out.append(w)
        return out

    def validate(self, model: PlatformModel) -> None:
        for paths in (self.pop, self.steal):
            for wp in paths:
                for p in wp:
                    if p not in model:
                        raise PlatformError(
                            f"path references place {p.name!r} from a different model"
                        )
        # every place with deques must be drainable by someone
        for p in model:
            if not self.workers_covering(p):
                # tolerable (tasks there would never run) but almost always a
                # configuration bug — surface it loudly.
                raise ConfigError(
                    f"place {p.name!r} is on no worker's pop or steal path; "
                    "tasks enqueued there would never execute"
                )


PathPolicy = Callable[[PlatformModel], WorkerPaths]


def _socket_of_worker(model: PlatformModel, worker: int) -> Optional[Place]:
    """Map worker index -> its socket's L3 place, round-robin across sockets."""
    l3s = model.places_of_type(PlaceType.L3_CACHE)
    if not l3s:
        return None
    per_socket = max(1, model.num_workers // len(l3s))
    return l3s[min(worker // per_socket, len(l3s) - 1)]


def default_paths(model: PlatformModel, comm_worker: int = 0) -> WorkerPaths:
    """The shipped default: memory-hierarchy-aware paths.

    Pop path for worker *w*: its L1, L2 (full detail), its socket L3 (numa
    detail), then system memory, then any GPU places, then — for the
    designated communication worker only — the interconnect place.

    The steal path extends the pop path with the OTHER workers' private
    cache places, socket-mates first (paper Fig. 3: thieves walk outward
    through the memory hierarchy). Without those, work spawned to a private
    L1 place would be invisible to every thief.
    """
    if not (0 <= comm_worker < model.num_workers):
        raise ConfigError(
            f"comm_worker {comm_worker} out of range for {model.num_workers} workers"
        )
    sysmem = model.first_of_type(PlaceType.SYSTEM_MEM)
    gpus = model.places_of_type(PlaceType.GPU_MEM)
    storage = (model.places_of_type(PlaceType.NVM)
               + model.places_of_type(PlaceType.DISK))
    inter = (
        model.places_of_type(PlaceType.INTERCONNECT)[0]
        if model.has_type(PlaceType.INTERCONNECT)
        else None
    )
    l1s = {p.properties.get("core"): p for p in model.places_of_type(PlaceType.L1_CACHE)}
    l2s = {p.properties.get("core"): p for p in model.places_of_type(PlaceType.L2_CACHE)}

    pop, steal = [], []
    for w in range(model.num_workers):
        path: List[Place] = []
        if w in l1s:
            path.append(l1s[w])
        if w in l2s:
            path.append(l2s[w])
        my_l3 = _socket_of_worker(model, w)
        if my_l3 is not None:
            path.append(my_l3)
        path.append(sysmem)
        path.extend(gpus)
        path.extend(storage)
        if inter is not None and w == comm_worker:
            path.append(inter)
        pop.append(path)
        # Steal path: same walk, then the REST of the machine — remote
        # sockets' L3s, then other workers' private places (socket-mates
        # before remote sockets). Every place another worker can spawn to
        # must appear on some thief's path or its work is unstealable.
        spath = list(path)
        for l3 in model.places_of_type(PlaceType.L3_CACHE):
            if l3 is not my_l3:
                spath.append(l3)
        others = sorted(
            (v for v in l1s if v != w),
            key=lambda v: (_socket_of_worker(model, v) is not my_l3, v),
        )
        for v in others:
            spath.append(l1s[v])
            if v in l2s:
                spath.append(l2s[v])
        steal.append(spath)
    return WorkerPaths(pop, steal)


def flat_paths(model: PlatformModel, comm_worker: int = 0) -> WorkerPaths:
    """Minimal policy: every worker pops/steals at system memory only (plus
    GPU places, plus interconnect for the communication worker)."""
    sysmem = model.first_of_type(PlaceType.SYSTEM_MEM)
    gpus = model.places_of_type(PlaceType.GPU_MEM)
    storage = (model.places_of_type(PlaceType.NVM)
               + model.places_of_type(PlaceType.DISK))
    inter = (
        model.places_of_type(PlaceType.INTERCONNECT)[0]
        if model.has_type(PlaceType.INTERCONNECT)
        else None
    )
    pop, steal = [], []
    for w in range(model.num_workers):
        path = [sysmem] + gpus + storage
        if inter is not None and w == comm_worker:
            path.append(inter)
        pop.append(path)
        steal.append(list(path))
    return WorkerPaths(pop, steal)


def dedicated_comm_paths(model: PlatformModel, comm_worker: int = 0) -> WorkerPaths:
    """Ablation policy: a *dedicated* communication worker (related-work
    style, §IV). The designated worker visits ONLY the interconnect place;
    all others never visit it. Used to quantify what the paper gains by NOT
    dedicating an OS thread to communication."""
    if not model.has_type(PlaceType.INTERCONNECT):
        raise ConfigError("dedicated_comm_paths requires an interconnect place")
    base = default_paths(model, comm_worker=comm_worker)
    inter = model.first_of_type(PlaceType.INTERCONNECT)
    pop = [list(p) for p in base.pop]
    steal = [list(p) for p in base.steal]
    pop[comm_worker] = [inter]
    steal[comm_worker] = [inter]
    return WorkerPaths(pop, steal)


def custom_paths(
    model: PlatformModel,
    pop_names: Sequence[Sequence[str]],
    steal_names: Sequence[Sequence[str]],
) -> WorkerPaths:
    """Build paths from place *names* (the JSON-facing spelling)."""
    pop = [[model.place(n) for n in wp] for wp in pop_names]
    steal = [[model.place(n) for n in wp] for wp in steal_names]
    wp = WorkerPaths(pop, steal)
    if wp.num_workers != model.num_workers:
        raise ConfigError(
            f"paths specify {wp.num_workers} workers but model has {model.num_workers}"
        )
    return wp


POLICIES: Dict[str, PathPolicy] = {
    "default": default_paths,
    "flat": flat_paths,
    "dedicated_comm": dedicated_comm_paths,
}


def make_paths(model: PlatformModel, policy: str = "default", **kwargs) -> WorkerPaths:
    try:
        fn = POLICIES[policy]
    except KeyError:
        raise ConfigError(
            f"unknown path policy {policy!r}; known: {sorted(POLICIES)}"
        ) from None
    paths = fn(model, **kwargs)
    paths.validate(model)
    return paths
