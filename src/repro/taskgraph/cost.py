"""Cost-model-driven placement: multiple implementations per task, and a
StarPU-``dmda``-style scheduler that picks place + variant from calibrated
per-place execution-time estimates.

Three pieces:

- :class:`TaskImpl` — one implementation of a task: a body, the device kind
  it targets (``"cpu"`` or ``"gpu"``), and an optional declared virtual
  cost the graph charges before the body runs (so simulated kernels don't
  need to call :func:`~repro.runtime.api.charge` themselves).
- :class:`CostModel` — per-``(kind, where)`` execution-time estimates,
  learned as an exponential moving average of observed virtual durations
  and fed into the runtime's telemetry (``stats.time("taskgraph",
  "<kind>@<where>")``), from which a later graph can re-seed itself via
  :meth:`CostModel.calibrate_from_stats`.
- placement policies — :class:`HelpFirstPolicy` (the baseline: first CPU
  implementation, default place, no lookahead) and :class:`DmdaPolicy`
  (deque model data aware: pick the (place, implementation) minimizing
  ``max(now, place_available) + transfer + estimated_cost``, where
  *transfer* models moving non-resident operands over PCIe). Like StarPU,
  an uncalibrated variant is forced to run first so every arm gets
  measured before the argmin starts discriminating.

The model is advisory: it decides *where* a task is spawned and how much
transfer time is charged; execution itself still flows through the normal
work-stealing runtime, and GPU speedups come from the GPU implementation's
smaller declared cost (the CUDA module's simulated-kernel idiom).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.platform.place import Place, PlaceType
from repro.util.errors import ConfigError

__all__ = ["TaskImpl", "CostModel", "HelpFirstPolicy", "DmdaPolicy",
           "make_policy"]

#: Host<->device bandwidth assumed when the GPU place declares none (B/s).
DEFAULT_PCIE_BW = 16e9
#: Estimate used for a variant's very first (calibration) run.
CALIBRATION_PRIOR = 1e-4


class TaskImpl:
    """One implementation of a task body.

    ``cost`` is charged to the executing worker's virtual clock before the
    body runs; the body may charge more itself. ``where`` must be ``"cpu"``
    or ``"gpu"`` — a GPU implementation is only eligible when the platform
    model has a GPU place.
    """

    __slots__ = ("fn", "where", "cost")

    def __init__(self, fn: Callable[[], Any], where: str = "cpu",
                 cost: float = 0.0):
        if where not in ("cpu", "gpu"):
            raise ConfigError(f"TaskImpl where must be 'cpu' or 'gpu', got {where!r}")
        if not cost >= 0:  # NaN too
            raise ConfigError(f"TaskImpl cost must be >= 0, got {cost}")
        self.fn = fn
        self.where = where
        self.cost = float(cost)

    def __repr__(self) -> str:
        return f"TaskImpl({getattr(self.fn, '__name__', 'fn')}@{self.where})"


class CostModel:
    """EMA per-``(kind, where)`` virtual execution-time estimates."""

    def __init__(self, alpha: float = 0.5):
        if not (0.0 < alpha <= 1.0):
            raise ConfigError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._est: Dict[Tuple[str, str], float] = {}
        self._count: Dict[Tuple[str, str], int] = {}

    def estimate(self, kind: str, where: str) -> Optional[float]:
        """Estimated seconds, or ``None`` when the arm is uncalibrated."""
        return self._est.get((kind, where))

    def observe(self, kind: str, where: str, seconds: float) -> None:
        key = (kind, where)
        prev = self._est.get(key)
        self._est[key] = seconds if prev is None else (
            self.alpha * seconds + (1.0 - self.alpha) * prev)
        self._count[key] = self._count.get(key, 0) + 1

    def calibrate_from_stats(self, stats: Any, module: str = "taskgraph") -> int:
        """Seed estimates from a runtime's telemetry timers.

        The graph records every observation as ``stats.time("taskgraph",
        "<kind>@<where>")``; this reads those timers back so a fresh graph
        on a warm runtime starts calibrated. Returns the number of arms
        seeded.
        """
        seeded = 0
        for (mod, op), rec in getattr(stats, "timers", {}).items():
            if mod != module or "@" not in op:
                continue
            kind, _, where = op.rpartition("@")
            if (kind, where) not in self._est and rec.count:
                self._est[(kind, where)] = rec.total / rec.count
                seeded += 1
        return seeded


class HelpFirstPolicy:
    """The baseline: first CPU implementation, default placement.

    Mirrors the runtime's existing help-first behavior — no lookahead, no
    device offload, no transfer accounting. Exists so the dmda bake-off has
    an honest same-harness baseline.
    """

    name = "help-first"

    def choose(self, node: Any, now: float
               ) -> Tuple[Optional[Place], Optional[TaskImpl], float]:
        for impl in node.impls:
            if impl.where == "cpu":
                return None, impl, 0.0
        return None, None, 0.0

    def describe(self) -> str:
        return "help-first (first CPU implementation, default place)"


class DmdaPolicy:
    """Deque-model-data-aware placement over calibrated cost estimates.

    Maintains one availability slot per CPU worker and one per GPU, picks
    the (slot, implementation) pair minimizing estimated completion time
    ``max(now, slot_free) + transfer + est(kind, where)``, and charges the
    modeled transfer to the chosen task. Residency tracking makes the
    transfer term history-dependent: operands left on the GPU by a producer
    are free for a GPU consumer and cost PCIe time for a CPU one.
    """

    name = "dmda"

    def __init__(self, model: Any, cost_model: Optional[CostModel] = None,
                 *, prior: float = CALIBRATION_PRIOR):
        self.cost = cost_model if cost_model is not None else CostModel()
        self.prior = float(prior)
        gpus = model.places_of_type(PlaceType.GPU_MEM)
        self.gpu_place: Optional[Place] = gpus[0] if gpus else None
        self.pcie_bw = float(
            self.gpu_place.properties.get("pcie_bytes_per_s", DEFAULT_PCIE_BW)
        ) if self.gpu_place is not None else DEFAULT_PCIE_BW
        # Availability heaps: earliest-free slot per device kind.
        self._avail: Dict[str, List[float]] = {
            "cpu": [0.0] * max(1, int(model.num_workers))}
        if self.gpu_place is not None:
            self._avail["gpu"] = [0.0]
        for h in self._avail.values():
            heapq.heapify(h)

    def _transfer_seconds(self, node: Any, where: str) -> float:
        moved = 0
        for d in node.data_touched():
            if d.residence != where:
                moved += d.nbytes
        return moved / self.pcie_bw if moved else 0.0

    def choose(self, node: Any, now: float
               ) -> Tuple[Optional[Place], Optional[TaskImpl], float]:
        best: Optional[Tuple[float, int, TaskImpl, str, float, float]] = None
        for order, impl in enumerate(node.impls):
            where = impl.where
            if where == "gpu" and self.gpu_place is None:
                continue
            transfer = self._transfer_seconds(node, where)
            est = self.cost.estimate(node.kind, where)
            if est is None:
                # Forced calibration: an unmeasured arm runs before the
                # argmin starts discriminating (StarPU's dmda idiom) —
                # otherwise a bad prior could starve the faster variant.
                best = (now, order, impl, where, transfer, self.prior)
                break
            slot_free = self._avail[where][0]
            finish = max(now, slot_free) + transfer + est
            cand = (finish, order, impl, where, transfer, est)
            if best is None or cand[:2] < best[:2]:
                best = cand
        if best is None:  # no eligible implementation: default CPU path
            return None, None, 0.0
        _, _, impl, where, transfer, est = best
        slots = self._avail[where]
        slot_free = heapq.heappop(slots)
        heapq.heappush(slots, max(now, slot_free) + transfer + est)
        for d in node.data_touched():
            d.residence = where
        place = self.gpu_place if where == "gpu" else None
        return place, impl, transfer

    def describe(self) -> str:
        gpu = self.gpu_place.name if self.gpu_place is not None else "none"
        return f"dmda (gpu={gpu}, pcie={self.pcie_bw:.3g} B/s)"


def make_policy(policy: Any, model: Any,
                cost_model: Optional[CostModel] = None) -> Any:
    """Resolve a policy spec: an instance passes through; ``"help-first"``
    and ``"dmda"`` construct the built-ins."""
    if hasattr(policy, "choose"):
        return policy
    if policy == "help-first":
        return HelpFirstPolicy()
    if policy == "dmda":
        return DmdaPolicy(model, cost_model)
    raise ConfigError(
        f"unknown placement policy {policy!r}; choose 'help-first' or 'dmda'")
