"""Seeded schedule-exploration strategies for the interleaving executor.

A strategy decides, at every scheduling point, which maybe-ready logical
worker takes the next step. Everything a strategy does is driven by one seed,
so an entire interleaving is reproducible from ``(strategy name, seed)`` —
the property the race-hunt harness relies on to replay failures bit-for-bit.

Three families ship, mirroring the systematic-concurrency-testing literature:

- ``random`` — uniform random walk over the enabled workers; the baseline
  sweep strategy (most schedule-sensitive bugs fall to a few hundred seeds).
- ``pct`` — PCT-style priority scheduling: workers get random priorities,
  the highest-priority enabled worker always runs, and ``depth`` seeded
  change points demote the running worker mid-run. Finds bugs that need a
  specific *small* number of ordering inversions with provable probability.
- ``pbound`` — preemption-bounded exploration: the current worker keeps
  running until it has nothing to do, with at most ``bound`` seeded
  preemptions injected; models the "few context switches" heuristic.

``replay`` is the fourth, internal strategy: it follows a recorded schedule
exactly and fails loudly on divergence. ``LowestClockStrategy`` explores
nothing: it is production's rule, which makes the executor the ``ref-sim``
reference.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.util.errors import ConfigError, HiperError

#: A schedule entry: (rank, wid, task name, per-run task sequence number).
ScheduleEntry = Tuple[int, int, str, int]


class VerificationError(HiperError):
    """A verification-harness failure (divergent replay, failed check)."""


class Strategy:
    """Base class: picks the next worker among the enabled candidates.

    ``candidates`` is always non-empty and sorted by ``(rank, wid)``, so a
    strategy's choices depend only on its own seeded state — never on set
    iteration order.
    """

    name = "abstract"

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)

    def choose(self, candidates: Sequence) -> object:
        raise NotImplementedError

    def on_no_work(self, worker) -> None:
        """The chosen worker's search round came up empty (it leaves the
        enabled set). Strategies tracking a 'current' worker override this."""

    def describe(self) -> str:
        return f"{self.name}(seed={self.seed})"


class RandomWalkStrategy(Strategy):
    """Uniform random choice at every scheduling point."""

    name = "random"

    def choose(self, candidates: Sequence) -> object:
        if len(candidates) == 1:
            return candidates[0]
        return candidates[int(self._rng.integers(len(candidates)))]


class PCTStrategy(Strategy):
    """Probabilistic concurrency testing, adapted to workers.

    Workers draw distinct random priorities on first sight; the scheduler
    always runs the highest-priority enabled worker. ``depth - 1`` change
    points (scheduling-step indices over ``horizon``) each demote the then-
    running worker below every other priority, forcing an ordering inversion.
    """

    name = "pct"

    def __init__(self, seed: int = 0, depth: int = 3, horizon: int = 512):
        super().__init__(seed)
        if depth < 1:
            raise ConfigError(f"pct depth must be >= 1, got {depth}")
        self.depth = depth
        self.horizon = horizon
        self._prio = {}
        self._floor = 0.0  # demoted workers stack below this
        self._step = 0
        npoints = depth - 1
        if npoints:
            self._change_steps = set(
                int(s) for s in self._rng.choice(
                    max(horizon, npoints), size=npoints, replace=False)
            )
        else:
            self._change_steps = set()

    def _priority(self, worker) -> float:
        key = (worker.rank, worker.wid)
        if key not in self._prio:
            self._prio[key] = float(self._rng.random()) + 1.0
        return self._prio[key]

    def choose(self, candidates: Sequence) -> object:
        top = max(candidates, key=lambda w: (self._priority(w), -w.rank, -w.wid))
        if self._step in self._change_steps:
            # Demote the would-run worker below everyone seen so far.
            self._floor -= 1.0
            self._prio[(top.rank, top.wid)] = self._floor
            top = max(candidates,
                      key=lambda w: (self._priority(w), -w.rank, -w.wid))
        self._step += 1
        return top


class PreemptionBoundedStrategy(Strategy):
    """Run the current worker to exhaustion, with at most ``bound`` seeded
    preemptions (probability ``p_preempt`` per scheduling point)."""

    name = "pbound"

    def __init__(self, seed: int = 0, bound: int = 2, p_preempt: float = 0.05):
        super().__init__(seed)
        if bound < 0:
            raise ConfigError(f"pbound bound must be >= 0, got {bound}")
        self.bound = bound
        self.p_preempt = p_preempt
        self._current: Optional[object] = None
        self._preemptions = 0

    def choose(self, candidates: Sequence) -> object:
        cur = self._current
        if cur is not None and any(c is cur for c in candidates):
            if (self._preemptions < self.bound and len(candidates) > 1
                    and self._rng.random() < self.p_preempt):
                self._preemptions += 1
                others = [c for c in candidates if c is not cur]
                cur = others[int(self._rng.integers(len(others)))]
        else:
            cur = candidates[int(self._rng.integers(len(candidates)))]
        self._current = cur
        return cur

    def on_no_work(self, worker) -> None:
        if self._current is worker:
            self._current = None


class ReplayStrategy(Strategy):
    """Follow a recorded schedule's ``(rank, wid)`` choices exactly."""

    name = "replay"

    def __init__(self, schedule: Sequence[ScheduleEntry]):
        super().__init__(0)
        self._schedule: List[ScheduleEntry] = list(schedule)
        self._pos = 0

    def choose(self, candidates: Sequence) -> object:
        if self._pos >= len(self._schedule):
            raise VerificationError(
                f"replay ran past the recorded schedule "
                f"({len(self._schedule)} entries)"
            )
        rank, wid = self._schedule[self._pos][0], self._schedule[self._pos][1]
        self._pos += 1
        for c in candidates:
            if c.rank == rank and c.wid == wid:
                return c
        raise VerificationError(
            f"replay diverged at step {self._pos - 1}: recorded worker "
            f"r{rank}w{wid} is not enabled "
            f"(enabled: {[(c.rank, c.wid) for c in candidates]})"
        )


class LowestClockStrategy(Strategy):
    """The production engine's rule: the lowest ``(clock, rank, wid)``."""

    name = "lowest-clock"

    def choose(self, candidates: Sequence) -> object:
        return min(candidates, key=lambda w: (w.clock, w.rank, w.wid))


STRATEGIES = {
    "random": RandomWalkStrategy,
    "pct": PCTStrategy,
    "pbound": PreemptionBoundedStrategy,
}


def make_strategy(name: str, seed: int = 0, **kwargs) -> Strategy:
    """Build a strategy by CLI name (``random``/``pct``/``pbound``)."""
    try:
        cls = STRATEGIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown strategy {name!r}; choose from {sorted(STRATEGIES)}"
        ) from None
    return cls(seed=seed, **kwargs)
