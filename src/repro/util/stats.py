"""Runtime statistics hooks (paper §V "Discussion": unified-scheduler tooling).

The HiPER paper notes that because the runtime schedules *all* work, it can
attribute time to modules and expose semantic performance information. This
module provides that instrumentation layer — the metrics registry of the
unified observability stack:

- counters and timers keyed by ``(module, operation)``,
- gauges (last-written values, e.g. heap occupancy),
- log2-bucketed histograms (message sizes, sweep batch sizes),
- named time series filled by :class:`TelemetrySampler`, which ticks on
  virtual time under the simulated executor and on wall time under the
  threaded one (both expose ``call_later``).

The registry has no options: it is always on. Per-worker time is not kept
here; it lives on each :class:`~repro.runtime.worker.WorkerState`, whose
``clock - idle_time`` is that worker's busy time on every engine. Everything
a rank records is exportable machine-readably via :meth:`RuntimeStats.to_dict`
and mergeable across ranks via :meth:`RuntimeStats.merge` (cluster-wide
reports, ``metrics.json``).
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict
from typing import Any, Dict, Iterator, List, Optional, Tuple


class Histogram:
    """Log2-bucketed histogram of non-negative values (cheap, fixed size).

    Bucket ``i`` counts values in ``[2**(i-1), 2**i)`` (bucket 0 counts
    zeros); good enough for message sizes and queue depths where order of
    magnitude is what matters.
    """

    __slots__ = ("counts", "total", "n", "max")

    def __init__(self):
        self.counts: Dict[int, int] = defaultdict(int)
        self.total = 0.0
        self.n = 0
        self.max = 0.0

    def add(self, value: float) -> None:
        if value < 0:
            value = 0.0
        bucket = 0 if value < 1 else int(value).bit_length()
        self.counts[bucket] += 1
        self.total += value
        self.n += 1
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    def merge(self, other: "Histogram") -> None:
        for b, c in other.counts.items():
            self.counts[b] += c
        self.total += other.total
        self.n += other.n
        self.max = max(self.max, other.max)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n": self.n,
            "mean": self.mean,
            "max": self.max,
            "buckets": {str(b): c for b, c in sorted(self.counts.items())},
        }


@dataclasses.dataclass
class TimerRecord:
    count: int = 0
    total: float = 0.0
    max: float = 0.0

    def add(self, elapsed: float) -> None:
        self.count += 1
        self.total += elapsed
        if elapsed > self.max:
            self.max = elapsed

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class RuntimeStats:
    """Aggregated counters/timers for one runtime instance (one rank).

    Keys are ``(module, operation)`` tuples; the core runtime uses module
    ``"core"``. Module implementations report through
    :meth:`count`/:meth:`time`, mirroring the hooks described in paper §V.
    """

    def __init__(self):
        self.counters: Dict[Tuple[str, str], int] = defaultdict(int)
        self.timers: Dict[Tuple[str, str], TimerRecord] = defaultdict(TimerRecord)
        self.gauges: Dict[Tuple[str, str], float] = {}
        self.histograms: Dict[Tuple[str, str], Histogram] = defaultdict(Histogram)
        #: Named time series: name -> list of (timestamp, value) samples.
        self.series: Dict[str, List[Tuple[float, float]]] = defaultdict(list)

    # -- recording -----------------------------------------------------
    def count(self, module: str, op: str, n: int = 1) -> None:
        self.counters[(module, op)] += n

    def time(self, module: str, op: str, elapsed: float) -> None:
        self.timers[(module, op)].add(elapsed)

    def gauge(self, module: str, name: str, value: float) -> None:
        self.gauges[(module, name)] = value

    def observe(self, module: str, name: str, value: float) -> None:
        """Add one observation to the ``(module, name)`` histogram."""
        self.histograms[(module, name)].add(value)

    def sample(self, name: str, t: float, value: float) -> None:
        """Append one time-series sample (used by :class:`TelemetrySampler`)."""
        self.series[name].append((t, value))

    # -- reading -------------------------------------------------------
    def counter(self, module: str, op: str) -> int:
        return self.counters.get((module, op), 0)

    def timer(self, module: str, op: str) -> TimerRecord:
        return self.timers.get((module, op), TimerRecord())

    def modules(self) -> Iterator[str]:
        seen = set()
        for mod, _ in list(self.counters) + list(self.timers):
            if mod not in seen:
                seen.add(mod)
                yield mod

    def histogram(self, module: str, name: str) -> Histogram:
        return self.histograms.get((module, name), Histogram())

    def merge(self, other: "RuntimeStats") -> None:
        """Fold another rank's stats into this one (for cluster-wide reports).

        Counters, timers and histograms are additive;
        gauges keep the maximum across ranks; time series are concatenated
        and kept time-sorted (samples from all ranks on one axis).
        """
        for k, v in other.counters.items():
            self.counters[k] += v
        for k, rec in other.timers.items():
            mine = self.timers[k]
            mine.count += rec.count
            mine.total += rec.total
            mine.max = max(mine.max, rec.max)
        for k, v in other.gauges.items():
            self.gauges[k] = max(self.gauges.get(k, v), v)
        for k, h in other.histograms.items():
            self.histograms[k].merge(h)
        for name, points in other.series.items():
            mine_pts = self.series[name]
            mine_pts.extend(points)
            mine_pts.sort(key=lambda p: p[0])

    def to_dict(self) -> Dict[str, Any]:
        """Machine-readable export (consumed by ``repro profile`` and the
        bench harness)."""
        return {
            "counters": {
                f"{mod}.{op}": n for (mod, op), n in sorted(self.counters.items())
            },
            "timers": {
                f"{mod}.{op}": {
                    "count": rec.count, "total": rec.total,
                    "mean": rec.mean, "max": rec.max,
                }
                for (mod, op), rec in sorted(self.timers.items())
            },
            "gauges": {
                f"{mod}.{name}": v for (mod, name), v in sorted(self.gauges.items())
            },
            "histograms": {
                f"{mod}.{name}": h.to_dict()
                for (mod, name), h in sorted(self.histograms.items())
            },
            "series": {
                name: [[t, v] for t, v in pts]
                for name, pts in sorted(self.series.items())
            },
        }

    def report(self) -> str:
        """Human-readable module/operation breakdown."""
        lines = ["module/operation breakdown:"]
        for (mod, op), rec in sorted(self.timers.items()):
            lines.append(
                f"  {mod:>10s}.{op:<24s} n={rec.count:<8d} total={rec.total:.6f}s mean={rec.mean:.3e}s"
            )
        for (mod, op), n in sorted(self.counters.items()):
            lines.append(f"  {mod:>10s}.{op:<24s} count={n}")
        for (mod, name), v in sorted(self.gauges.items()):
            lines.append(f"  {mod:>10s}.{name:<24s} gauge={v}")
        return "\n".join(lines)


class TelemetrySampler:
    """Periodic scheduler-telemetry sampling for one runtime (one rank).

    Each tick records, into the rank's :class:`RuntimeStats` time series (and
    optionally as Chrome-trace counter tracks via an attached tracer):

    - ``ready_tasks``   — total ready tasks across the rank's deques,
    - ``event_queue``   — pending engine events/timers on the executor,
    - ``pop_rate`` / ``steal_rate`` — deque pops/steals per second since the
      previous tick,
    - ``idle_fraction`` — mean per-worker idle fraction, read from each
      :class:`~repro.runtime.worker.WorkerState` (``idle_time / clock`` on
      virtual time; one minus the worker's ``busy_time`` over wall time on
      the threaded engine; this registry keeps no per-worker time of its
      own),
    - ``events_per_sec`` — engine events dispatched per *wall-clock* second
      since the previous tick (the DES engine's real throughput; 0 on
      executors without an ``events_processed`` counter and on the baseline
      first tick).

    The two DES-engine observables are also published as gauges under the
    ``sim`` module — ``sim.events_per_sec`` (last tick's rate; cross-rank
    merge keeps the max) and ``sim.event_queue_depth`` — so they show up in
    ``RuntimeStats.report()`` / ``metrics.json`` gauge sections without
    walking the series.

    Ticks ride the executor's ``call_later`` facility, so sampling is on
    virtual time under :class:`~repro.exec.sim.SimExecutor` and on wall time
    under :class:`~repro.exec.threaded.ThreadedExecutor`. ``max_samples``
    bounds the tick chain so a stalled run still quiesces (the simulated
    engine's deadlock proof requires the event queue to drain).
    """

    def __init__(self, runtime, *, period: float = 1e-4,
                 max_samples: int = 4096, tracer=None):
        if period <= 0:
            raise ValueError(f"sampler period must be positive, got {period}")
        self.runtime = runtime
        self.period = float(period)
        self.max_samples = int(max_samples)
        self.tracer = tracer
        self.samples_taken = 0
        self._stopped = False
        self._last_pops = 0
        self._last_steals = 0
        self._last_events = 0
        self._last_wall: Optional[float] = None

    def start(self) -> None:
        """Take one sample immediately, then tick every ``period``.

        The immediate sample guarantees every series exists even for runs
        shorter than one period (the simulated engine also prefers ready
        tasks over timer events, so short pure-compute runs may complete
        before the first deferred tick fires)."""
        self._stopped = False
        self._tick()

    def stop(self) -> None:
        self._stopped = True

    # -- one tick ------------------------------------------------------
    def _tick(self) -> None:
        if self._stopped or self.samples_taken >= self.max_samples:
            return
        rt = self.runtime
        ex = rt.executor
        t = ex.now()
        stats = rt.stats

        ready = rt.deques.total_ready()
        pending = ex.pending_events()
        pops = stats.counter("core", "pop")
        steals = stats.counter("core", "steal")
        pop_rate = (pops - self._last_pops) / self.period
        steal_rate = (steals - self._last_steals) / self.period
        self._last_pops, self._last_steals = pops, steals

        # Engine throughput is a wall-clock rate on purpose: virtual time is
        # workload-defined, so events per *virtual* second says nothing about
        # how fast the engine itself runs.
        events = getattr(ex, "events_processed", 0)
        wall = time.perf_counter()
        if self._last_wall is not None and wall > self._last_wall:
            events_per_sec = (events - self._last_events) / (wall - self._last_wall)
        else:
            events_per_sec = 0.0
        self._last_events, self._last_wall = events, wall

        idle = self._idle_fraction(t)

        stats.sample("ready_tasks", t, float(ready))
        stats.sample("event_queue", t, float(pending))
        stats.sample("pop_rate", t, pop_rate)
        stats.sample("steal_rate", t, steal_rate)
        stats.sample("idle_fraction", t, idle)
        stats.sample("events_per_sec", t, events_per_sec)
        stats.gauge("sim", "events_per_sec", events_per_sec)
        stats.gauge("sim", "event_queue_depth", float(pending))
        if self.tracer is not None:
            self.tracer.record_counter(rt.rank, "ready_tasks", t, float(ready))
            self.tracer.record_counter(rt.rank, "event_queue", t, float(pending))
            self.tracer.record_counter(rt.rank, "events_per_sec", t,
                                       events_per_sec)
            self.tracer.record_counter(rt.rank, "utilization", t,
                                       max(0.0, 1.0 - idle))
        self.samples_taken += 1
        ex.call_later(self.period, self._tick)

    def _idle_fraction(self, t: float) -> float:
        wall = self.runtime.executor.mode == "threads"
        fractions = []
        for w in self.runtime.workers:
            if w.clock > 0 and not wall:  # virtual time: the worker's clock
                fractions.append(min(1.0, w.idle_time / w.clock))
            else:  # wall time, or a virtual worker that has not run yet
                fractions.append(max(0.0, 1.0 - w.busy_time / t)
                                 if t > 0 else 0.0)
        return sum(fractions) / len(fractions) if fractions else 0.0
