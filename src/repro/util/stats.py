"""Runtime statistics hooks (paper §V "Discussion": unified-scheduler tooling).

Because the runtime schedules *all* work, it can attribute time to modules
and expose semantic performance information. This is that layer, the
metrics registry of the unified observability stack:

- counters and timers keyed by ``(module, operation)``,
- gauges (last-written values, e.g. heap occupancy),
- log2-bucketed histograms (message sizes, sweep batch sizes),
- named time series filled by :class:`TelemetrySampler` (virtual-time ticks
  under the simulated executor, wall-time ticks under the threaded one).

The registry has no options: it is always on. Hot owners (the fabric mux,
the SHMEM and MPI backends, the runtime, its workers and polling services,
the modules) keep plain integers and register a collector that the registry
pulls only when read; :meth:`~RuntimeStats.count` and
:meth:`~RuntimeStats.observe` push, for cold paths and third-party code.
Per-worker time lives on each :class:`~repro.runtime.worker.WorkerState`.
Everything a rank records is exportable via :meth:`RuntimeStats.to_dict` and
mergeable across ranks via :meth:`RuntimeStats.merge` (``metrics.json``).
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_Key = Tuple[str, str]  # (module, operation)


class Histogram:
    """Log2-bucketed histogram of non-negative values (cheap, fixed size).

    Bucket ``i`` counts values in ``[2**(i-1), 2**i)``, so a value's bucket
    is ``int(value).bit_length()`` (bucket 0: below 1; the last bucket also
    takes anything past ``2**64``); good enough for message sizes and queue
    depths where order of magnitude is what matters.
    """

    __slots__ = ("counts", "total", "n", "max")

    def __init__(self):
        self.counts: List[int] = [0] * 65
        self.total = 0.0
        self.n = 0
        self.max = 0.0

    def add(self, value: float) -> None:
        if value < 0:
            value = 0.0
        self.counts[min(int(value).bit_length(), 64)] += 1
        self.total += value
        self.n += 1
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    def merge(self, other: "Histogram") -> None:
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.total += other.total
        self.n += other.n
        self.max = max(self.max, other.max)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n": self.n,
            "mean": self.mean,
            "max": self.max,
            "buckets": {str(b): c for b, c in enumerate(self.counts) if c},
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
    ``"core"``. :attr:`counters` and :attr:`histograms` are what
    :meth:`count`/:meth:`observe` pushed plus what every registered
    collector holds, read afresh on each access (paper §V hooks).
    """

    def __init__(self):
        self._counters: Dict[_Key, int] = defaultdict(int)
        self.timers: Dict[_Key, TimerRecord] = defaultdict(TimerRecord)
        self.gauges: Dict[_Key, float] = {}
        self._histograms: Dict[_Key, Histogram] = defaultdict(Histogram)
        #: Named time series: name -> list of (timestamp, value) samples; a
        #: merged registry keeps one such list per rank: name -> rank -> list.
        self.series: Dict[str, Any] = defaultdict(list)
        self._collectors: List[Callable[[Dict, Dict], None]] = []

    # -- recording -----------------------------------------------------
    def register(self, collect: Callable[[Dict, Dict], None]) -> None:
        """Call ``collect(counters, histograms)`` on every read: an owner
        keeps plain integers and adds them into those snapshot dicts."""
        self._collectors.append(collect)

    def count(self, module: str, op: str, n: int = 1) -> None:
        self._counters[(module, op)] += n

    def time(self, module: str, op: str, elapsed: float) -> None:
        self.timers[(module, op)].add(elapsed)

    def gauge(self, module: str, name: str, value: float) -> None:
        self.gauges[(module, name)] = value

    def observe(self, module: str, name: str, value: float) -> None:
        """Add one observation to the ``(module, name)`` histogram."""
        self._histograms[(module, name)].add(value)

    def sample(self, name: str, t: float, value: float) -> None:
        """Append one time-series sample (used by :class:`TelemetrySampler`)."""
        self.series[name].append((t, value))

    # -- reading -------------------------------------------------------
    def _snapshot(self) -> Tuple[Dict[_Key, int], Dict[_Key, Histogram]]:
        counters = defaultdict(int, self._counters)
        histograms: Dict[_Key, Histogram] = defaultdict(Histogram)
        for k, h in self._histograms.items():
            histograms[k].merge(h)
        for collect in self._collectors:
            collect(counters, histograms)
        return counters, histograms

    counters = property(lambda self: self._snapshot()[0])
    histograms = property(lambda self: self._snapshot()[1])

    def counter(self, module: str, op: str) -> int:
        return self.counters.get((module, op), 0)

    def timer(self, module: str, op: str) -> TimerRecord:
        return self.timers.get((module, op), TimerRecord())

    def modules(self) -> Iterator[str]:
        return iter(dict.fromkeys(m for m, _ in [*self.counters, *self.timers]))

    def histogram(self, module: str, name: str) -> Histogram:
        return self.histograms.get((module, name), Histogram())

    def merge(self, other: "RuntimeStats", rank: int = 0) -> None:
        """Fold rank ``rank``'s stats into this one (cluster-wide reports).

        Counters, timers and histograms are additive; gauges keep the
        maximum across ranks; each time series keeps one time-sorted list
        of samples per rank: ``series[name][rank]``.
        """
        counters, histograms = other._snapshot()
        for k, v in counters.items():
            self._counters[k] += v
        for k, rec in other.timers.items():
            mine = self.timers[k]
            mine.count += rec.count
            mine.total += rec.total
            mine.max = max(mine.max, rec.max)
        for k, v in other.gauges.items():
            self.gauges[k] = max(self.gauges.get(k, v), v)
        for k, h in histograms.items():
            self._histograms[k].merge(h)
        for name, points in other.series.items():
            mine_pts = self.series.setdefault(name, {}).setdefault(rank, [])
            mine_pts.extend(points)
            mine_pts.sort(key=lambda p: p[0])

    def to_dict(self) -> Dict[str, Any]:
        """Machine-readable export (consumed by ``repro profile`` and the
        bench harness)."""
        counters, histograms = self._snapshot()
        return {
            "counters": {f"{m}.{op}": n for (m, op), n in sorted(counters.items())},
            "timers": {f"{m}.{op}": {"count": r.count, "total": r.total,
                                     "mean": r.mean, "max": r.max}
                       for (m, op), r in sorted(self.timers.items())},
            "gauges": {f"{m}.{n}": v for (m, n), v in sorted(self.gauges.items())},
            "histograms": {f"{m}.{n}": h.to_dict()
                           for (m, n), h in sorted(histograms.items())},
            "series": {  # per rank once merged
                name: {str(r): [list(p) for p in rp] for r, rp in sorted(pts.items())}
                if isinstance(pts, dict) else [list(p) for p in pts]
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
      previous tick, and
    - ``idle_fraction`` — mean per-worker idle fraction (``idle_time /
      clock`` on virtual time, one minus ``busy_time`` over wall time on the
      threaded engine), all three read from each
      :class:`~repro.runtime.worker.WorkerState`, so a tick never snapshots
      the registry,
    - ``events_per_sec`` — engine events dispatched per *wall-clock* second
      since the previous tick (0 without ``events_processed`` and on the
      first tick).

    The two DES-engine observables are also gauges, ``sim.events_per_sec``
    (last tick's rate; cross-rank merge keeps the max) and
    ``sim.event_queue_depth``.

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
        self._last_pops = self._last_steals = self._last_events = 0
        self._last_wall: Optional[float] = None

    def start(self) -> None:
        """Take one sample immediately, then tick every ``period``: every
        series exists even for runs shorter than one period (the simulated
        engine prefers ready tasks over timers, so short pure-compute runs
        may complete before the first deferred tick fires)."""
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
        pops = sum(w.pops for w in rt.workers)
        steals = sum(w.steals for w in rt.workers)
        pop_rate = (pops - self._last_pops) / self.period
        steal_rate = (steals - self._last_steals) / self.period
        self._last_pops, self._last_steals = pops, steals

        # A wall-clock rate on purpose: events per *virtual* second would say
        # nothing about how fast the engine itself runs.
        events = getattr(ex, "events_processed", 0)
        wall = time.perf_counter()
        if self._last_wall is not None and wall > self._last_wall:
            events_per_sec = (events - self._last_events) / (wall - self._last_wall)
        else:
            events_per_sec = 0.0
        self._last_events, self._last_wall = events, wall

        idle = self._idle_fraction(t)

        for name, value in (
                ("ready_tasks", float(ready)), ("event_queue", float(pending)),
                ("pop_rate", pop_rate), ("steal_rate", steal_rate),
                ("idle_fraction", idle), ("events_per_sec", events_per_sec)):
            stats.sample(name, t, value)
        stats.gauge("sim", "events_per_sec", events_per_sec)
        stats.gauge("sim", "event_queue_depth", float(pending))
        if self.tracer is not None:
            for name, value in (("ready_tasks", float(ready)),
                                ("event_queue", float(pending)),
                                ("events_per_sec", events_per_sec),
                                ("utilization", max(0.0, 1.0 - idle))):
                self.tracer.record_counter(rt.rank, name, t, value)
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
