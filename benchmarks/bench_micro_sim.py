"""DES engine micro-benchmarks: raw event throughput of ``SimExecutor``
against the test-only reference,
``repro.verify.differential.make_engine("ref-sim")`` (``InterleaveExecutor``
under the lowest-clock strategy — see ``docs/sim-internals.md``). The
``*_objects`` cases run the reference and the ``*_flat`` cases production;
the names predate the single engine and stay so ``BENCH_sim.json`` history
lines up. Both storms are event-only (no runtime, no tasks), and both
engines share one ``heapq`` event list, so a pair times how events are
posted, not two queues:

- **wave storm** — 32 waves of 16 384 same-timestamp events outstanding at
  once. The reference posts each event with ``call_at`` and a
  ``functools.partial``; production posts each wave with one
  ``call_at_batch`` and a shared function.
- **random storm** — self-rearming timer chains at scattered timestamps:
  all-singleton cohorts, the same calls on both sides (parity expected).

Neither is the traffic the workloads post. Replaying each end-to-end
workload's recorded push/pop sequence (``taskgraph_mix`` posts no events):

    trace                          pops  singleton cohorts  max cohort
    isx_flat_a2a                158 042               90 %         480
    uts_lock_smallmsg           196 863             99.8 %          16
    uts_hiper_steal              63 677               94 %          16
    stencil_modules              43 659               75 %          26
    Fig. 5 flat, 512 ranks      613 634               94 %         960
    Fig. 5 flat, 1024 ranks   2 169 663               94 %       1 920

The wave storm is the one shape where the calendar queue the event list
replaced was faster (0.32 s against 1.31 s); on every trace above the heap
was.

The wave-storm pair carries the ``perf_smoke`` marker CI runs, and nine
rounds at least: its headline is a ratio of two runs taken seconds apart,
and more rounds average out load spikes on one side. Run under plain
pytest-benchmark (``--benchmark-json=<file>``, or ``--benchmark-autosave``
then ``--benchmark-compare``); ``BENCH_sim.json`` is the frozen history.
Real wall time (events/second of the Python implementation), not virtual
time.
"""

import functools
import os
import random
import time

import pytest

from repro.exec.sim import SimExecutor
from repro.verify.differential import make_engine

WAVES = 32
PER_WAVE = 16384
RANDOM_EVENTS = 150_000
CHAINS = 64

# Sharded pair: a 512-rank ISx key exchange (the wave shape, end-to-end
# through the SPMD runtime) run single-shard vs. across 2 OS-process
# shards under the conservative-window protocol. The >=2x speedup story
# needs >=4 cores; on a 1-core container the pair instead records the
# measured ratio plus the window-overhead fraction (wall time the shards
# spend blocked at window barriers), mirroring BENCH_procs.json.
ISX_RANKS = 512
ISX_KEYS_PER_PE = 64
ISX_SHARDS = 2
_isx_wall = {}


def _isx_wave(shards):
    from repro.distrib.spmd import ClusterConfig, spmd_run
    from repro.shmem import shmem_factory
    from repro.verify.spmd_workloads import isx_exchange_factory

    info = {}

    def run():
        cfg = ClusterConfig(nodes=ISX_RANKS, ranks_per_node=1, seed=0)
        res = spmd_run(isx_exchange_factory(keys_per_pe=ISX_KEYS_PER_PE),
                       cfg, module_factories=[shmem_factory(direct=True)],
                       executor=SimExecutor(shards=shards))
        assert sum(c for c, _ in res.results) == ISX_RANKS * ISX_KEYS_PER_PE
        res.executor.shutdown()
        info["wall_s"] = res.wall_s
        info["windows"] = res.windows
        info["idle_s"] = sum(t["idle_wall_s"] for t in res.shard_counters)

    return run, info


def _drain(ex):
    while ex.pending_events():
        ex._advance_events()


def _reference():
    return make_engine("ref-sim")


def _wave_storm(cls):
    """All waves outstanding up front: a deep queue of same-timestamp
    cohorts, dispatched oldest-first."""
    n_total = WAVES * PER_WAVE
    sink = lambda i: None  # noqa: E731 - minimal callback, cost is the engine

    def run():
        ex = cls()
        for w in range(WAVES):
            t = 1e-6 * (w + 1)
            if cls is SimExecutor:
                ex.call_at_batch([t] * PER_WAVE, sink, list(range(PER_WAVE)))
            else:
                for i in range(PER_WAVE):
                    ex.call_at(t, functools.partial(sink, i))
        _drain(ex)
        assert ex.events_processed == n_total
        # Release the queue between rounds: pytest-benchmark disables GC, so
        # without the explicit shutdown each round's executor would pile up
        # and later rounds would measure memory pressure, not the engine.
        ex.shutdown()

    return run, n_total


def _random_storm(cls):
    """Self-rearming timer chains: every cohort is a singleton."""

    def run():
        rng = random.Random(42)
        ex = cls()
        delays = [rng.random() for _ in range(RANDOM_EVENTS)]
        state = {"i": 0}

        def tick(arg=None):
            i = state["i"]
            if i < RANDOM_EVENTS:
                state["i"] = i + 1
                ex.call_later(delays[i], tick)

        for _ in range(CHAINS):
            i = state["i"]
            state["i"] = i + 1
            ex.call_later(delays[i], tick)
        _drain(ex)
        assert ex.events_processed == RANDOM_EVENTS
        ex.shutdown()

    return run


@pytest.mark.perf_smoke
@pytest.mark.benchmark(min_rounds=9)
def test_wave_storm_objects(benchmark):
    run, n = _wave_storm(_reference)
    benchmark(run)
    benchmark.extra_info["events_per_call"] = n
    benchmark.extra_info["engine"] = "reference"


@pytest.mark.perf_smoke
@pytest.mark.benchmark(min_rounds=9)
def test_wave_storm_flat(benchmark):
    run, n = _wave_storm(SimExecutor)
    benchmark(run)
    benchmark.extra_info["events_per_call"] = n
    benchmark.extra_info["engine"] = "flat"


def test_random_storm_objects(benchmark):
    benchmark(_random_storm(_reference))
    benchmark.extra_info["events_per_call"] = RANDOM_EVENTS
    benchmark.extra_info["engine"] = "reference"


def test_random_storm_flat(benchmark):
    benchmark(_random_storm(SimExecutor))
    benchmark.extra_info["events_per_call"] = RANDOM_EVENTS
    benchmark.extra_info["engine"] = "flat"


def test_isx_wave_512_single_shard(benchmark):
    run, info = _isx_wave(1)
    benchmark.pedantic(run, rounds=1, iterations=1)
    _isx_wall["single"] = info["wall_s"]
    benchmark.extra_info.update(
        engine="flat", ranks=ISX_RANKS, shards=1,
        keys_per_pe=ISX_KEYS_PER_PE, cpu_count=os.cpu_count())


def test_isx_wave_512_sharded(benchmark):
    run, info = _isx_wave(ISX_SHARDS)
    benchmark.pedantic(run, rounds=1, iterations=1)
    extra = {
        "engine": "flat-sharded", "ranks": ISX_RANKS, "shards": ISX_SHARDS,
        "keys_per_pe": ISX_KEYS_PER_PE, "cpu_count": os.cpu_count(),
        "windows": info["windows"],
        # Fraction of total shard wall time spent blocked at window
        # barriers — the protocol's cost, and on few cores its bound.
        "window_overhead_fraction": round(
            info["idle_s"] / (ISX_SHARDS * info["wall_s"]), 3),
    }
    single = _isx_wall.get("single")
    if single:  # requires the single-shard test in the same run
        extra["time_vs_single_shard"] = round(info["wall_s"] / single, 2)
    benchmark.extra_info.update(extra)
