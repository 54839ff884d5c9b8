"""DES engine micro-benchmarks: raw event throughput of ``SimExecutor``
(slab + calendar queue) against the reference it replaced
(``repro.verify.reference.ReferenceSimExecutor``, a heapq of records — see
``docs/sim-internals.md``). The ``*_objects`` cases run the reference and
the ``*_flat`` cases production; the names predate the single engine and
stay so ``BENCH_sim.json`` history lines up.

Two workload shapes bracket what the fabric actually generates:

- **wave storm** — many delivery waves outstanding at once, each wave one
  timestamp carrying thousands of events (the 512/1024-rank ISx all-to-all
  collapse shape). Each side is fed the way it was in production: the
  reference's ``call_at`` takes a thunk, so the fabric had to allocate one
  closure per delivery; ``call_at_batch`` prices the wave with one shared
  function. This pair is the ledger's headline comparison — the slab
  engine's reason to exist.
- **random storm** — self-rearming timer chains at scattered timestamps
  (polling services, timeouts, retries): all-singleton cohorts, the
  reference's best case. Production only has to hold parity here.

Recorded to ``BENCH_sim.json`` via ``python -m repro bench-record --suite
sim``. Real wall time (events/second of the Python implementation), not
virtual time.
"""

import functools
import os
import random
import time

from repro.exec.sim import SimExecutor
from repro.verify.reference import ReferenceSimExecutor

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
        ex = SimExecutor(shards=shards)
        t0 = time.perf_counter()
        res = spmd_run(isx_exchange_factory(keys_per_pe=ISX_KEYS_PER_PE),
                       cfg, module_factories=[shmem_factory(direct=True)],
                       executor=ex)
        info["wall_s"] = time.perf_counter() - t0
        assert sum(c for c, _ in res.results) == ISX_RANKS * ISX_KEYS_PER_PE
        if shards == 1:
            ex.shutdown()
        else:
            info["windows"] = res.windows
            info["idle_s"] = sum(
                t["idle_wall_s"] for t in res.shard_counters)

    return run, info


def _drain(ex):
    while ex.pending_events():
        ex._advance_events()


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
        # Release the slab between rounds: pytest-benchmark disables GC, so
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


def test_wave_storm_objects(benchmark):
    run, n = _wave_storm(ReferenceSimExecutor)
    benchmark(run)
    benchmark.extra_info["events_per_call"] = n
    benchmark.extra_info["engine"] = "reference"


def test_wave_storm_flat(benchmark):
    run, n = _wave_storm(SimExecutor)
    benchmark(run)
    benchmark.extra_info["events_per_call"] = n
    benchmark.extra_info["engine"] = "flat"


def test_random_storm_objects(benchmark):
    benchmark(_random_storm(ReferenceSimExecutor))
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
