"""Job-gateway service benchmarks: warm pools and concurrent-client load.

Two questions, two shapes:

- **Warm vs. cold** (the CI perf-smoke pair): the same ISx digest job
  submitted through a :class:`~repro.service.JobGateway` whose pool keeps a
  constructed runtime warm (``test_service_job_warm``) vs. one that
  constructs and tears down a runtime per job (``test_service_job_cold``,
  ``warm=False`` — exactly what the CLI's one-shot path pays). The pair
  runs on the ``threads`` backend, where cold construction really spawns
  and joins OS worker threads per job; the warm/cold ops-ratio in
  ``BENCH_service.json`` is the pool's reason to exist and must stay
  >= 2x.

- **Load** (``test_service_load_1000_clients``, full runs only): 1000
  client sessions from 50 driver threads against a live UDS server —
  real sockets, real HTTP framing, fair-share admission across 4 tenants,
  duplicate submissions deduping through the result cache. Every session's
  submit->result latency is recorded; p50/p95/p99 land in the entry's
  ``extra_info``. The correctness bar is zero lost and zero duplicated
  results: 1000 distinct job ids, every one terminal-DONE, every digest
  equal to its spec's oracle.

The warm/cold pair carries the ``perf_smoke`` marker CI runs. Run under
plain pytest-benchmark (``--benchmark-json=<file>``, or
``--benchmark-autosave`` then ``--benchmark-compare``);
``BENCH_service.json`` is the frozen history of earlier runs.
"""

import itertools
import os
import tempfile
import threading
import time

import pytest

from repro.service import JobGateway, ServiceClient, ServiceConfig, ServiceServer

#: ISx job size for the warm/cold pair: small enough that per-job runtime
#: construction dominates the cold path (that is the effect under test),
#: big enough that the job still sorts real keys.
KEYS_PER_PE = 64

_seed = itertools.count(10_000)


#: Jobs per measured burst: the pool's value shows under a *stream* of
#: jobs (back-to-back on one warm entry), so each round submits a burst
#: and waits for all of it; per-job dispatch handoffs amortize out.
BURST = 10


def _bench_gateway_burst(benchmark, warm: bool):
    gw = JobGateway(ServiceConfig(backends=("threads",), pool_size=1,
                                  workers=4, warm=warm)).start()
    try:
        def run():
            jobs = [gw.submit("isx", {"keys_per_pe": KEYS_PER_PE},
                              seed=next(_seed), backend="threads")
                    for _ in range(BURST)]
            for job in jobs:
                assert job.done_event.wait(60.0)
                assert job.state.value == "done", job.error
                assert not job.cache_hit  # fresh seeds: no dedupe

        benchmark.pedantic(run, rounds=15, iterations=1, warmup_rounds=2)
    finally:
        gw.close()
    benchmark.extra_info.update(
        warm=warm, backend="threads", keys_per_pe=KEYS_PER_PE,
        jobs_per_round=BURST,
        jobs_completed=gw.stats.counter("service", "jobs_completed"))


@pytest.mark.perf_smoke
def test_service_job_warm(benchmark):
    """A burst of jobs on a warm pool: construction paid once at startup."""
    _bench_gateway_burst(benchmark, warm=True)


@pytest.mark.perf_smoke
def test_service_job_cold(benchmark):
    """The same burst spawning/joining a threaded runtime per job (the
    pre-service baseline); the warm pool above must beat this by >= 2x."""
    _bench_gateway_burst(benchmark, warm=False)


# ---------------------------------------------------------------------------
# load test: 1000 concurrent client sessions over a real UDS server
# ---------------------------------------------------------------------------

N_CLIENTS = 1000
N_THREADS = 50
TENANTS = ("alice", "bob", "carol", "dave")
#: (app, params, seed) spec space: 100 distinct specs, so each is submitted
#: ~10x and the duplicates must dedupe through the result cache.
SPEC_SPACE = [("isx", {"keys_per_pe": 32 + 16 * (i % 4)}, i // 4)
              for i in range(100)]


def _percentile(sorted_vals, q):
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, int(round(q * (len(sorted_vals) - 1))))
    return sorted_vals[idx]


def test_service_load_1000_clients(benchmark):
    """1000 sessions, 50 keep-alive connections, zero lost/dup results."""
    uds = os.path.join(tempfile.mkdtemp(prefix="repro-svc-"), "svc.sock")
    gw = JobGateway(ServiceConfig(backends=("sim",), pool_size=4, workers=2,
                                  max_queue_per_tenant=512))
    server = ServiceServer(gw, uds=uds).start()

    # Oracle digest per distinct spec, computed through the same service so
    # the comparison is wire-format to wire-format.
    oracle = {}
    with ServiceClient(uds=uds) as c:
        for i, (app, params, seed) in enumerate(SPEC_SPACE):
            job = c.submit(app, params, seed=seed, tenant=TENANTS[0])
            doc = c.wait(job["job_id"], timeout=60.0)
            assert doc["state"] == "done", doc
            oracle[i] = doc["result"]

    latencies = [None] * N_CLIENTS   # session -> submit->result seconds
    job_ids = [None] * N_CLIENTS
    failures = []

    def drive(thread_idx):
        # One persistent connection per driver thread, N_CLIENTS/N_THREADS
        # sessions each; tenants interleave so fair share is exercised.
        with ServiceClient(uds=uds, timeout=120.0) as client:
            for session in range(thread_idx, N_CLIENTS, N_THREADS):
                spec_idx = session % len(SPEC_SPACE)
                app, params, seed = SPEC_SPACE[spec_idx]
                t0 = time.perf_counter()
                try:
                    job = client.submit(
                        app, params, seed=seed,
                        tenant=TENANTS[session % len(TENANTS)])
                    doc = client.wait(job["job_id"], timeout=90.0)
                    latencies[session] = time.perf_counter() - t0
                    job_ids[session] = job["job_id"]
                    if doc["state"] != "done":
                        failures.append((session, doc.get("error")))
                    elif doc["result"] != oracle[spec_idx]:
                        failures.append((session, "result mismatch"))
                except Exception as exc:  # noqa: BLE001 - collected below
                    failures.append((session, f"{type(exc).__name__}: {exc}"))

    def run_load():
        threads = [threading.Thread(target=drive, args=(i,), daemon=True)
                   for i in range(N_THREADS)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300.0)
        return time.perf_counter() - t0

    try:
        benchmark.pedantic(run_load, rounds=1, iterations=1)

        assert not failures, failures[:10]
        # Zero lost: every session produced a result. Zero duplicated:
        # 1000 sessions -> 1000 distinct job ids (a resubmission is a new
        # job even when the cache answers it).
        assert all(lat is not None for lat in latencies)
        assert len(set(job_ids)) == N_CLIENTS

        lat_sorted = sorted(latencies)
        stats = gw.stats_dict()
        benchmark.extra_info.update(
            clients=N_CLIENTS, threads=N_THREADS, tenants=len(TENANTS),
            distinct_specs=len(SPEC_SPACE),
            p50_ms=round(_percentile(lat_sorted, 0.50) * 1e3, 3),
            p95_ms=round(_percentile(lat_sorted, 0.95) * 1e3, 3),
            p99_ms=round(_percentile(lat_sorted, 0.99) * 1e3, 3),
            max_ms=round(lat_sorted[-1] * 1e3, 3),
            cache_hits=stats["cache"]["hits"],
            jobs_rejected_429=gw.stats.counter("service", "jobs_rejected"),
            cpu_count=os.cpu_count(),
        )
    finally:
        server.stop()
