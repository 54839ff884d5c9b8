"""The ``repro.service`` job gateway: units, edge cases, and the wire.

Layered like the package: cache / admission / spec units first (no
threads), then gateway edge cases driven directly (cancel queued vs.
running, backpressure, drain with in-flight jobs, reload), then the HTTP
server + client over a real Unix-domain socket, ending in the CI smoke
scenario (two tenants, a burst of jobs, clean remote drain).
"""

import threading
import time

import pytest

from repro.service import (FairShareAdmission, Job, JobGateway, JobSpec,
                           QueueFull, ResultCache, ServiceClient,
                           ServiceConfig, ServiceDraining, ServiceError,
                           ServiceServer)
from repro.service.pool import WarmRuntime, run_job_on
from repro.util.errors import ConfigError

#: A job slow enough (~0.5 s simulated UTS) to be observably RUNNING.
SLOW = {"root_children": 5000}
#: A quick job (~50 ms) for queue/drain scenarios.
QUICK = {"root_children": 500}


def _wait_state(job, state, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if job.state.value == state:
            return True
        time.sleep(0.005)
    return False


# ---------------------------------------------------------------------------
# units: result cache
# ---------------------------------------------------------------------------
class TestResultCache:
    def test_miss_then_hit(self):
        c = ResultCache(capacity=4)
        assert c.get("k") == (False, None)
        c.put("k", [1, 2])
        assert c.get("k") == (True, [1, 2])
        assert (c.hits, c.misses) == (1, 1)

    def test_lru_eviction_and_hit_refresh(self):
        c = ResultCache(capacity=2)
        c.put("a", 1)
        c.put("b", 2)
        assert c.get("a")[0]          # refresh "a": now "b" is oldest
        c.put("c", 3)
        assert c.get("b") == (False, None)
        assert c.get("a") == (True, 1)
        assert c.evictions == 1

    def test_duplicate_put_keeps_original(self):
        c = ResultCache(capacity=4)
        c.put("k", "first")
        c.put("k", "second")
        assert c.get("k") == (True, "first")
        assert len(c) == 1

    def test_zero_capacity_disables(self):
        c = ResultCache(capacity=0)
        c.put("k", 1)
        assert c.get("k") == (False, None)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigError):
            ResultCache(capacity=-1)


# ---------------------------------------------------------------------------
# units: job spec / cache key discipline
# ---------------------------------------------------------------------------
class TestJobSpec:
    def test_unknown_names_rejected(self):
        with pytest.raises(ConfigError, match="unknown app"):
            JobSpec.create("nope")
        with pytest.raises(ConfigError, match="unknown backend"):
            JobSpec.create("isx", backend="gpu")
        with pytest.raises(TypeError):  # one DES engine: not a spec field
            JobSpec.create("isx", engine="flat")
        assert "engine" not in JobSpec.create("isx").canonical()

    def test_bad_params_list_valid_fields(self):
        with pytest.raises(ConfigError, match="keys_per_pe"):
            JobSpec.create("isx", {"keys": 10})

    def test_seed_field_is_canonical(self):
        # A "seed" smuggled into params loses to the spec's seed field, so
        # the cache key cannot be split by where the seed was written.
        a = JobSpec.create("isx", {"keys_per_pe": 64, "seed": 5}, seed=7)
        b = JobSpec.create("isx", {"keys_per_pe": 64}, seed=7)
        assert a == b and a.cache_key() == b.cache_key()
        assert a.canonical()["seed"] == 7

    def test_key_ignores_param_order_not_values(self):
        a = JobSpec.create("uts", {"root_children": 9, "mean_children": 0.5})
        b = JobSpec.create("uts", {"mean_children": 0.5, "root_children": 9})
        c = JobSpec.create("uts", {"root_children": 10, "mean_children": 0.5})
        assert a.cache_key() == b.cache_key() != c.cache_key()

    @pytest.mark.parametrize("field", ["seed", "ranks"])
    def test_bool_is_not_an_integer_field(self, field):
        # bool is an int: ranks=True once ran a job cached apart from ranks=1
        with pytest.raises(ConfigError, match=f"{field} must be"):
            JobSpec.create("isx", backend="procs", **{field: True})

    def test_ranks_in_key_only_for_procs(self):
        assert (JobSpec.create("isx", ranks=2).cache_key()
                == JobSpec.create("isx", ranks=8).cache_key())
        assert (JobSpec.create("isx", backend="procs", ranks=2).cache_key()
                != JobSpec.create("isx", backend="procs", ranks=8).cache_key())


# ---------------------------------------------------------------------------
# units: fair-share admission
# ---------------------------------------------------------------------------
def _job(tenant, backend="sim", **params):
    params.setdefault("keys_per_pe", 32)
    return Job(JobSpec.create("isx", params, backend=backend), tenant)


class TestFairShareAdmission:
    def test_queue_full_rejects_per_tenant(self):
        adm = FairShareAdmission(max_queue_per_tenant=2)
        adm.submit(_job("a"))
        adm.submit(_job("a"))
        with pytest.raises(QueueFull) as exc:
            adm.submit(_job("a"))
        assert exc.value.tenant == "a" and exc.value.depth == 2
        adm.submit(_job("b"))  # other tenants are unaffected

    def test_stride_order_respects_weights(self):
        adm = FairShareAdmission(weights={"b": 2.0})
        for _ in range(6):
            adm.submit(_job("a"))
            adm.submit(_job("b"))
        picks = [adm.next_job("sim", timeout=0).tenant for _ in range(6)]
        # Strides: a=1.0, b=0.5 -> b is served twice as often.
        assert picks == ["a", "b", "b", "a", "b", "b"]
        assert adm.to_dict()["b"]["dispatched"] == 4

    def test_idle_tenant_cannot_bank_credit(self):
        adm = FairShareAdmission()
        for _ in range(4):
            adm.submit(_job("a"))
        for _ in range(4):
            adm.next_job("sim", timeout=0)   # a's pass advances to 4.0
        adm.submit(_job("a"))
        adm.submit(_job("late"))             # clamped to a's pass floor
        assert adm.to_dict()["late"]["pass"] >= 4.0

    def test_backend_skip_preserves_fifo_per_backend(self):
        adm = FairShareAdmission()
        adm.submit(_job("a", backend="procs"))
        first_sim = _job("a")
        adm.submit(first_sim)
        adm.submit(_job("a"))
        assert adm.next_job("sim", timeout=0) is first_sim
        assert adm.pending() == 2
        assert adm.next_job("threads", timeout=0) is None

    def test_cancel_removes_queued_only(self):
        adm = FairShareAdmission()
        job = _job("a")
        adm.submit(job)
        assert adm.cancel(job) is True
        assert adm.cancel(job) is False
        assert adm.pending() == 0


# ---------------------------------------------------------------------------
# units: warm pool
# ---------------------------------------------------------------------------
class TestWarmPool:
    def test_procs_not_poolable(self):
        with pytest.raises(ConfigError, match="not warm-poolable"):
            WarmRuntime("procs")

    def test_closed_entry_runs_cold(self):
        entry = WarmRuntime("sim")
        entry.close()
        spec = JobSpec.create("isx", {"keys_per_pe": 32}, seed=2)
        _result, used_warm = run_job_on(entry, spec)
        assert not used_warm


# ---------------------------------------------------------------------------
# gateway edge cases (no wire)
# ---------------------------------------------------------------------------
@pytest.fixture
def gateway():
    gw = JobGateway(ServiceConfig(backends=("sim",), pool_size=1)).start()
    yield gw
    gw.close()


class TestGatewayDedupe:
    def test_resubmission_hits_cache_without_reexecution(self, gateway):
        first = gateway.submit("isx", {"keys_per_pe": 64}, seed=11)
        assert first.done_event.wait(30.0) and first.state.value == "done"

        second = gateway.submit("isx", {"keys_per_pe": 64}, seed=11)
        assert second.cache_hit and second.state.value == "done"
        assert second.result == first.result       # bit-identical
        assert second.job_id != first.job_id       # still its own job
        # No second execution: one exec timer sample, one cache hit.
        assert gateway.stats.timer("service", "exec").count == 1
        assert gateway.cache.hits == 1

    def test_distinct_seed_misses(self, gateway):
        a = gateway.submit("isx", {"keys_per_pe": 64}, seed=1)
        assert a.done_event.wait(30.0)
        b = gateway.submit("isx", {"keys_per_pe": 64}, seed=2)
        assert b.done_event.wait(30.0)
        assert not b.cache_hit and b.result != a.result


class TestGatewayCancel:
    def test_cancel_queued_never_runs(self):
        # Unstarted gateway: no pool workers, jobs stay queued.
        gw = JobGateway(ServiceConfig(backends=("sim",)))
        job = gw.submit("isx", {"keys_per_pe": 64}, seed=21)
        out = gw.cancel(job.job_id)
        assert out["outcome"] == "cancelled"
        assert job.state.value == "cancelled" and job.done_event.is_set()
        assert gw.stats.counter("service", "jobs_cancelled") == 1
        assert gw.stats.timer("service", "exec").count == 0

    def test_cancel_running_discards_result_but_caches(self, gateway):
        job = gateway.submit("uts", SLOW, seed=22)
        assert _wait_state(job, "running")
        out = gateway.cancel(job.job_id)
        assert out["outcome"] == "cancelling"
        assert job.done_event.wait(30.0)
        assert job.state.value == "cancelled"
        doc = gateway.result(job.job_id)
        assert "result" in doc and doc["result"] is None
        # The attempt's (deterministic) value still landed in the cache:
        # a resubmission is answered instantly.
        again = gateway.submit("uts", SLOW, seed=22)
        assert again.cache_hit and again.result is not None

    def test_cancel_terminal_is_noop(self, gateway):
        job = gateway.submit("isx", {"keys_per_pe": 64}, seed=23)
        assert job.done_event.wait(30.0)
        assert gateway.cancel(job.job_id)["outcome"] == "done"

    def test_unknown_job_id(self, gateway):
        with pytest.raises(ConfigError, match="unknown job id"):
            gateway.cancel("job-99999999")


class TestGatewayBackpressure:
    def test_full_tenant_queue_rejects(self):
        gw = JobGateway(ServiceConfig(backends=("sim",),
                                      max_queue_per_tenant=2))
        for seed in (1, 2):
            gw.submit("isx", {"keys_per_pe": 64}, seed=seed, tenant="noisy")
        with pytest.raises(QueueFull):
            gw.submit("isx", {"keys_per_pe": 64}, seed=3, tenant="noisy")
        # The rejection is per tenant, rolled back cleanly, and counted.
        gw.submit("isx", {"keys_per_pe": 64}, seed=3, tenant="polite")
        assert gw.stats.counter("tenant.noisy", "jobs_rejected") == 1
        assert gw.stats.counter("service", "jobs_submitted") == 4
        assert len([j for j in gw._jobs.values()]) == 3

    def test_rejected_job_not_queryable(self):
        gw = JobGateway(ServiceConfig(backends=("sim",),
                                      max_queue_per_tenant=1))
        gw.submit("isx", {"keys_per_pe": 64}, seed=1)
        with pytest.raises(QueueFull):
            gw.submit("isx", {"keys_per_pe": 64}, seed=2)
        assert gw.admission.depth("default") == 1


class TestGatewayLifecycle:
    def test_drain_completes_inflight_then_rejects(self):
        gw = JobGateway(ServiceConfig(backends=("sim",), pool_size=1)).start()
        jobs = [gw.submit("uts", QUICK, seed=s) for s in range(5)]
        assert gw.drain(timeout=60.0) is True
        assert all(j.state.value == "done" for j in jobs)
        with pytest.raises(ServiceDraining):
            gw.submit("isx", {"keys_per_pe": 64}, seed=9)
        # Completed jobs stay queryable after the drain.
        doc = gw.result(jobs[0].job_id)
        assert doc["state"] == "done" and doc["result"] is not None

    def test_drain_timeout_reports_false(self):
        gw = JobGateway(ServiceConfig(backends=("sim",), pool_size=1)).start()
        try:
            gw.submit("uts", SLOW, seed=31)
            assert gw.drain(timeout=0.05) is False
        finally:
            gw.close()

    def test_reload_bumps_generation_and_keeps_serving(self):
        gw = JobGateway(ServiceConfig(backends=("sim",), pool_size=1)).start()
        try:
            before = gw.submit("isx", {"keys_per_pe": 64}, seed=41)
            assert before.done_event.wait(30.0)
            assert gw.reload() == 1
            after = gw.submit("isx", {"keys_per_pe": 64}, seed=42)
            assert after.done_event.wait(30.0)
            assert after.state.value == "done"
            assert gw.pool_generation == 1
        finally:
            gw.close()

    def test_disabled_backend_rejected_at_submit(self, gateway):
        with pytest.raises(ConfigError, match="not enabled"):
            gateway.submit("isx", {}, backend="threads")

    def test_stats_dict_shape(self, gateway):
        job = gateway.submit("isx", {"keys_per_pe": 64}, seed=51)
        assert job.done_event.wait(30.0)
        doc = gateway.stats_dict()
        assert doc["jobs"] == {"done": 1} and doc["unfinished"] == 0
        assert doc["tenants"]["default"]["dispatched"] == 1
        assert doc["cache"]["entries"] == 1
        assert doc["telemetry"]["counters"]["tenant.default.jobs_completed"] == 1


class TestGatewayRetries:
    # The job body runs in a pool worker process, forked by start(): patch
    # the worker-side entry point first and the fork inherits the patch.
    def test_hiper_error_retries_then_fails(self, monkeypatch):
        from repro.service import pool as pool_mod
        from repro.util.errors import HiperError

        def always_fails(entry, spec, name=""):
            raise HiperError(f"injected transient fault in {name}")

        monkeypatch.setattr(pool_mod, "run_job_on", always_fails)
        gw = JobGateway(ServiceConfig(backends=("sim",), pool_size=1,
                                      warm=False)).start()
        try:
            job = gw.submit("isx", {"keys_per_pe": 64}, seed=61)
            assert job.done_event.wait(30.0)
            assert job.state.value == "failed"
            assert job.attempts == 3
            # the last attempt's own message, type intact across the pipe
            assert job.error == ("HiperError: injected transient fault in "
                                 f"{job.job_id}-a2")
            assert gw.stats.counter("service", "retries") == 2
        finally:
            gw.close()

    def test_programming_error_fails_fast(self, monkeypatch):
        from repro.service import pool as pool_mod

        def explodes(entry, spec, name=""):
            raise AssertionError("oracle mismatch")

        monkeypatch.setattr(pool_mod, "run_job_on", explodes)
        gw = JobGateway(ServiceConfig(backends=("sim",), pool_size=1,
                                      warm=False)).start()
        try:
            job = gw.submit("isx", {"keys_per_pe": 64}, seed=62)
            assert job.done_event.wait(30.0)
            assert job.state.value == "failed" and job.attempts == 1
            assert job.error == "AssertionError: oracle mismatch"
            assert gw.stats.counter("service", "retries") == 0
        finally:
            gw.close()


# ---------------------------------------------------------------------------
# the wire: server + client over a Unix-domain socket
# ---------------------------------------------------------------------------
@pytest.fixture
def served(tmp_path):
    uds = str(tmp_path / "svc.sock")
    gw = JobGateway(ServiceConfig(backends=("sim",), pool_size=1,
                                  max_queue_per_tenant=4))
    server = ServiceServer(gw, uds=uds).start()
    client = ServiceClient(uds=uds)
    yield client, gw, uds
    client.close()
    server.stop()


class TestWire:
    def test_submit_wait_roundtrip(self, served):
        client, _gw, _uds = served
        job = client.submit("isx", {"keys_per_pe": 64}, seed=71)
        assert job["state"] in ("queued", "running", "done")
        doc = client.wait(job["job_id"], timeout=30.0)
        assert doc["state"] == "done" and doc["result"] is not None

    def test_dedupe_is_bit_identical_over_the_wire(self, served):
        client, _gw, _uds = served
        a = client.wait(client.submit("uts", QUICK, seed=72)["job_id"],
                        timeout=30.0)
        b = client.submit("uts", QUICK, seed=72)
        assert b["cache_hit"] and b["state"] == "done"
        assert b["result"] == a["result"]

    def test_unknown_job_is_404(self, served):
        client, _gw, _uds = served
        with pytest.raises(ServiceError) as exc:
            client.status("job-00000000")
        assert exc.value.status == 404

    @pytest.mark.parametrize("timeout", ["abc", "nan", "-1", "inf"])
    def test_malformed_result_timeout_is_400(self, served, timeout):
        client, _gw, _uds = served
        job = client.submit("isx", {"keys_per_pe": 64}, seed=70)
        client.health()
        conn = client._conn
        doc = client.request(
            "GET", f"/api/v1/jobs/{job['job_id']}/result?timeout={timeout}")
        assert doc["_status"] == 400 and doc["ok"] is False
        assert "timeout" in doc["error"] and timeout in doc["error"]
        # answered, not dropped: the keep-alive connection is still the one
        assert client._conn is conn and client.health()["ok"]

    @pytest.mark.parametrize("timeout", ["soon", float("nan"), -5, True,
                                         [1]])
    def test_malformed_drain_timeout_is_400_and_does_not_drain(
            self, served, timeout):
        client, gw, _uds = served
        doc = client.request("POST", "/api/v1/drain", {"timeout": timeout})
        assert doc["_status"] == 400 and doc["ok"] is False
        assert "timeout" in doc["error"]
        assert not gw.draining

    def test_unknown_job_is_its_own_error_class(self, served):
        from repro.service import UnknownJob

        client, gw, _uds = served
        with pytest.raises(UnknownJob):
            gw.status("job-00000000")
        for method, path in (("GET", "/api/v1/jobs/job-00000000/result"),
                             ("POST", "/api/v1/jobs/job-00000000/cancel")):
            assert client.request(method, path)["_status"] == 404
        # a 400 whose text merely mentions the phrase stays a 400
        doc = client.request("POST", "/api/v1/jobs",
                             {"app": "unknown job id"})
        assert doc["_status"] == 400

    def test_bad_spec_is_400(self, served):
        client, _gw, _uds = served
        with pytest.raises(ServiceError) as exc:
            client.submit("nope")
        assert exc.value.status == 400 and "unknown app" in str(exc.value)

    def test_bool_ranks_is_400(self, served):
        client, gw, _uds = served
        doc = client.request("POST", "/api/v1/jobs",
                             {"app": "isx", "params": {"keys_per_pe": 64},
                              "backend": "procs", "ranks": True})
        assert doc["_status"] == 400 and "ranks" in doc["error"]
        assert gw.stats_dict()["jobs"] == {}

    @pytest.mark.parametrize("key, value", [("sead", 3),
                                            ("engine", "objects")])
    def test_unknown_job_key_is_400(self, served, key, value):
        # A typo'd or retired key must not be dropped: the job would run,
        # and be cached, as something the client did not ask for.
        client, gw, _uds = served
        doc = client.request("POST", "/api/v1/jobs",
                             {"app": "isx", "params": {"keys_per_pe": 64},
                              key: value})
        assert doc["_status"] == 400 and doc["ok"] is False
        assert key in doc["error"]
        for valid in ("app", "params", "seed", "backend", "ranks", "tenant"):
            assert valid in doc["error"]
        assert gw.stats_dict()["jobs"] == {}  # nothing was accepted

    def test_queue_full_is_429_and_backoff_absorbs_it(self, served):
        client, _gw, _uds = served
        slow = client.submit("uts", SLOW, seed=73)
        # Wait until the slow job occupies the single pool slot, then fill
        # the tenant queue behind it.
        deadline = time.monotonic() + 10.0
        while client.status(slow["job_id"])["state"] != "running":
            assert time.monotonic() < deadline
            time.sleep(0.01)
        for seed in range(4):
            client.submit("isx", {"keys_per_pe": 64}, seed=seed)
        impatient = ServiceClient(uds=_uds, submit_attempts=1)
        try:
            with pytest.raises(ServiceError) as exc:
                impatient.submit("isx", {"keys_per_pe": 64}, seed=99)
            assert exc.value.status == 429
        finally:
            impatient.close()
        # The default client's backoff outlasts the slow job: accepted.
        doc = client.submit("isx", {"keys_per_pe": 64}, seed=99)
        assert client.wait(doc["job_id"], timeout=60.0)["state"] == "done"

    def test_cancel_over_wire(self, served):
        client, _gw, _uds = served
        running = client.submit("uts", SLOW, seed=74)
        queued = client.submit("uts", SLOW, seed=75)
        assert client.cancel(queued["job_id"]) in ("cancelled", "cancelling")
        outcome = client.cancel(running["job_id"])
        assert outcome in ("cancelling", "cancelled", "done")
        client.wait(running["job_id"], timeout=60.0)

    def test_stats_and_health(self, served):
        client, _gw, _uds = served
        assert client.health()["status"] == "ok"
        job = client.submit("isx", {"keys_per_pe": 64}, seed=76)
        client.wait(job["job_id"], timeout=30.0)
        stats = client.stats()
        assert stats["jobs"].get("done") == 1
        assert "default" in stats["tenants"]

    def test_drain_then_submit_is_503(self, served):
        client, _gw, _uds = served
        assert client.drain(timeout=30.0) is True
        with pytest.raises(ServiceError) as exc:
            client.submit("isx", {"keys_per_pe": 64}, seed=77)
        assert exc.value.status == 503
        assert client.health()["draining"] is True

    def test_server_rejects_ambiguous_transport(self):
        gw = JobGateway(ServiceConfig())
        with pytest.raises(ConfigError):
            ServiceServer(gw, uds="/tmp/x.sock", host="127.0.0.1")


class TestServiceSmoke:
    """The CI ``service-smoke`` scenario: two tenants, a burst of jobs over
    a live UDS, every result correct, clean remote drain."""

    def test_two_tenant_burst_and_drain(self, tmp_path):
        uds = str(tmp_path / "smoke.sock")
        gw = JobGateway(ServiceConfig(backends=("sim",), pool_size=2,
                                      tenant_weights={"heavy": 2.0}))
        server = ServiceServer(gw, uds=uds).start()
        specs = [("isx", {"keys_per_pe": 32 + 8 * (i % 3)}, i % 5)
                 for i in range(40)]
        results = {}
        failures = []

        def drive(tenant, offset):
            with ServiceClient(uds=uds) as client:
                for i in range(offset, len(specs), 2):
                    app, params, seed = specs[i]
                    job = client.submit(app, params, seed=seed, tenant=tenant)
                    doc = client.wait(job["job_id"], timeout=60.0)
                    if doc["state"] != "done":
                        failures.append((i, doc.get("error")))
                    else:
                        results[i] = doc["result"]

        threads = [threading.Thread(target=drive, args=("heavy", 0)),
                   threading.Thread(target=drive, args=("light", 1))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)

        try:
            assert not failures, failures
            assert len(results) == len(specs)
            # Identical specs produced identical results across tenants.
            by_spec = {}
            for i, (app, params, seed) in enumerate(specs):
                key = (app, tuple(sorted(params.items())), seed)
                by_spec.setdefault(key, set()).add(repr(results[i]))
            assert all(len(vals) == 1 for vals in by_spec.values())
            with ServiceClient(uds=uds) as client:
                assert client.drain(timeout=60.0) is True
        finally:
            server.stop()


# ---------------------------------------------------------------------------
# units: client backoff (no server; request() stubbed)
# ---------------------------------------------------------------------------
class TestClientBackoff:
    """The 429 retry contract: honor the server's ``retry_after`` hint as a
    floor, decorrelate concurrent clients with seeded jitter, and replay
    bit-for-bit from the seed."""

    def _client(self, seed, delays, attempts=6):
        c = ServiceClient(uds="/tmp/never-connected.sock", seed=seed,
                          submit_attempts=attempts, backoff_base=0.02,
                          backoff_cap=0.5, sleep=delays.append)
        return c

    def test_retry_after_hint_is_a_floor(self):
        delays = []
        c = self._client(0, delays)
        docs = [{"_status": 429, "retry_after": 0.25},
                {"_status": 429, "retry_after": 0.1},
                {"_status": 202, "job": {"job_id": "j1"}}]
        c.request = lambda method, path, body=None: docs.pop(0)
        assert c.submit("isx", {})["job_id"] == "j1"
        assert len(delays) == 2
        # hint + jitter, never below the hint, jitter bounded by the window
        assert 0.25 <= delays[0] <= 0.25 + 0.02
        assert 0.1 <= delays[1] <= 0.1 + 0.04

    def test_unhinted_backoff_stays_in_exponential_window(self):
        delays = []
        c = self._client(3, delays)
        docs = [{"_status": 429}] * 5 + [{"_status": 202, "job": {}}]
        c.request = lambda method, path, body=None: docs.pop(0)
        c.submit("isx", {})
        assert len(delays) == 5
        for attempt, d in enumerate(delays):
            window = min(0.02 * 2 ** attempt, 0.5)
            assert window / 2 <= d <= window

    def test_seeded_jitter_replays_and_decorrelates(self):
        def run(seed):
            delays = []
            c = self._client(seed, delays)
            docs = [{"_status": 429, "retry_after": 0.05}] * 4 + [
                {"_status": 202, "job": {}}]
            c.request = lambda method, path, body=None: docs.pop(0)
            c.submit("isx", {})
            return delays

        assert run(1) == run(1)   # same seed: identical schedule
        assert run(1) != run(2)   # different seeds: decorrelated

    def test_attempts_exhausted_raises_service_error(self):
        delays = []
        c = self._client(0, delays, attempts=3)
        c.request = lambda method, path, body=None: {
            "_status": 429, "retry_after": 0.05, "error": "tenant queue full"}
        with pytest.raises(ServiceError, match="tenant queue full"):
            c.submit("isx", {})
        assert len(delays) == 2   # sleeps between attempts only
