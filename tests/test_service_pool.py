"""Process-backed pool slots: what must hold across the worker boundary.

A gateway slot's jobs run in a forked worker process
(:class:`repro.service.pool.PoolWorker`). ``TestPoolBoundary`` pins the
semantics that crossing a pipe could silently change (retry classes,
error text, unpicklable values, worker death, reload fencing, cache
identity), ``TestPoolStats`` the counters the worker reports back, and
``TestOrphanSafety`` the process hygiene: descriptors closed after fork,
workers reaped on drain, nothing left behind a ``kill -9``.

Job bodies are faked by patching ``repro.service.pool.run_job_on`` *before*
``start()``: the fork inherits the patch.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.service import (JobGateway, JobSpec, ServiceClient, ServiceConfig,
                           ServiceServer)
from repro.service import pool as pool_mod
from repro.service.jobs import normalize_result
from repro.service.pool import PoolWorker, run_job_cold
from repro.shmem.shared import leaked_segments
from repro.util.errors import HiperError
from tests.procutil import alive, child_pids, socket_fds, until

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: ~0.5 s of simulated UTS: long enough to act on a job while it runs.
SLOW = {"root_children": 5000}
#: ~1 s across two real rank processes.
SLOW_PROCS = {"root_children": 60000}
ISX = {"keys_per_pe": 64}
real_run_job_on = pool_mod.run_job_on


def _oracle(app, params, seed):
    return normalize_result(run_job_cold(JobSpec.create(app, params,
                                                        seed=seed)))


def _gateway(**cfg):
    cfg.setdefault("backends", ("sim",))
    cfg.setdefault("pool_size", 1)
    return JobGateway(ServiceConfig(**cfg)).start()


def _slot(gw, i=0):
    return gw.stats_dict()["pool"][i]


def _done(job, timeout=30.0):
    assert job.done_event.wait(timeout)
    return job


# ---------------------------------------------------------------------------
# boundary semantics
# ---------------------------------------------------------------------------
class TestPoolBoundary:
    def test_hiper_error_retries_on_a_rebuilt_runtime(self, monkeypatch):
        def flaky(entry, spec, name=""):
            if name.endswith("-a0"):
                entry.jobs_run += 5  # mark the entry the failure ran on
                raise HiperError("injected transient fault")
            return [entry.jobs_run, entry.closed], True

        monkeypatch.setattr(pool_mod, "run_job_on", flaky)
        gw = _gateway()
        try:
            pid = _slot(gw)["pid"]
            job = _done(gw.submit("isx", ISX, seed=1))
            assert job.state.value == "done" and job.attempts == 2
            assert job.result == [0, False]   # a fresh, open entry
            assert gw.stats.counter("service", "retries") == 1
            slot = _slot(gw)
            assert (slot["rebuilds"], slot["reforks"]) == (1, 0)
            assert slot["pid"] == pid         # rebuilt in place, no re-fork
        finally:
            gw.close()

    def test_programming_error_fails_fast_and_the_slot_lives_on(
            self, monkeypatch):
        def explodes_once(entry, spec, name=""):
            if spec.seed == 2:
                raise AssertionError("oracle mismatch")
            return real_run_job_on(entry, spec, name=name)

        monkeypatch.setattr(pool_mod, "run_job_on", explodes_once)
        gw = _gateway()
        try:
            bad = _done(gw.submit("isx", ISX, seed=2))
            assert bad.state.value == "failed" and bad.attempts == 1
            assert bad.error == "AssertionError: oracle mismatch"
            assert gw.stats.counter("service", "retries") == 0
            good = _done(gw.submit("isx", ISX, seed=3))
            assert good.result == _oracle("isx", ISX, 3)
            assert _slot(gw)["rebuilds"] == 1   # the failure retired an entry
        finally:
            gw.close()

    def test_unpicklable_result_fails_that_job_only(self, monkeypatch):
        def odd(entry, spec, name=""):
            if spec.seed == 4:
                return (lambda: 0), True
            return real_run_job_on(entry, spec, name=name)

        monkeypatch.setattr(pool_mod, "run_job_on", odd)
        gw = _gateway()
        try:
            pid = _slot(gw)["pid"]
            bad = _done(gw.submit("isx", ISX, seed=4))
            assert bad.state.value == "failed" and bad.attempts == 1
            assert bad.error.startswith(
                "TypeError: job result cannot cross the pool worker's pipe")
            good = _done(gw.submit("isx", ISX, seed=5))
            assert good.result == _oracle("isx", ISX, 5)
            assert (_slot(gw)["pid"], _slot(gw)["reforks"]) == (pid, 0)
        finally:
            gw.close()

    @pytest.mark.parametrize("base, attempts", [(HiperError, 3),
                                                (Exception, 1)])
    def test_unpicklable_exception_keeps_name_message_and_retry_class(
            self, monkeypatch, base, attempts):
        class Weird(base):
            def __init__(self):
                super().__init__("weird failure")
                self.hook = lambda: 0   # what makes it unpicklable

        def raises(entry, spec, name=""):
            if spec.seed == 6:
                raise Weird()
            return real_run_job_on(entry, spec, name=name)

        monkeypatch.setattr(pool_mod, "run_job_on", raises)
        gw = _gateway()
        try:
            bad = _done(gw.submit("isx", ISX, seed=6))
            assert bad.state.value == "failed" and bad.attempts == attempts
            assert "Weird: weird failure" in bad.error
            assert "cannot be pickled" in bad.error
            assert _done(gw.submit("isx", ISX, seed=7)).state.value == "done"
        finally:
            gw.close()

    def test_worker_killed_mid_job_completes_on_a_reforked_worker(self):
        gw = _gateway()
        try:
            old = _slot(gw)["pid"]
            job = gw.submit("uts", SLOW, seed=8)
            assert until(lambda: job.state.value == "running"
                          and _slot(gw)["busy"])
            os.kill(old, signal.SIGKILL)
            _done(job)
            assert job.state.value == "done" and job.attempts == 2
            assert job.result == _oracle("uts", SLOW, 8)
            assert gw.stats.counter("service", "retries") == 1
            slot = _slot(gw)
            assert slot["reforks"] == 1 and slot["pid"] != old
            assert not os.path.exists(f"/proc/{old}")   # reaped, no zombie
        finally:
            gw.close()

    def test_dead_worker_is_a_retryable_hiper_error(self):
        worker = PoolWorker("sim", 0, dict(workers=2))
        try:
            spec = JobSpec.create("isx", ISX, seed=9)
            first = worker.run(spec, "warm-up")
            dead = worker.pid
            os.kill(dead, signal.SIGKILL)
            with pytest.raises(HiperError, match=r"pool worker died \(pid "
                               rf"{dead}, exit code -9\)"):
                worker.run(spec, "doomed")
            assert worker.run(spec, "again") == first
            assert worker.reforks == 1 and worker.jobs_run == 1
        finally:
            worker.close()
        assert not os.path.exists(f"/proc/{worker.pid}")

    def test_reload_mid_job_finishes_on_the_entry_it_started_on(self):
        gw = _gateway()
        try:
            job = gw.submit("uts", SLOW, seed=10)
            assert until(lambda: job.state.value == "running")
            assert gw.reload() == 1 and gw.pool_generation == 1
            assert job.state.value == "running"
            assert _slot(gw)["generation"] == 0   # fenced behind the job
            _done(job)
            assert job.state.value == "done" and job.attempts == 1
            assert job.result == _oracle("uts", SLOW, 10)
            assert until(lambda: _slot(gw)["generation"] == 1)
            assert _slot(gw)["rebuilds"] == 1
        finally:
            gw.close()

    def test_fresh_result_and_cache_hit_are_bit_identical_on_the_wire(
            self, tmp_path):
        uds = str(tmp_path / "svc.sock")
        server = ServiceServer(JobGateway(ServiceConfig(pool_size=1)),
                               uds=uds).start()
        try:
            with ServiceClient(uds=uds) as c:
                for app, params in (("isx", ISX),
                                    ("uts", {"root_children": 500})):
                    fresh = c.wait(c.submit(app, params, seed=11)["job_id"],
                                   timeout=30.0)
                    hit = c.submit(app, params, seed=11)
                    assert not fresh["cache_hit"] and hit["cache_hit"]
                    assert (json.dumps(hit["result"])
                            == json.dumps(fresh["result"])
                            == json.dumps(_oracle(app, params, 11)))
        finally:
            server.stop()


# ---------------------------------------------------------------------------
# observability: the worker's counters reach GET /stats
# ---------------------------------------------------------------------------
class TestPoolStats:
    def test_counts_match_a_scripted_run(self, monkeypatch, tmp_path):
        def fails_once(entry, spec, name=""):
            if spec.seed == 2 and name.endswith("-a0"):
                raise HiperError("forced failure")
            return real_run_job_on(entry, spec, name=name)

        monkeypatch.setattr(pool_mod, "run_job_on", fails_once)
        uds = str(tmp_path / "svc.sock")
        gw = JobGateway(ServiceConfig(pool_size=1))
        server = ServiceServer(gw, uds=uds).start()
        try:
            with ServiceClient(uds=uds) as c:
                for seed in range(4):   # seed 2 takes two attempts
                    doc = c.wait(c.submit("isx", ISX, seed=seed)["job_id"],
                                 timeout=30.0)
                    assert doc["state"] == "done"
                assert c.reload() == 1
                c.wait(c.submit("isx", ISX, seed=4)["job_id"], timeout=30.0)
                (slot,) = c.stats()["pool"]
            assert slot == {
                "backend": "sim", "slot": 0, "pid": slot["pid"],
                "generation": 1, "busy": False,
                "jobs_run": 6,                    # 5 jobs + 1 retry
                "construction_s": slot["construction_s"],
                "rebuilds": 2,                    # the failure + the reload
                "reforks": 0,
            }
            assert alive(slot["pid"]) and slot["pid"] != os.getpid()
            assert 0.0 < slot["construction_s"] < 5.0
        finally:
            server.stop()

    def test_procs_slot_has_a_worker_that_parents_the_ranks(self):
        gw = _gateway(backends=("procs",))
        try:
            slot = _slot(gw)
            assert (slot["backend"], slot["slot"]) == ("procs", 0)
            assert alive(slot["pid"]) and slot["pid"] != os.getpid()
            job = gw.submit("uts", SLOW_PROCS, seed=12, backend="procs",
                            ranks=2)
            # the rank tree hangs off the worker, not off this (threaded)
            # process: a supervisor nested in a supervisor
            assert until(lambda: len(child_pids(slot["pid"])) >= 2)
            assert child_pids() == [slot["pid"]]
            _done(job, timeout=60.0)
            assert job.state.value == "done", job.error
            assert job.result == normalize_result(run_job_cold(job.spec))
            assert until(lambda: child_pids(slot["pid"]) == [])
            slot = _slot(gw)
            assert (slot["jobs_run"], slot["rebuilds"], slot["reforks"],
                    slot["construction_s"]) == (1, 0, 0, 0.0)
        finally:
            gw.close()
        assert child_pids() == [] and leaked_segments() == []


# ---------------------------------------------------------------------------
# process hygiene
# ---------------------------------------------------------------------------
def _serve(tmp_path, *extra):
    """A real ``repro serve`` daemon on a UDS; returns (proc, uds, log)."""
    uds = str(tmp_path / "svc.sock")
    log = open(tmp_path / "daemon.log", "w+")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--uds", uds, *extra],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        stdout=log, stderr=subprocess.STDOUT)
    deadline = time.monotonic() + 30.0
    while True:
        assert proc.poll() is None, "daemon exited at start"
        try:
            with ServiceClient(uds=uds, timeout=5.0) as c:
                if c.health()["ok"]:
                    return proc, uds, log
        except OSError:
            pass  # socket not bound yet
        assert time.monotonic() < deadline
        time.sleep(0.02)


class TestOrphanSafety:
    def test_worker_holds_no_descriptor_it_does_not_own(self, tmp_path):
        # The listening socket exists before the fork, and the second
        # worker is forked while the first one's parent-side end is open.
        gw = JobGateway(ServiceConfig(pool_size=2))
        server = ServiceServer(gw, uds=str(tmp_path / "svc.sock")).start()
        try:
            for slot in gw.stats_dict()["pool"]:
                assert socket_fds(slot["pid"]) == 1   # its own pipe end
        finally:
            server.stop()

    def test_drain_reaps_every_worker(self):
        gw = _gateway(backends=("sim", "threads"), pool_size=2)
        pids = [slot["pid"] for slot in gw.stats_dict()["pool"]]
        assert len(set(pids)) == 4 and all(alive(p) for p in pids)
        jobs = [gw.submit("isx", ISX, seed=s, backend=b)
                for s in range(3) for b in ("sim", "threads")]
        assert gw.drain(timeout=60.0) is True
        assert all(j.state.value == "done" for j in jobs)
        for pid in pids:   # waited for: neither running nor a zombie
            assert not os.path.exists(f"/proc/{pid}")
        assert gw.stats_dict()["pool"] == []

    def test_remote_drain_exits_0_and_leaves_no_worker(self, tmp_path):
        proc, uds, log = _serve(tmp_path, "--pool-size", "2")
        try:
            with ServiceClient(uds=uds) as c:
                pids = [slot["pid"] for slot in c.stats()["pool"]]
                for seed in range(4):
                    c.submit("isx", ISX, seed=seed)
                assert c.drain(timeout=60.0) is True
            assert proc.wait(timeout=30.0) == 0
            log.seek(0)
            out = log.read()
            assert f"worker pids {pids}" in out   # the startup line
            assert "(4 jobs completed)" in out
            assert not any(alive(p) for p in pids)
        finally:
            proc.kill()
            proc.wait()
            log.close()

    def test_kill9_daemon_mid_burst_leaves_nothing_behind(self, tmp_path):
        sockets = socket_fds()
        shm = set(os.listdir("/dev/shm"))
        proc, uds, log = _serve(tmp_path, "--pool-size", "2",
                                "--backends", "sim", "threads", "procs")
        try:
            with ServiceClient(uds=uds) as c:
                pool = c.stats()["pool"]
                pids = [slot["pid"] for slot in pool]
                assert len(pids) == 6
                for seed in range(12):   # ~3 s of work on two sim slots
                    c.submit("uts", SLOW, seed=seed)
                    c.submit("isx", ISX, seed=seed, backend="threads")
                c.submit("uts", SLOW_PROCS, seed=0, backend="procs", ranks=2)
                assert until(lambda: any(
                    slot["busy"] for slot in c.stats()["pool"]))
                # the procs job is in flight: its ranks hang off a worker
                ranks = []
                assert until(lambda: ranks.extend(
                    r for slot in pool if slot["backend"] == "procs"
                    for r in child_pids(slot["pid"])) or len(ranks) >= 2)
            proc.kill()   # SIGKILL: no handler, no atexit, no drain
            proc.wait()
            # Every worker notices EOF on its link — after the job it was
            # running — and leaves; none kept the listening socket open.
            # The procs worker's ranks are reaped by it before that.
            assert until(lambda: not any(alive(p) for p in pids + ranks),
                         timeout=5.0), [p for p in pids + ranks if alive(p)]
            with pytest.raises(ConnectionRefusedError):
                with socket.socket(socket.AF_UNIX) as s:
                    s.connect(uds)
            assert socket_fds() == sockets
            assert until(lambda: set(os.listdir("/dev/shm")) == shm,
                         timeout=2.0), set(os.listdir("/dev/shm")) - shm
        finally:
            proc.kill()
            proc.wait()
            log.close()
