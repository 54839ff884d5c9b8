"""The seven end-to-end workloads: inputs, timed region, oracle, counters.

Each workload is a class with the same four steps, run by ``run.py`` in a
fresh child process per repetition:

- ``setup()``    generate inputs and oracles from the seed (untimed;
                 reported as ``setup_s`` together with interpreter start
                 and ``import repro``);
- ``run()``      the timed region — only the program under test runs here;
- ``check()``    the oracle, *after* the timed region: a list of
                 ``(label, ok, detail)`` operations that feed
                 ``failed_share`` instead of aborting the run;
- ``metrics()``  exact counts read from the program's public result
                 surfaces (no tracer involved).

Sizes are the benchmark's contract (README "Workloads"); ``smoke=True``
swaps in tiny sizes for the self-test only. The program only ever receives
generated inputs; the seed never reaches it except through them.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.apps.geo import GeoConfig, check_result, geo_main
from repro.apps.hpgmg import HpgmgConfig, hpgmg_main
from repro.apps.isx import IsxConfig, isx_main, validate_isx
from repro.apps.isx.common import generate_keys
from repro.apps.uts import UtsConfig, sequential_count, uts_main
from repro.bench import cluster_for
from repro.cuda import cuda_factory
from repro.distrib.spmd import ClusterConfig, spmd_run
from repro.exec.sim import SimExecutor
from repro.mpi import mpi_factory
from repro.platform.hwloc import discover, machine
from repro.runtime.runtime import HiperRuntime
from repro.service import ServiceClient
from repro.shmem import shmem_factory
from repro.taskgraph import (TaskGraph, hetero_workload, isx_dag_workload,
                             reduction_workload)
from repro.upcxx import upcxx_factory
from repro.verify.differential import isx_workload
from repro.verify.spmd_workloads import isx_exchange_factory

Check = Tuple[str, bool, str]

#: Scratch space for daemon sockets and logs: inside the checkout, because
#: the benchmark may write nowhere else.
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
TMP_ROOT = os.path.join(ROOT, ".e2e_tmp")


def _guard(label: str, fn) -> Check:
    """Run one oracle; an exception is a failed operation, not an abort."""
    try:
        fn()
    except Exception as exc:  # noqa: BLE001 - oracle boundary: record and go on
        return (label, False, f"{type(exc).__name__}: {exc}"[:300])
    return (label, True, "")


def _counter(stats, module: str, op: str) -> int:
    return int(stats.counter(module, op))


def _spmd_counts(res, wall_s: float) -> Dict[str, float]:
    """Per-layer exact counts of one single-process SPMD run."""
    st = res.merged_stats()
    events = res.executor.events_processed
    hits = _counter(st, "shmem", "bufpool_hits")
    misses = _counter(st, "shmem", "bufpool_misses")
    out = {
        "exec.events": events,
        "exec.events_per_s": events / wall_s,
        "runtime.tasks": _counter(st, "core", "tasks_completed"),
        "runtime.steals": _counter(st, "core", "steal"),
        "runtime.pops": _counter(st, "core", "pop"),
        "runtime.suspends": _counter(st, "core", "suspend"),
        "net.messages": res.fabric.messages_sent,
        "net.bytes": res.fabric.bytes_sent,
        "shmem.puts": _counter(st, "shmem", "puts"),
        "shmem.gets": _counter(st, "shmem", "gets"),
        "shmem.amos": _counter(st, "shmem", "amos"),
        "mpi.msgs_sent": _counter(st, "mpi", "msgs_sent"),
        "mpi.poll_sweeps": _counter(st, "mpi", "poll_sweeps"),
        "upcxx.msgs_sent": _counter(st, "upcxx", "msgs_sent"),
        "cuda.kernels": _counter(st, "cuda", "kernel"),
        "cuda.poll_sweeps": _counter(st, "cuda", "poll_sweeps"),
    }
    if hits + misses:
        out["shmem.bufpool_hit_share"] = hits / (hits + misses)
    return out


def _add(into: Dict[str, float], more: Dict[str, float]) -> None:
    for key, val in more.items():
        into[key] = into.get(key, 0) + val


class Workload:
    """Base: subclasses fill in the four steps."""

    name = ""

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        self.virtual_ms = None  # set by run() where the workload has one

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def check(self) -> List[Check]:
        raise NotImplementedError

    def metrics(self, wall_s: float) -> Dict[str, float]:
        return {}

    def e2e_extra(self) -> Dict[str, float]:
        """End-to-end metrics only this workload has (gateway latency)."""
        return {}

    def teardown(self) -> List[Check]:
        """Release what setup() opened; leaks come back as failed checks."""
        return []


# ----------------------------------------------------------------------
# 1. isx_flat_a2a
# ----------------------------------------------------------------------
class IsxFlatA2A(Workload):
    name = "isx_flat_a2a"

    def setup(self) -> None:
        nodes, keys = (2, 1 << 8) if self.smoke else (16, 1 << 11)
        self.cfg = IsxConfig(keys_per_pe=keys, byte_scale=1 << 7,
                             seed=777 + self.seed)
        self.cluster = cluster_for("titan", nodes, layout="flat",
                                   seed=self.seed)

    def run(self) -> None:
        self.res = spmd_run(isx_main("flat", self.cfg), self.cluster,
                            module_factories=[shmem_factory(direct=True)])
        self.virtual_ms = self.res.makespan * 1e3

    def check(self) -> List[Check]:
        return [_guard("validate_isx", lambda: validate_isx(
            self.cfg, self.res.nranks, self.res.results))]

    def metrics(self, wall_s: float) -> Dict[str, float]:
        return _spmd_counts(self.res, wall_s)


# ----------------------------------------------------------------------
# 2./3. UTS: lock-free stealing and lock-based small-message balancing
# ----------------------------------------------------------------------
class _Uts(Workload):
    variant = ""
    root_children = 0

    def setup(self) -> None:
        # The tree stays the app's default (UtsConfig.seed=1): tree *shape*
        # moves wall time by 35 % and virtual time by 20 % from one tree
        # seed to the next (README "Seeds"), which no regression bound
        # could hold. The benchmark seed drives the runtimes' steal RNG.
        nodes, kids = (2, 200) if self.smoke else (16, self.root_children)
        self.cfg = UtsConfig(root_children=kids, mean_children=0.97, seed=1,
                             node_cost=2e-6)
        self.cluster = cluster_for("titan", nodes, layout="hybrid",
                                   seed=self.seed)
        self.oracle = sequential_count(self.cfg)

    def run(self) -> None:
        self.res = spmd_run(uts_main(self.variant, self.cfg), self.cluster,
                            module_factories=[shmem_factory()])
        self.virtual_ms = self.res.makespan * 1e3

    def check(self) -> List[Check]:
        got = sum(self.res.results)
        return [("sequential_count", got == self.oracle,
                 f"counted {got}, tree has {self.oracle}")]

    def metrics(self, wall_s: float) -> Dict[str, float]:
        return _spmd_counts(self.res, wall_s)


class UtsHiperSteal(_Uts):
    name = "uts_hiper_steal"
    variant = "hiper"
    root_children = 12000


class UtsLockSmallMsg(_Uts):
    name = "uts_lock_smallmsg"
    variant = "shmem_omp"
    root_children = 3000


# ----------------------------------------------------------------------
# 4. stencil_modules
# ----------------------------------------------------------------------
class StencilModules(Workload):
    name = "stencil_modules"

    def setup(self) -> None:
        if self.smoke:
            nodes = 2
            self.geo = GeoConfig(nx=16, ny=16, nz=8, timesteps=2,
                                 seed=12345 + self.seed)
            self.mg = HpgmgConfig(box_dim=8, boxes_xy=2, boxes_z_per_rank=2,
                                  cycles=4)
        else:
            nodes = 16
            self.geo = GeoConfig(nx=96, ny=96, nz=48, timesteps=16,
                                 seed=12345 + self.seed)
            self.mg = HpgmgConfig(box_dim=16, boxes_xy=2, boxes_z_per_rank=2,
                                  cycles=8)
        self.nodes = nodes

    def _cluster(self):
        return cluster_for("titan", self.nodes, layout="hybrid",
                           seed=self.seed)

    def run(self) -> None:
        t0 = time.perf_counter()
        self.geo_res = spmd_run(
            geo_main("hiper", self.geo), self._cluster(),
            module_factories=[mpi_factory(), cuda_factory()])
        t1 = time.perf_counter()
        self.mg_res = spmd_run(
            hpgmg_main("hiper", self.mg), self._cluster(),
            module_factories=[mpi_factory(), upcxx_factory()])
        t2 = time.perf_counter()
        self.leg_wall = (t1 - t0, t2 - t1)
        self.virtual_ms = (self.geo_res.makespan + self.mg_res.makespan) * 1e3

    def check(self) -> List[Check]:
        hist = self.mg_res.results[0][0]
        return [
            _guard("geo.check_result", lambda: check_result(
                self.geo, self.geo_res.results)),
            ("hpgmg.residual_drop", hist[-1] * 100 <= hist[0],
             f"residual {hist[0]:.3e} -> {hist[-1]:.3e}"),
        ]

    def metrics(self, wall_s: float) -> Dict[str, float]:
        out = _spmd_counts(self.geo_res, self.leg_wall[0])
        _add(out, _spmd_counts(self.mg_res, self.leg_wall[1]))
        out["exec.events_per_s"] = out["exec.events"] / wall_s
        out["apps.geo.wall_s"], out["apps.hpgmg.wall_s"] = self.leg_wall
        return out


# ----------------------------------------------------------------------
# 5. taskgraph_mix
# ----------------------------------------------------------------------
def _spec_triples(n: int, speculation: bool):
    """``n`` independent prep -> scrub(maybe_write) -> consume triples on the
    public ``TaskGraph.submit``; every fourth scrub really writes, so a
    predictor told ``likely_writes=False`` is wrong a quarter of the time."""

    def root():
        g = TaskGraph(name="spec-triples", speculation=speculation)
        futs = []
        for i in range(n):
            gate = g.handle(np.zeros(4, dtype=np.int64), name=f"gate{i}")
            d = g.handle(np.arange(8, dtype=np.int64) + i, name=f"d{i}")

            def prep(gate=gate):
                gate.data += 1

            def scrub(d=d, writes=(i % 4 == 0)):
                if writes:
                    d.data[:] = d.data * 3 + 1

            def consume(d=d):
                return int(d.data.sum())

            g.submit(prep, write=[gate], kind="spec-prep", cost=1e-3)
            g.submit(scrub, read=[gate], maybe_write=[d], kind="spec-scrub",
                     cost=1e-3, likely_writes=False)
            futs.append(g.submit(consume, read=[d], kind="spec-consume",
                                 cost=1e-4))
        g.wait()
        return ([f.value() for f in futs],
                (g.nodes, g.spec_hits, g.spec_rollbacks))

    return root


class TaskgraphMix(Workload):
    name = "taskgraph_mix"

    def setup(self) -> None:
        if self.smoke:
            chains, depth, folds, keys, buckets, triples = 8, 8, 200, 1 << 12, 32, 100
        else:
            chains, depth, folds, keys, buckets, triples = (
                128, 64, 6000, 1 << 18, 2048, 2000)
        self.folds = folds
        self.isx_cfg = IsxConfig(keys_per_pe=keys, seed=777 + self.seed)
        self.legs = [
            ("hetero.dmda", hetero_workload(chains, depth, policy="dmda")),
            ("hetero.help_first",
             hetero_workload(chains, depth, policy="help-first")),
            ("reduce.commute", reduction_workload(folds, commute=True)),
            ("reduce.ordered", reduction_workload(folds, commute=False)),
            ("isx_dag", isx_dag_workload(self.isx_cfg, buckets)),
            ("spec.on", _spec_triples(triples, True)),
            ("spec.off", _spec_triples(triples, False)),
        ]
        self.isx_buckets = buckets
        # graph nodes each leg submits (each hetero step is two nodes)
        self.nodes = (2 * (2 * chains * depth) + 2 * (2 * folds)
                      + (2 * buckets + 1) + 2 * (3 * triples))

    def _leg(self, root):
        ex = SimExecutor()
        model = discover(machine("workstation"), num_workers=4,
                         with_interconnect=False)
        rt = HiperRuntime(model, ex, seed=self.seed).start()
        try:
            value = rt.run(root, name="e2e-taskgraph")
            return value, ex.makespan(), ex.events_processed, rt.stats
        finally:
            rt.shutdown()
            ex.shutdown()

    def run(self) -> None:
        self.out = {}
        virtual = 0.0
        self.events = 0
        self.leg_stats = []
        for label, root in self.legs:
            value, makespan, events, stats = self._leg(root)
            self.out[label] = value
            virtual += makespan
            self.events += events
            self.leg_stats.append(stats)
        self.virtual_ms = virtual * 1e3

    def check(self) -> List[Check]:
        o = self.out
        n = self.folds
        want_total = 8 * n * (n + 1) // 2  # slot i holds 8 copies of i+1
        reference, _, _, _ = self._leg(
            isx_workload(self.isx_cfg, self.isx_buckets))
        return [
            ("hetero.digests_match",
             o["hetero.dmda"] == o["hetero.help_first"], ""),
            ("reduce.commute_total", o["reduce.commute"][2] == want_total,
             f"{o['reduce.commute'][2]} != {want_total}"),
            ("reduce.ordered_total", o["reduce.ordered"][2] == want_total,
             f"{o['reduce.ordered'][2]} != {want_total}"),
            ("isx_dag.digest", tuple(o["isx_dag"]) == tuple(reference),
             "DAG ISx digest differs from the hand-wired futures version"),
            ("spec.values_equal", o["spec.on"][0] == o["spec.off"][0],
             "speculative run changed a consumer's value"),
        ]

    def metrics(self, wall_s: float) -> Dict[str, float]:
        _, hits, rollbacks = self.out["spec.on"][1]

        def core(op: str) -> int:
            return sum(_counter(st, "core", op) for st in self.leg_stats)

        return {
            "exec.events": self.events,
            "exec.events_per_s": self.events / wall_s,
            "runtime.tasks": core("tasks_completed"),
            "runtime.steals": core("steal"),
            "runtime.pops": core("pop"),
            "runtime.suspends": core("suspend"),
            "taskgraph.nodes": self.nodes,
            "taskgraph.nodes_per_s": self.nodes / wall_s,
            "taskgraph.spec_hits": hits,
            "taskgraph.spec_rollbacks": rollbacks,
        }


# ----------------------------------------------------------------------
# process hygiene (gateway daemon, shard children)
# ----------------------------------------------------------------------
def _child_pids() -> List[int]:
    me = os.getpid()
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # "pid (comm) state ppid ..." — comm may contain spaces
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # the process ended while we were looking
        if ppid == me:
            out.append(int(entry))
    return out


def _open_sockets() -> int:
    n = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            n += os.readlink(f"/proc/self/fd/{fd}").startswith("socket:")
        except OSError:
            continue  # the listing's own descriptor
    return n


def _shm_segments() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


class _Hygiene:
    """Snapshot at setup, compared at teardown: a leak is a failed op."""

    def __init__(self):
        self.sockets = _open_sockets()
        self.shm = _shm_segments()

    def checks(self) -> List[Check]:
        kids = _child_pids()
        socks = _open_sockets() - self.sockets
        shm = sorted(_shm_segments() - self.shm)
        return [
            ("no_leftover_children", not kids, f"pids {kids}"),
            ("no_leftover_sockets", socks <= 0, f"{socks} socket fds left"),
            ("no_leftover_shm", not shm, f"segments {shm[:5]}"),
        ]


# ----------------------------------------------------------------------
# 6. gateway_closed
# ----------------------------------------------------------------------
TENANTS = ("alice", "bob", "carol", "dave")
CLIENTS = 2
#: 60 % isx (three sizes), 25 % uts, 15 % graph500 (the apps' default configs)
JOB_MIX = ([("isx", {"keys_per_pe": k}) for k in (1024, 4096, 16384)] * 4
           + [("uts", {})] * 5 + [("graph500", {})] * 3)
#: sessions per spec, by block; sums to 20 per ten blocks, 10 per first five
REUSE_PROFILE = (0, 3, 1, 5, 1, 2, 2, 1, 2, 3)


def _p50_p99_ms(seconds: List[float], name: str) -> Dict[str, float]:
    if not seconds:
        return {}
    p50, p99 = np.percentile(seconds, [50, 99]) * 1e3
    return {f"{name}_p50_ms": float(p50), f"{name}_p99_ms": float(p99)}


class GatewayClosed(Workload):
    name = "gateway_closed"

    def setup(self) -> None:
        # Stratified, so that every seed offers the same load: each block of
        # 20 specs holds the exact 60/25/15 mix, and a fixed reuse profile
        # (mean 2, a tenth never used: what drawing 3000 of 1500 with
        # replacement gives on average, ~55 % repeats) says how often each
        # block's specs recur. The seed picks the job seeds and the order.
        blocks = 2 if self.smoke else 75
        rng = np.random.default_rng(self.seed)
        self.specs = []
        for i in range(blocks * len(JOB_MIX)):
            app, params = JOB_MIX[i % len(JOB_MIX)]
            self.specs.append((app, params, 10_000 * (self.seed + 1) + i))
        reuse = np.repeat(np.resize(REUSE_PROFILE, blocks), len(JOB_MIX))
        self.schedule = [int(i) for i in rng.permutation(
            np.repeat(np.arange(len(self.specs)), reuse))]
        sessions = len(self.schedule)
        self.hygiene = _Hygiene()
        os.makedirs(TMP_ROOT, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="gw-", dir=TMP_ROOT)
        # AF_UNIX paths are capped near 100 bytes and a checkout can sit
        # anywhere: daemon and clients use the socket by a short relative
        # name from inside the temp dir.
        self._cwd = os.getcwd()
        os.chdir(self.tmp)
        self.uds = "svc.sock"
        self.log = open("daemon.log", "w")
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--uds", self.uds,
             "--pool-size", "2", "--workers", "2", "--queue-cap", "512"],
            env=env, stdout=self.log, stderr=subprocess.STDOUT)
        self._await_health()
        with ServiceClient(uds=self.uds) as c:
            for app, params in dict(JOB_MIX).items():  # one per app kind
                doc = c.wait(c.submit(app, params, seed=7,
                                      tenant=TENANTS[0])["job_id"],
                             timeout=60.0)
                if doc["state"] != "done":
                    raise RuntimeError(f"warm-up {app} job: {doc}")
        self.sessions: List[Any] = [None] * sessions

    def _await_health(self) -> None:
        deadline = time.monotonic() + 30.0
        while True:
            if self.daemon.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.daemon.returncode} at start")
            try:
                with ServiceClient(uds=self.uds, timeout=5.0) as c:
                    if c.health()["ok"]:
                        return
            except OSError:
                pass  # socket not bound yet
            if time.monotonic() > deadline:
                raise RuntimeError("daemon never answered /api/v1/health")
            time.sleep(0.02)

    def _drive(self, client_idx: int) -> None:
        # closed loop: the next job goes out only after the previous result
        with ServiceClient(uds=self.uds, timeout=120.0,
                           seed=self.seed * CLIENTS + client_idx) as client:
            for s in range(client_idx, len(self.schedule), CLIENTS):
                app, params, job_seed = self.specs[self.schedule[s]]
                t0 = time.perf_counter()
                try:
                    job = client.submit(app, params, seed=job_seed,
                                        tenant=TENANTS[s % len(TENANTS)])
                    doc = client.wait(job["job_id"], timeout=90.0)
                    doc["latency"] = time.perf_counter() - t0
                    self.sessions[s] = doc
                except Exception as exc:  # noqa: BLE001 - a failed session
                    self.sessions[s] = f"{type(exc).__name__}: {exc}"

    def run(self) -> None:
        threads = [threading.Thread(target=self._drive, args=(i,))
                   for i in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def check(self) -> List[Check]:
        out: List[Check] = []
        by_spec: Dict[int, Any] = {}
        ids = set()
        for s, doc in enumerate(self.sessions):
            if not isinstance(doc, dict):
                out.append((f"session{s}", False, str(doc)))
                continue
            ids.add(doc["job_id"])
            first = by_spec.setdefault(self.schedule[s], doc["result"])
            ok = doc["state"] == "done" and doc["result"] == first
            out.append((f"session{s}", ok,
                        "" if ok else f"state={doc['state']} "
                        f"error={doc.get('error')}"))
        out.append(("distinct_job_ids", len(ids) == len(self.sessions),
                    f"{len(ids)} ids for {len(self.sessions)} sessions"))
        return out

    def _docs(self) -> List[dict]:
        return [d for d in self.sessions if isinstance(d, dict)]

    def e2e_extra(self) -> Dict[str, float]:
        return _p50_p99_ms([d["latency"] for d in self._docs()], "latency")

    def metrics(self, wall_s: float) -> Dict[str, float]:
        docs = self._docs()
        if not docs:
            return {}
        misses = [d for d in docs if not d["cache_hit"]]
        hits = [d for d in docs if d["cache_hit"]]
        out: Dict[str, float] = {}
        # queue wait and execution exist only for jobs that ran (misses)
        out.update(_p50_p99_ms([d["queue_wait"] for d in misses],
                               "service.queue_wait"))
        out.update(_p50_p99_ms([d["exec_time"] for d in misses],
                               "service.exec"))
        out.update(_p50_p99_ms(
            [d["latency"] - d["queue_wait"] - d["exec_time"] for d in docs],
            "service.wire"))
        for mode, group in (("hit", hits), ("miss", misses)):
            if group:
                out[f"service.latency_{mode}_p50_ms"] = float(np.median(
                    [d["latency"] for d in group])) * 1e3
        out["service.cache_hit_share"] = len(hits) / len(docs)
        out["service.rejected_429"] = self.rejected
        out["service.jobs_per_s"] = len(docs) / wall_s
        return out

    def teardown(self) -> List[Check]:
        out: List[Check] = []
        self.rejected = 0
        try:
            with ServiceClient(uds=self.uds, timeout=60.0) as c:
                counters = c.stats()["telemetry"]["counters"]
                self.rejected = int(counters.get("service.jobs_rejected", 0))
                c.drain(timeout=60.0)
            code = self.daemon.wait(timeout=60.0)
            out.append(("daemon_exit_0", code == 0, f"exit code {code}"))
        except Exception as exc:  # noqa: BLE001 - a failed shutdown is a failed op
            out.append(("daemon_drain", False, f"{type(exc).__name__}: {exc}"))
        finally:
            if self.daemon.poll() is None:
                self.daemon.kill()
                self.daemon.wait()
            self.log.close()
            os.chdir(self._cwd)
            shutil.rmtree(self.tmp, ignore_errors=True)
        return out + self.hygiene.checks()


# ----------------------------------------------------------------------
# 7. isx_sharded2
# ----------------------------------------------------------------------
SHARDS = 2


class IsxSharded2(Workload):
    name = "isx_sharded2"

    def setup(self) -> None:
        nranks, keys = (16, 16) if self.smoke else (512, 64)
        self.cfg = IsxConfig(keys_per_pe=keys, seed=777 + self.seed)
        self.cluster = ClusterConfig(nodes=nranks, ranks_per_node=1,
                                     seed=self.seed)
        self.main = isx_exchange_factory(keys_per_pe=keys,
                                         seed=self.cfg.seed)
        # oracle: what each rank must end up holding, straight from the
        # generated keys with numpy — no runtime involved
        allkeys = np.sort(np.concatenate(
            [generate_keys(self.cfg, r, nranks) for r in range(nranks)]))
        width = (self.cfg.max_key + nranks - 1) // nranks
        cuts = np.searchsorted(allkeys, np.arange(nranks + 1) * width)
        self.oracle = [
            (int(cuts[r + 1] - cuts[r]),
             hashlib.sha256(allkeys[cuts[r]:cuts[r + 1]].tobytes())
             .hexdigest()[:16])
            for r in range(nranks)]
        self.hygiene = _Hygiene()

    def run(self) -> None:
        self.res = spmd_run(
            self.main, self.cluster,
            module_factories=[shmem_factory(direct=True)],
            executor=SimExecutor(engine="flat", shards=SHARDS))
        self.virtual_ms = self.res.makespan * 1e3

    def check(self) -> List[Check]:
        got = [tuple(r) for r in self.res.results]
        bad = [r for r, (g, w) in enumerate(zip(got, self.oracle)) if g != w]
        return [("per_rank_count_sha16",
                 not bad and len(got) == len(self.oracle),
                 f"{len(bad)} ranks differ, first {bad[:3]}")]

    def metrics(self, wall_s: float) -> Dict[str, float]:
        res = self.res
        st = res.merged_stats()
        idle = sum(t["idle_wall_s"] for t in res.shard_counters)
        events = sum(t["events_processed"] for t in res.shard_counters)
        return {
            "exec.events": events,
            "exec.events_per_s": events / wall_s,
            "shmem.puts": _counter(st, "shmem", "puts"),
            "shmem.gets": _counter(st, "shmem", "gets"),
            "shmem.amos": _counter(st, "shmem", "amos"),
            "runtime.tasks": _counter(st, "core", "tasks_completed"),
            "runtime.pops": _counter(st, "core", "pop"),
            "runtime.suspends": _counter(st, "core", "suspend"),
            "exec.shards.windows": res.windows,
            "exec.shards.idle_s": idle,
            "exec.shards.window_overhead_fraction": idle / (SHARDS * wall_s),
            "exec.shards.cross_msgs": _counter(st, "shards",
                                               "cross_shard_msgs"),
            "exec.shards.cross_bytes": _counter(st, "shards",
                                                "cross_shard_bytes"),
            "exec.shards.events": events,
        }

    def teardown(self) -> List[Check]:
        return self.hygiene.checks()


WORKLOADS = {cls.name: cls for cls in (
    IsxFlatA2A, UtsHiperSteal, UtsLockSmallMsg, StencilModules, TaskgraphMix,
    GatewayClosed, IsxSharded2)}
