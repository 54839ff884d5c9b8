"""Multiprocess SPMD backend tests (ISSUE 6 tentpole).

Covers the parent-side lifecycle discipline (no orphaned children, no
leaked ``/dev/shm`` segments, stragglers terminated on timeout), the
put/get/quiet round-trip over the real socket fabric + shared-memory heap,
the two launchers, a parent killed mid-run, the pickle round trip of
everything a ``subprocess`` rank receives, and the sim ↔ procs answers of
the paper's apps on CI-sized configs.
"""

import functools
import glob
import os
import pickle
import re
import signal
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest

from repro.distrib.spmd import ClusterConfig, SpmdResult, spmd_run
from repro.exec.procs import ProcessExecutor, ProcsJob
from repro.launch import LAUNCHERS, start_method
from repro.shmem import shmem_factory
from repro.shmem.shared import leaked_segments
from repro.util.errors import ConfigError, RuntimeStateError
from tests.procutil import alive, child_pids, until

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ----------------------------------------------------------------------
# rank mains (module-level so the fork launcher can ship them directly)
# ----------------------------------------------------------------------
def roundtrip_factory():
    """Each rank puts its id into its right neighbor's window."""

    def main(ctx):
        sh = ctx.shmem
        me, n = ctx.rank, ctx.nranks
        buf = sh.malloc((4,), dtype=np.int64, fill=-1)
        yield sh.barrier_all_async()
        peer = (me + 1) % n
        yield sh.put_async(buf, np.full(4, 100 + me, dtype=np.int64), peer)
        yield sh.quiet_async()
        yield sh.barrier_all_async()
        got = np.asarray((yield sh.get_async(buf, me)))
        return (me, int(got[0]), [int(x) for x in got])

    return main


def failing_factory():
    """Rank 1 dies before the barrier; rank 0 stalls into its watchdog."""

    def main(ctx):
        sh = ctx.shmem
        if ctx.rank == 1:
            raise ValueError("injected rank failure")
        yield sh.barrier_all_async()
        return ctx.rank

    return main


def hanging_factory():
    """Every rank wedges hard (the parent timeout must break the run)."""

    def main(ctx):
        time.sleep(300)
        yield ctx.shmem.barrier_all_async()

    return main


def _new_children(before):
    return [p for p in child_pids() if p not in before]


def _procs(main_factory, nranks=2, **executor_kw):
    return spmd_run(main_factory(), ClusterConfig(nodes=nranks),
                    module_factories=[shmem_factory()],
                    executor=ProcessExecutor(**executor_kw))


# ----------------------------------------------------------------------
# round-trip + lifecycle
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_put_get_quiet_two_ranks(self):
        res = _procs(roundtrip_factory, timeout=60.0)
        assert type(res) is SpmdResult
        assert res.results == [(0, 101, [101] * 4), (1, 100, [100] * 4)]
        assert res.nranks == 2
        assert res.executor.launcher_name == "local"
        assert res.wall_s > 0 and res.makespan is None

    def test_counters_merged_across_ranks(self):
        res = _procs(roundtrip_factory, timeout=60.0)
        assert any(key.startswith("shmem.") for key in res.counters), \
            res.counters
        assert res.merged_stats().counter("shmem", "puts") == \
            res.counters["shmem.puts"]

    def test_no_orphans_no_leaked_segments_no_rundir(self):
        before = child_pids()
        res = _procs(roundtrip_factory, timeout=60.0)
        run_id = res.executor.run_id
        assert _new_children(before) == []
        assert leaked_segments(run_id) == []
        assert glob.glob(os.path.join(
            tempfile.gettempdir(), f"repro-procs-{run_id}-*")) == []


class TestFailurePaths:
    def test_rank_failure_surfaces_root_cause(self):
        # Rank 0 stalls at the barrier rank 1 never reaches; the report must
        # lead with the injected error, not the stranded peer's DeadlockError.
        with pytest.raises(ConfigError, match="injected rank failure"):
            _procs(failing_factory, timeout=60.0, block_timeout=2.0)

    def test_hang_hits_parent_timeout_and_terminates_stragglers(self):
        before = child_pids()
        with pytest.raises(RuntimeStateError, match="timed out"):
            _procs(hanging_factory, timeout=2.0, block_timeout=60.0)
        deadline = time.monotonic() + 10.0
        while _new_children(before) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _new_children(before) == []
        assert leaked_segments() == []

    def test_executor_refuses_reuse_after_shutdown(self):
        ex = ProcessExecutor()
        ex.shutdown()
        ex.shutdown()  # idempotent
        with pytest.raises(RuntimeStateError, match="after shutdown"):
            spmd_run(roundtrip_factory(), ClusterConfig(nodes=2),
                     module_factories=[shmem_factory()], executor=ex)

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            ProcessExecutor(block_timeout=0.0)
        with pytest.raises(ConfigError):
            ProcessExecutor(timeout=-1.0)
        with pytest.raises(TypeError):   # the rank count is the config's
            ProcessExecutor(2)


#: Rank 0 returns at once, rank 1 works on for 3 s; both announce themselves,
#: each with one write(2) of a whole line (a pipe write that small is atomic,
#: so the two ranks' lines cannot interleave as print's pieces did).
_PARENT_SCRIPT = """
import os, time
from repro.distrib import ClusterConfig, spmd_run
from repro.exec.procs import ProcessExecutor
from repro.shmem import shmem_factory

def main(ctx):
    yield ctx.shmem.barrier_all_async()
    line = f"rank {os.getpid()} {ctx.shared['shmem-arena'].name}\\n"
    os.write(1, line.encode())
    if ctx.rank == 1:
        time.sleep(3.0)
    return ctx.rank

spmd_run(main, ClusterConfig(nodes=2), module_factories=[shmem_factory()],
         executor=ProcessExecutor(timeout=60.0))
"""


class TestParentKilled:
    def test_ranks_and_segments_do_not_outlive_a_killed_parent(self):
        # Fails on a parent commit that signalled "all done" through a file:
        # the ranks then sat out a 60 s safety valve, segments and all.
        parent = subprocess.Popen(
            [sys.executable, "-c", _PARENT_SCRIPT],
            env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
            stdout=subprocess.PIPE, text=True)
        try:
            lines = [parent.stdout.readline().split() for _ in range(2)]
            assert [ln[0] for ln in lines] == ["rank", "rank"], lines
            pids = [int(ln[1]) for ln in lines]
            run_id = re.fullmatch(r"repro-shm-(\w+)-r\d+", lines[0][2])[1]
            assert len(leaked_segments(run_id)) == 2
            time.sleep(1.5)   # rank 0 has reported; rank 1 is mid-main
            assert all(alive(p) for p in pids)
            parent.send_signal(signal.SIGKILL)
            parent.wait()
            # Rank 0 reads EOF where it waited for the run to end; rank 1's
            # result hits a dead link. Both tear down and unlink their heap.
            assert until(lambda: not any(alive(p) for p in pids)
                         and leaked_segments(run_id) == [], timeout=6.0), \
                ([p for p in pids if alive(p)], leaked_segments(run_id))
        finally:
            parent.kill()
            parent.wait()
            parent.stdout.close()


# ----------------------------------------------------------------------
# factories + launchers
# ----------------------------------------------------------------------
def _module_factories():
    from repro.cuda import cuda_factory
    from repro.io.module import checkpoint_factory
    from repro.mpi import mpi_factory
    from repro.tools.profile import telemetry_factory
    from repro.upcxx import upcxx_factory

    return [shmem_factory(direct=True), mpi_factory(), upcxx_factory(),
            cuda_factory(), checkpoint_factory(), telemetry_factory(period=1e-3)]


def _mains():
    from repro.apps.registry import APPS

    return [app.main("hiper", app.config) for app in APPS.values()]


class TestFactoryResolution:
    """What a ``subprocess`` rank runs reaches it by pickle, which names a
    module-level callable by its dotted path (``functools.partial`` keeps
    the arguments): no resolver of our own."""

    @pytest.mark.parametrize("factory", _module_factories() + _mains(),
                             ids=["shmem", "mpi", "upcxx", "cuda",
                                  "checkpoint", "telemetry", "isx-main",
                                  "uts-main", "graph500-main", "geo-main",
                                  "hpgmg-main"])
    def test_pickle_round_trip(self, factory):
        back = pickle.loads(pickle.dumps(factory))
        assert isinstance(back, functools.partial)
        assert back.func is factory.func
        assert back.args == factory.args
        assert back.keywords == factory.keywords

    def test_resolve_dotted(self):
        # A module-level function is pickled by reference to its dotted path.
        from repro.apps.uts.variants import run_hiper
        assert pickle.loads(pickle.dumps(run_hiper)) is run_hiper

    def test_resolve_dotted_rejects_malformed(self):
        # A lambda has no dotted path; the job cannot be shipped.
        with pytest.raises((pickle.PicklingError, AttributeError)):
            pickle.dumps(lambda ctx: None)

    def test_resolve_dotted_rejects_missing_attr(self):
        def main(ctx):
            return ctx.rank

        main.__qualname__ = "nope"   # not reachable from its module
        with pytest.raises((pickle.PicklingError, AttributeError)):
            pickle.dumps(main)

    def test_resolve_modules_by_name_and_path(self):
        from repro.apps.uts import UtsConfig, uts_main

        job = ProcsJob(run_id="x", rundir="/tmp",
                       main=uts_main("hiper", UtsConfig()),
                       config=ClusterConfig(nodes=2),
                       module_factories=tuple(_module_factories()),
                       heap_bytes=1 << 20, block_timeout=1.0)
        back = pickle.loads(pickle.dumps(job))
        assert back.config == job.config
        assert [f.func for f in back.module_factories] == \
            [f.func for f in job.module_factories]
        assert back.main.keywords == job.main.keywords


class TestLauncherRegistry:
    def test_builtins_available(self):
        assert LAUNCHERS == {"local": "fork", "subprocess": "exec"}
        assert start_method("subprocess") == "exec"

    def test_unknown_launcher_lists_known(self):
        with pytest.raises(ConfigError,
                           match="known launchers: local, subprocess"):
            start_method("slurm-step")
        with pytest.raises(ConfigError, match="unknown launcher 'flux'"):
            ProcessExecutor(launcher="flux")

    def test_subprocess_launcher_needs_a_picklable_job(self):
        before = child_pids()
        with pytest.raises(ConfigError, match="module-level function or a "
                                              "functools.partial"):
            _procs(roundtrip_factory, launcher="subprocess")
        assert _new_children(before) == []


class TestSubprocessLauncher:
    def test_roundtrip_over_command_line_children(self):
        # Exercises job pickling + the `python -m repro procs-worker` entry;
        # HiPER HPGMG's halo rpc body crosses the wire as a pickle too.
        from repro.apps.registry import APPS

        app = APPS["hpgmg"]
        answer, res = app.run(
            "hiper", app.cluster(2, 1),
            executor=ProcessExecutor(launcher="subprocess", timeout=90.0))
        assert answer == app.run("hiper", app.cluster(2, 1))[0]
        assert res.executor.launcher_name == "subprocess"
        assert leaked_segments(res.executor.run_id) == []


# ----------------------------------------------------------------------
# the differential: every variant on procs must give the sim's answer
# ----------------------------------------------------------------------
def _sim_vs_procs(app):
    from repro.verify import spmd_differential

    return spmd_differential(app, [("sim", None, None),
                                   ("procs", None, ProcessExecutor)])


class TestProcsDifferential:
    @pytest.mark.parametrize("workload", ["isx", "uts"])
    def test_digest_matches_sim(self, workload):
        rep = _sim_vs_procs(workload)
        assert rep.ok, rep.describe()
        assert [r.engine.split(":")[0] for r in rep.runs][:2] == \
            ["sim", "procs"]

    def test_graph500_digest_matches_sim(self):
        rep = _sim_vs_procs("graph500")
        assert rep.ok, rep.describe()
