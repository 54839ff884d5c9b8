"""Multiprocess SPMD backend tests (ISSUE 6 tentpole).

Covers the parent-side lifecycle discipline (no orphaned children, no
leaked ``/dev/shm`` segments, stragglers terminated on timeout), the
put/get/quiet round-trip over the real socket fabric + shared-memory heap,
the two launchers, a parent killed mid-run, and the sim ↔ procs digest
differential on CI-sized workloads.
"""

import glob
import os
import re
import signal
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest

from repro.exec.procs import (
    ProcessExecutor,
    ProcsJob,
    procs_run,
    resolve_dotted,
)
from repro.launch import LAUNCHERS, start_method
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


# ----------------------------------------------------------------------
# round-trip + lifecycle
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_put_get_quiet_two_ranks(self):
        res = procs_run(roundtrip_factory, nranks=2, timeout=60.0)
        assert sorted(res.results) == [(0, 101, [101] * 4),
                                       (1, 100, [100] * 4)]
        assert res.nranks == 2
        assert res.launcher == "local"
        assert res.wall_time > 0

    def test_counters_merged_across_ranks(self):
        res = procs_run(roundtrip_factory, nranks=2, timeout=60.0)
        assert any(key.startswith("shmem.") for key in res.counters), \
            res.counters

    def test_no_orphans_no_leaked_segments_no_rundir(self):
        before = child_pids()
        res = procs_run(roundtrip_factory, nranks=2, timeout=60.0)
        assert _new_children(before) == []
        assert leaked_segments(res.run_id) == []
        assert glob.glob(os.path.join(
            tempfile.gettempdir(), f"repro-procs-{res.run_id}-*")) == []


class TestFailurePaths:
    def test_rank_failure_surfaces_root_cause(self):
        # Rank 0 stalls at the barrier rank 1 never reaches; the report must
        # lead with the injected error, not the stranded peer's DeadlockError.
        with pytest.raises(ConfigError, match="injected rank failure"):
            procs_run(failing_factory, nranks=2, timeout=60.0,
                      block_timeout=2.0)

    def test_hang_hits_parent_timeout_and_terminates_stragglers(self):
        before = child_pids()
        with pytest.raises(RuntimeStateError, match="timed out"):
            procs_run(hanging_factory, nranks=2, timeout=2.0,
                      block_timeout=60.0)
        deadline = time.monotonic() + 10.0
        while _new_children(before) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _new_children(before) == []
        assert leaked_segments() == []

    def test_executor_refuses_reuse_after_shutdown(self):
        ex = ProcessExecutor(2)
        ex.shutdown()
        ex.shutdown()  # idempotent
        with pytest.raises(RuntimeStateError, match="after shutdown"):
            ex.run(roundtrip_factory)

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            ProcessExecutor(0)
        with pytest.raises(ConfigError):
            ProcessExecutor(2, timeout=-1.0)


#: Rank 0 returns at once, rank 1 works on for 3 s; both announce themselves.
_PARENT_SCRIPT = """
import os, time
from repro.exec.procs import procs_run

def factory():
    def main(ctx):
        yield ctx.shmem.barrier_all_async()
        print("rank", os.getpid(), ctx.shared["shmem-arena"].name, flush=True)
        if ctx.rank == 1:
            time.sleep(3.0)
        return ctx.rank
    return main

procs_run(factory, nranks=2, timeout=60.0)
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
class TestFactoryResolution:
    def test_resolve_dotted(self):
        from repro.shmem import shmem_factory
        assert resolve_dotted("repro.shmem:shmem_factory") is shmem_factory

    def test_resolve_dotted_rejects_malformed(self):
        with pytest.raises(ConfigError, match="pkg.mod:attr"):
            resolve_dotted("repro.shmem.shmem_factory")

    def test_resolve_dotted_rejects_missing_attr(self):
        with pytest.raises(ConfigError, match="no attribute"):
            resolve_dotted("repro.shmem:nope")

    def test_resolve_modules_by_name_and_path(self):
        job = ProcsJob(run_id="x", rundir="/tmp", nranks=1,
                       factory=roundtrip_factory,
                       modules=(("shmem", {}),
                                ("repro.mpi:mpi_factory", {})))
        mods = job.resolve_modules()
        assert len(mods) == 2 and all(callable(m) for m in mods)


class TestLauncherRegistry:
    def test_builtins_available(self):
        assert LAUNCHERS == {"local": "fork", "subprocess": "exec"}
        assert start_method("subprocess") == "exec"

    def test_unknown_launcher_lists_known(self):
        with pytest.raises(ConfigError,
                           match="known launchers: local, subprocess"):
            start_method("slurm-step")
        with pytest.raises(ConfigError, match="unknown launcher 'flux'"):
            procs_run(roundtrip_factory, nranks=2, launcher="flux")

    def test_subprocess_launcher_needs_a_picklable_job(self):
        before = child_pids()
        with pytest.raises(ConfigError, match="dotted factory path"):
            procs_run(lambda: None, nranks=2, launcher="subprocess")
        assert _new_children(before) == []


class TestSubprocessLauncher:
    def test_roundtrip_over_command_line_children(self):
        # Exercises job pickling + the `python -m repro procs-worker` entry.
        from repro.verify.spmd_workloads import run_procs_workload
        digest, res = run_procs_workload("uts", nranks=2,
                                         launcher="subprocess", timeout=90.0)
        assert digest == ("uts", 355)
        assert res.launcher == "subprocess"
        assert leaked_segments(res.run_id) == []


# ----------------------------------------------------------------------
# the differential: procs must match the single-runtime engines
# ----------------------------------------------------------------------
class TestProcsDifferential:
    @pytest.mark.parametrize("workload", ["isx", "uts"])
    def test_digest_matches_sim(self, workload):
        from repro.verify import differential
        rep = differential(workload, engines=("sim", "procs"))
        assert rep.ok, rep.describe()
        assert [r.engine for r in rep.runs] == ["sim", "procs"]

    def test_graph500_digest_matches_sim(self):
        from repro.verify import differential
        rep = differential("graph500", engines=("sim", "procs"))
        assert rep.ok, rep.describe()
