"""The child-process seam, ``repro.launch.Child``, on both start methods.

``TestSeam`` pins what every child gets from the seam itself (descriptor
hygiene, the crash frame, the died diagnosis, timeouts, the reap);
``TestThreeProtocols`` that the three users — procs ranks, shard workers,
pool workers — turn the seam's two failure kinds into the public exception
types they always raised, now with pid, exit code and remote traceback.

Bodies are module-level functions so the ``exec`` start method can name them
by import path (the child imports ``tests.test_launch_child`` from the
repository root, which ``python -m`` puts on its path).
"""

import os
import signal
import socket
import sys
import time

import pytest

from repro.distrib.spmd import ClusterConfig, spmd_run
from repro.exec import procs as procs_mod
from repro.exec import shards as shards_mod
from repro.exec.procs import ProcessExecutor
from repro.exec.sim import SimExecutor
from repro.launch import (Child, ChildCrashed, ChildDied, ChildTimeout,
                          close_all)
from repro.service import JobSpec
from repro.service import pool as pool_mod
from repro.service.pool import PoolWorker
from repro.shmem import shmem_factory
from repro.shmem.shared import leaked_segments
from repro.util.errors import (ConfigError, HiperError, PlaceFailure,
                               RuntimeStateError)
from tests.procutil import alive, child_pids, open_fds

METHODS = ["fork", "exec"]


# ----------------------------------------------------------------------
# child bodies
# ----------------------------------------------------------------------
def echo(link):
    """Answer every frame until the parent hangs up."""
    while True:
        frame = link.recv()
        if frame is None:
            return
        link.send(("echo", frame))


def report_fds(link):
    link.send(("fds", open_fds()))
    link.recv()


def explode(link, text):
    link.recv()
    raise ValueError(text)


def ignore_eof(link):
    link.send(("up",))
    link.recv()
    time.sleep(60.0)


def exit_with(link, code):
    link.recv()
    os._exit(code)


def _stdio_fds():
    """0-2 plus wherever a harness (pytest's capture) rebound sys.std*."""
    out = {0, 1, 2}
    for stream in (sys.stdin, sys.stdout, sys.stderr):
        try:
            out.add(stream.fileno())
        except (AttributeError, OSError, ValueError):
            pass
    return out


@pytest.fixture
def started():
    """``start(method, body, args)`` whose children are closed afterwards."""
    children = []

    def start(method, body, args=(), name="test child"):
        children.append(Child.start(method, body, args, name=name))
        return children[-1]

    yield start
    close_all(children, grace=0.0)


# ----------------------------------------------------------------------
# the seam
# ----------------------------------------------------------------------
@pytest.mark.parametrize("method", METHODS)
class TestSeam:
    def test_child_holds_only_stdio_and_its_own_link(self, method, started,
                                                     tmp_path):
        listener = socket.socket(socket.AF_UNIX)
        listener.bind(str(tmp_path / "listen.sock"))
        listener.listen()
        unrelated = open(tmp_path / "unrelated.txt", "w")
        try:
            sibling = started(method, echo)   # its link is open in this process
            child = started(method, report_fds)
            _, fds = child.recv(timeout=30.0)
            stdio = _stdio_fds() if method == "fork" else {0, 1, 2}
            links = [fd for fd in fds if fd not in stdio]
            assert len(links) == 1, fds
            assert fds[links[0]].startswith("socket:")
            # No child holds another child's link: a dead sibling's EOF
            # reaches the parent while the other child is still alive.
            os.kill(sibling.pid, signal.SIGKILL)
            with pytest.raises(ChildDied):
                sibling.recv(timeout=10.0)
            assert alive(child.pid)
        finally:
            unrelated.close()
            listener.close()

    def test_crash_frame_round_trips_type_message_and_traceback(
            self, method, started):
        child = started(method, explode, ("boom at depth",), name="probe")
        child.send(("go",))
        with pytest.raises(ChildCrashed) as ei:
            child.recv(timeout=30.0)
        text = str(ei.value)
        assert text.startswith(
            f"probe crashed (pid {child.pid}, exit code 1): "
            "ValueError: boom at depth\n--- probe traceback ---\n")
        assert "Traceback (most recent call last)" in text
        assert 'in explode\n    raise ValueError(text)' in text
        assert (ei.value.pid, ei.value.exit_code) == (child.pid, 1)
        assert isinstance(ei.value, HiperError)
        assert not os.path.exists(f"/proc/{child.pid}")   # reaped already

    def test_a_dead_child_is_reported_with_pid_and_exit_code(
            self, method, started):
        child = started(method, echo, name="rank 7")
        child.send("ping")
        assert child.recv(timeout=30.0) == ("echo", "ping")
        os.kill(child.pid, signal.SIGKILL)
        with pytest.raises(
                ChildDied, match=rf"^rank 7 died \(pid {child.pid}, exit "
                                 r"code -9\)$") as ei:
            child.recv(timeout=10.0)
        assert ei.value.exit_code == -9 and child.exit_code == -9
        with pytest.raises(ChildDied, match=r"exit code -9"):
            child.send("anyone?")   # the same sentence, not a BrokenPipeError

    def test_an_exit_code_is_decoded_once(self, method, started):
        child = started(method, exit_with, (3,))
        child.send(("go",))
        with pytest.raises(ChildDied, match=r"exit code 3\)"):
            child.recv(timeout=30.0)

    def test_recv_timeout_leaves_the_child_alone(self, method, started):
        child = started(method, echo)
        t0 = time.monotonic()
        with pytest.raises(ChildTimeout, match=rf"pid {child.pid}"):
            child.recv(timeout=0.1)
        assert 0.09 <= time.monotonic() - t0 < 5.0
        with pytest.raises(ChildTimeout):
            child.recv(timeout=0.0)   # a spent deadline, not a busy poll
        assert alive(child.pid)
        child.send("still there?")
        assert child.recv(timeout=30.0) == ("echo", "still there?")
        child.send("and untimed")
        assert child.recv() == ("echo", "and untimed")

    def test_close_kills_a_child_that_ignores_eof_no_zombie(
            self, method, started):
        child = started(method, ignore_eof)
        assert child.recv(timeout=30.0) == ("up",)
        t0 = time.monotonic()
        assert child.close(grace=0.3) == -9
        assert 0.3 <= time.monotonic() - t0 < 5.0
        assert child.close() == -9   # idempotent
        with pytest.raises(ChildProcessError):   # nothing left to wait for
            os.waitpid(child.pid, os.WNOHANG)
        assert child.pid not in child_pids()

    def test_close_of_a_child_that_honours_eof_returns_0_at_once(
            self, method, started):
        children = [started(method, echo) for _ in range(3)]
        for child in children:   # all up (an exec'd one takes a moment)
            child.send("up?")
            assert child.recv(timeout=30.0) == ("echo", "up?")
        t0 = time.monotonic()
        assert close_all(children) == [0, 0, 0]
        assert time.monotonic() - t0 < 2.0
        assert not set(c.pid for c in children) & set(child_pids())

    def test_an_unpicklable_request_fails_the_send_not_the_child(
            self, method, started):
        child = started(method, echo)
        with pytest.raises(Exception, match="pickle|Pickl") as ei:
            child.send(("run", lambda: 0))
        assert not isinstance(ei.value, HiperError)
        child.send("fine")
        assert child.recv(timeout=30.0) == ("echo", "fine")


class TestStart:
    def test_exec_needs_an_importable_body(self):
        before = child_pids()
        with pytest.raises(ConfigError, match="module-level function or a "
                                              "functools.partial of one"):
            Child.start("exec", lambda link: None, name="nameless")
        assert child_pids() == before

    def test_a_platform_without_fork_fails_in_one_sentence(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        hint = r"no os\.fork.*--launcher subprocess.*shards=1.*pool"
        with pytest.raises(ConfigError, match=hint):
            Child.start("fork", echo, name="x")
        with pytest.raises(ConfigError, match=hint):
            PoolWorker("sim", 0, None)
        with pytest.raises(ConfigError, match=hint):
            _procs(dying_rank_factory)
        with pytest.raises(ConfigError, match=hint):
            _sharded(dying_rank_factory)
        assert leaked_segments() == []


# ----------------------------------------------------------------------
# the three protocols on the seam
# ----------------------------------------------------------------------
def dying_rank_factory():
    """Rank 1 is SIGKILLed mid-main."""

    def main(ctx):
        yield ctx.shmem.barrier_all_async()
        if ctx.rank == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        yield ctx.shmem.barrier_all_async()
        return ctx.rank

    return main


def _procs(main_factory, **executor_kw):
    return spmd_run(main_factory(), ClusterConfig(nodes=2),
                    module_factories=[shmem_factory()],
                    executor=ProcessExecutor(timeout=60.0, **executor_kw))


def _sharded(main_factory):
    return spmd_run(main_factory(), ClusterConfig(nodes=2, ranks_per_node=1),
                    module_factories=[shmem_factory(direct=True)],
                    executor=SimExecutor(shards=2))


def _kill_pool_worker():
    worker = PoolWorker("sim", 0, dict(workers=2))
    try:
        os.kill(worker.pid, signal.SIGKILL)
        worker.run(JobSpec.create("isx", {"keys_per_pe": 64}), "doomed")
    finally:
        worker.close()


def _broken(*_args, **_kwargs):
    raise RuntimeError("broken outside job and rank code")


def _crash_pool_worker():
    worker = PoolWorker("sim", 0, dict(workers=2))   # builds its entry: crash
    try:
        worker.run(JobSpec.create("isx", {"keys_per_pe": 64}), "doomed")
    finally:
        worker.close()


class TestThreeProtocols:
    @pytest.mark.parametrize("run, public, who", [
        (lambda: _procs(dying_rank_factory, block_timeout=2.0),
         ConfigError, r"first failure on rank 1: ChildDied: rank 1 died"),
        (lambda: _sharded(dying_rank_factory),
         PlaceFailure, r"shard 1 died mid-window"),
        (_kill_pool_worker, HiperError, r"pool worker died"),
    ], ids=["procs", "shards", "pool"])
    def test_sigkill_mid_work_names_pid_and_exit_code(self, run, public, who):
        before = child_pids()
        with pytest.raises(public, match=who + r" \(pid \d+, exit code -9\)"):
            run()
        assert child_pids() == before and leaked_segments() == []

    @pytest.mark.parametrize("patch, run, public, who", [
        ((procs_mod, "procs_child_main"),
         lambda: _procs(dying_rank_factory),
         ConfigError, "rank 0"),
        ((shards_mod, "SimFabric"), lambda: _sharded(dying_rank_factory),
         RuntimeStateError, "shard 0"),
        ((pool_mod, "WarmRuntime"), _crash_pool_worker,
         HiperError, "pool worker"),
    ], ids=["procs", "shards", "pool"])
    def test_outside_crash_carries_remote_traceback(
            self, monkeypatch, patch, run, public, who):
        monkeypatch.setattr(*patch, _broken)   # the fork inherits the patch
        before = child_pids()
        with pytest.raises(public) as ei:
            run()
        text = str(ei.value)
        assert f"{who} crashed (pid " in text and "exit code 1)" in text
        assert "RuntimeError: broken outside job and rank code" in text
        assert f"--- {who} traceback ---" in text and "in _broken" in text
        assert child_pids() == before and leaked_segments() == []
