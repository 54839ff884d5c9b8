"""The child-process seam: the one place under ``src/repro`` that creates,
talks to and reaps a child process.

RADICAL-Pilot-style pilot systems split *acquiring* processes from
*executing* work in them; this module is the first half. The rank processes
of :mod:`repro.exec.procs`, the shard workers of :mod:`repro.exec.shards`
and the pool workers of :mod:`repro.service.pool` are all a :class:`Child`:
a pid plus one control socket speaking :mod:`repro.net.procfabric` frames.
Those modules keep only their *protocols* — which frames cross the link.

Two start methods:

- ``fork`` — ``os.fork``; the body and its arguments are inherited, nothing
  is pickled, startup is milliseconds.
- ``exec`` — ``python -m repro procs-worker <fd>``, the link handed over
  with ``pass_fds``; a fresh interpreter that reads its body and arguments
  (pickled, so named by import path) from the link's first frame.

Either way the child runs one prologue (:func:`_child_main`): every
inherited descriptor but stdio and its own link is closed — so a sibling's
death always reaches the parent as EOF, and nobody keeps a listening socket
alive — SIGINT is ignored (the parent decides when children leave), SIGTERM
is back to its default, an exception escaping the body goes home as one
``("crash", type, message, traceback)`` frame, and the process leaves
through ``os._exit``. A child learns that its parent closed the link, or is
gone, as ``Link.recv() is None``.

The parent sees two failure kinds, whichever protocol rides on the link:
:class:`ChildDied` (EOF: the process is gone; the message names pid and
exit code) and :class:`ChildCrashed` (a crash frame: the message carries
the remote traceback too). Either way the child has been reaped.
:class:`ChildTimeout` means only that nothing arrived in time; the child is
untouched. :func:`close_all` is the one reap: EOF, ``waitpid`` with a
grace, SIGKILL, exit code.
"""

from __future__ import annotations

import os
import pickle
import signal
import socket
import subprocess
import sys
import time
import traceback
import warnings
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.net.procfabric import recv_frame, send_frame
from repro.util.errors import ConfigError, HiperError

__all__ = [
    "Child",
    "ChildCrashed",
    "ChildDied",
    "ChildError",
    "ChildTimeout",
    "LAUNCHERS",
    "Link",
    "close_all",
    "exec_main",
    "start_method",
]

#: ``--launcher`` name -> start method of the procs backend's rank processes.
LAUNCHERS: Dict[str, str] = {"local": "fork", "subprocess": "exec"}

#: Seconds a child gets to leave after EOF on its link before it is SIGKILLed.
GRACE = 5.0


def start_method(launcher: str) -> str:
    """The start method behind a ``--launcher`` name."""
    try:
        return LAUNCHERS[launcher]
    except KeyError:
        raise ConfigError(
            f"unknown launcher {launcher!r}; known launchers: "
            f"{', '.join(LAUNCHERS)}") from None


class ChildError(HiperError):
    """A child is gone and reaped. ``pid`` and ``exit_code`` (negative:
    killed by that signal; None: reaped elsewhere) are for reporting."""

    def __init__(self, message: str, pid: int, exit_code: Optional[int]):
        super().__init__(message)
        self.pid = pid
        self.exit_code = exit_code


class ChildDied(ChildError):
    """EOF on the link: the process went without saying why."""


class ChildCrashed(ChildError):
    """The child shipped a crash frame: an exception escaped its body."""


class ChildTimeout(HiperError):
    """Nothing arrived within the timeout; the child is left as it is."""


# ----------------------------------------------------------------------
# child side
# ----------------------------------------------------------------------
class Link:
    """The child's end of its control socket."""

    __slots__ = ("_sock",)

    def __init__(self, sock: socket.socket):
        self._sock = sock

    def send(self, obj: Any) -> None:
        """One frame to the parent; ``OSError`` when the parent is gone."""
        send_frame(self._sock, obj)

    def recv(self) -> Any:
        """The parent's next frame; None once it closed the link or died."""
        try:
            return recv_frame(self._sock)
        except ConnectionError:
            return None


def _flush_stdio() -> None:
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (OSError, ValueError):
            pass  # closed or broken stdio is not this seam's problem


def _close_inherited_fds(link_fd: int) -> None:
    """Close every descriptor but stdio and the link: listening sockets,
    client connections, the siblings' links and this child's own
    parent-side end — or EOF would never reach anybody."""
    keep = {0, 1, 2, link_fd}
    for stream in (sys.stdin, sys.stdout, sys.stderr):
        try:  # where a harness rebound them (pytest's capture), those too
            keep.add(stream.fileno())
        except (AttributeError, OSError, ValueError):
            pass  # no descriptor behind it
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except OSError:
        fds = range(3, os.sysconf("SC_OPEN_MAX"))
    for fd in fds:
        if fd not in keep:
            try:
                os.close(fd)
            except OSError:
                pass  # the listing's own descriptor
    # multiprocessing's resource tracker (shared-memory heaps register with
    # it) writes to an inherited pipe, now closed: make it start its own on
    # first use, as in a fresh process, not probe a recycled descriptor.
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._fd = None


def _child_main(sock: socket.socket, body: Optional[Callable] = None,
                args: Tuple = ()) -> None:
    """The prologue every child runs, then ``body(link, *args)``. Never
    returns. ``body is None``: an exec'd child, told by the first frame."""
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        _close_inherited_fds(sock.fileno())
        try:
            if body is None:
                body, args = recv_frame(sock)
            body(Link(sock), *args)
            code = 0
        except BaseException as exc:  # noqa: BLE001 - ship diagnosis home
            send_frame(sock, ("crash", type(exc).__name__, str(exc),
                              traceback.format_exc()))
    finally:
        # _exit: skip the parent's atexit hooks (and a failed crash send).
        _flush_stdio()
        os._exit(code)


def exec_main(fd: int) -> None:
    """Entry of ``python -m repro procs-worker <fd>``. Never returns."""
    _child_main(socket.socket(fileno=fd))


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class Child:
    """Parent-side handle of one child process: pid + control link."""

    def __init__(self, pid: int, sock: socket.socket, name: str):
        self.pid = pid
        self.name = name
        self.exit_code: Optional[int] = None
        self._sock = sock
        self._reaped = False

    @classmethod
    def start(cls, method: str, body: Callable, args: Sequence = (), *,
              name: str) -> "Child":
        """Start a child that runs ``body(link, *args)`` after the prologue.

        ``method`` is ``"fork"`` or ``"exec"``; ``name`` ("rank 3", "pool
        worker") is how failures refer to the child.
        """
        if method == "fork" and not hasattr(os, "fork"):
            raise ConfigError(
                f"cannot start {name}: this platform has no os.fork — run "
                "procs jobs with --launcher subprocess and the simulator "
                "with shards=1; the service's worker pool has no fork-free "
                "mode")
        parent_sock, child_sock = socket.socketpair()
        try:
            if method == "fork":
                _flush_stdio()  # or the child's exit would flush them again
                with warnings.catch_warnings():
                    # Python 3.12+ warns when a threaded process forks (a
                    # pool re-fork is one); the child touches nothing a
                    # thread owned.
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
                if pid == 0:
                    _child_main(child_sock, body, tuple(args))
            else:
                pid = _spawn_worker(child_sock.fileno())
        finally:
            child_sock.close()
        child = cls(pid, parent_sock, name)
        if method == "exec":
            try:
                child.send((body, tuple(args)))
            except (pickle.PicklingError, TypeError, AttributeError) as exc:
                child.close(grace=0.0)
                raise ConfigError(
                    f"cannot start {name}: the exec start method (the "
                    "subprocess launcher) pickles the child's work — name "
                    "the app by dotted factory path instead of passing a "
                    f"callable ({exc})") from exc
        return child

    # ------------------------------------------------------------------
    def send(self, obj: Any) -> None:
        """One frame to the child. An unpicklable ``obj`` raises before a
        byte is written; a dead link raises :class:`ChildDied`."""
        try:
            send_frame(self._sock, obj)
        except socket.timeout:
            raise ChildTimeout(
                f"{self.name} (pid {self.pid}) is not reading") from None
        except OSError:
            raise self._gone() from None

    def recv(self, timeout: Optional[float] = None) -> Any:
        """The child's next frame, waiting at most ``timeout`` seconds."""
        try:
            if timeout is not None and timeout <= 0:
                raise socket.timeout
            if timeout is not None or self._sock.gettimeout() is not None:
                self._sock.settimeout(timeout)
            frame = recv_frame(self._sock)
        except socket.timeout:
            raise ChildTimeout(
                f"{self.name} (pid {self.pid}) sent nothing within "
                f"{timeout:.3g}s") from None
        except OSError:
            frame = None
        if frame is None:
            raise self._gone()
        if frame[0] == "crash":
            raise self._gone(frame)
        return frame

    def _gone(self, crash: Optional[Tuple] = None) -> ChildError:
        """Reap, then build the one sentence that reports a lost child."""
        code = self.close()
        where = f"(pid {self.pid}, exit code {code})"
        if crash is None:
            return ChildDied(f"{self.name} died {where}", self.pid, code)
        _, ename, emsg, tb = crash
        return ChildCrashed(
            f"{self.name} crashed {where}: {ename}: {emsg}\n"
            f"--- {self.name} traceback ---\n{tb}", self.pid, code)

    def close(self, grace: float = GRACE) -> Optional[int]:
        """EOF the link and reap; returns the exit code. Idempotent."""
        return close_all([self], grace)[0]

    # ------------------------------------------------------------------
    def _hangup(self) -> None:
        try:  # also wakes a thread still blocked in recv()
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    def _reap(self, deadline: float) -> Optional[int]:
        if self._reaped:
            return self.exit_code
        try:
            while True:
                pid, status = os.waitpid(self.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() >= deadline:
                    os.kill(self.pid, signal.SIGKILL)
                    status = os.waitpid(self.pid, 0)[1]
                    break
                time.sleep(0.005)
            self.exit_code = os.waitstatus_to_exitcode(status)
        except ChildProcessError:
            pass  # reaped elsewhere (SIGCHLD ignored): the code is lost
        self._reaped = True
        return self.exit_code


def _spawn_worker(fd: int) -> int:
    """``python -m repro procs-worker <fd>`` with only ``fd`` inherited."""
    import repro

    env = dict(os.environ)
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = pkg_root + (os.pathsep + existing if existing else "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "procs-worker", str(fd)],
        pass_fds=(fd,), env=env)
    # Reaped by pid like a forked child: tell Popen it has nothing to wait
    # for, or its destructor polls (and warns about) a pid it does not own.
    proc.returncode = 0
    return proc.pid


def close_all(children: Sequence[Child],
              grace: float = GRACE) -> List[Optional[int]]:
    """The one reap: EOF every link first — so the children leave side by
    side — then ``waitpid`` each against one deadline, SIGKILLing what is
    still there when it passes. Returns the exit codes. No zombie and no
    orphan survives this call."""
    for child in children:
        child._hangup()
    deadline = time.monotonic() + grace
    return [child._reap(deadline) for child in children]
