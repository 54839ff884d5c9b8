"""``/proc`` helpers shared by the process-hygiene tests (launch seam,
procs ranks, shard workers, pool workers)."""

import os
import time


def until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


def _stat_fields(pid):
    """``/proc/<pid>/stat`` after the ``(comm)`` field (comm may hold
    spaces): state, ppid, ..."""
    with open(f"/proc/{pid}/stat") as fh:
        return fh.read().rsplit(")", 1)[1].split()


def alive(pid):
    """A live process — not gone, and not a zombie waiting for init."""
    try:
        return _stat_fields(pid)[0] not in ("Z", "X")
    except OSError:
        return False


def child_pids(parent=None):
    """Pids whose parent is ``parent`` (default: this process). Zombies
    count: an unreaped child is a leak too. multiprocessing's resource
    tracker does not: the stdlib starts one per process that touches shared
    memory and keeps it until that process exits."""
    parent = os.getpid() if parent is None else parent
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            if int(_stat_fields(entry)[1]) != parent:
                continue
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                if b"multiprocessing.resource_tracker" not in fh.read():
                    out.append(int(entry))
        except (OSError, IndexError, ValueError):
            continue  # the process ended while we were looking
    return sorted(out)


def open_fds(pid="self"):
    """``{fd: link target}`` of a process's open descriptors."""
    out = {}
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            out[int(fd)] = os.readlink(f"/proc/{pid}/fd/{fd}")
        except OSError:
            continue  # the listing's own descriptor
    return out


def socket_fds(pid="self"):
    return sum(t.startswith("socket:") for t in open_fds(pid).values())
