"""Real multiprocess fabric: Unix-domain sockets between rank processes.

One :class:`ProcFabric` instance lives in each rank's process and owns that
one rank. It moves real bytes, not virtual time, so it shares no code with
:class:`repro.net.fabric.SimFabric` — only the surface
:class:`repro.net.mux.FabricMux` and the protocol backends above it (SHMEM,
MPI control channel, coalescing, the request table) use, which
``tests/test_net_fabric.py::TestFabricConformance`` holds both classes to.

Wire protocol: each rank binds ``fab-<rank>.sock`` in the run's rendezvous
directory; connections are opened lazily (first send to a peer) with a
retry loop that tolerates peers still binding. Exactly one connection
carries each ordered (src → dst) pair, so the pairwise-FIFO guarantee the
protocol layers rely on holds by TCP-like stream ordering. Frames are
length-prefixed pickles of ``(src, payload)``; a reader thread per inbound
connection dispatches frames straight into the local mux sink (the protocol
backends were made thread-safe for exactly this).

Injection semantics mirror the simulator's eager model: ``on_injected``
fires once the frame is serialized and handed to the kernel — the source
buffer is reusable. Payload snapshots are plain arrays that the sender
drops after that; the receiving process unpickles its own copy.

Fault injection is not supported on this fabric (``last_faults`` is always
``None``); the simulator remains the chaos/verify engine of record.
"""

from __future__ import annotations

import os
import pickle
import socket
import struct
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.util.errors import CommError

_HDR = struct.Struct(">I")

#: Sub-second backoff while waiting for a peer's socket to appear.
_CONNECT_POLL = 0.01


def send_frame(sock: socket.socket, obj: Any) -> int:
    """Write one length-prefixed pickled frame (the procfabric wire format).

    Shared with the sharded DES engine's coordinator links, which speak the
    same framing over socketpairs. Returns the frame's payload length.
    """
    frame = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_HDR.pack(len(frame)) + frame)
    return len(frame)


def recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes; None on clean EOF (peer closed)."""
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None
        buf.extend(chunk)
    return bytes(buf)


def recv_frame(sock: socket.socket) -> Any:
    """Read one length-prefixed pickled frame; None on clean EOF."""
    hdr = recv_exact(sock, _HDR.size)
    if hdr is None:
        return None
    (length,) = _HDR.unpack(hdr)
    body = recv_exact(sock, length)
    if body is None:
        return None
    return pickle.loads(body)


class ProcFabric:
    """One rank's endpoint of the socket mesh."""

    #: No fault injection on the real fabric: the mux reads both per send.
    last_faults = None
    fault_hook = None

    def __init__(
        self,
        executor,
        nranks: int,
        rank: int,
        sockdir: str,
        *,
        ranks_per_node: int = 1,
        connect_timeout: float = 30.0,
        send_overhead: float = 0.0,
    ):
        if not (0 <= rank < nranks):
            raise CommError(f"rank {rank} out of range [0, {nranks})")
        self.executor = executor
        self.nranks = nranks
        self.rank = rank
        self.sockdir = sockdir
        self.ranks_per_node = max(1, ranks_per_node)
        self.connect_timeout = connect_timeout
        self._send_overhead = send_overhead
        self._sink: Optional[Callable[[int, Any, float], None]] = None
        # Frames that arrive before the local sink registers are parked here
        # and replayed at registration (startup race: a fast peer's first
        # message can beat this rank's module init). After the sink has been
        # unregistered (teardown), late frames are counted as drops instead.
        self._pending: List[Any] = []
        self._sink_lock = threading.Lock()
        self._had_sink = False
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._readers: List[threading.Thread] = []
        self._out: Dict[int, socket.socket] = {}
        self._out_locks: Dict[int, threading.Lock] = {}
        self._conn_lock = threading.Lock()
        self._closing = False
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_dropped_at_teardown = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def sock_path(self, rank: int) -> str:
        return os.path.join(self.sockdir, f"fab-{rank}.sock")

    def start(self) -> None:
        """Bind this rank's socket and start accepting peers."""
        path = self.sock_path(self.rank)
        lst = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            lst.bind(path)
        except OSError as exc:
            lst.close()
            raise CommError(
                f"rank {self.rank} failed to bind fabric socket {path}: {exc}"
            ) from exc
        lst.listen(self.nranks + 2)
        self._listener = lst
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"procfab-accept-r{self.rank}",
            daemon=True,
        )
        self._accept_thread.start()

    def close(self) -> None:
        """Tear the endpoint down: stop accepting, close every connection,
        join reader threads, remove the socket file. Safe to call twice."""
        if self._closing:
            return
        self._closing = True
        lst, self._listener = self._listener, None
        if lst is not None:
            try:
                # Unblock accept() with a self-connection, then close.
                poke = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                poke.settimeout(0.2)
                try:
                    poke.connect(self.sock_path(self.rank))
                except OSError:
                    pass
                finally:
                    poke.close()
                lst.close()
            except OSError:
                pass
        with self._conn_lock:
            conns = list(self._out.values())
            self._out.clear()
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
        for th in list(self._readers):
            th.join(timeout=2.0)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
            self._accept_thread = None
        try:
            os.unlink(self.sock_path(self.rank))
        except OSError:
            pass

    # ------------------------------------------------------------------
    # the fabric surface
    # ------------------------------------------------------------------
    def register_sink(self, rank: int, sink, replace: bool = False) -> None:
        if rank != self.rank:
            raise CommError(
                f"ProcFabric endpoint of rank {self.rank} cannot register a "
                f"sink for rank {rank}: peers live in other processes"
            )
        with self._sink_lock:
            if self._sink is not None and not replace:
                raise CommError(f"rank {rank} already has a registered sink")
            self._sink = sink
            self._had_sink = True
            backlog, self._pending = self._pending, []
        for src, payload, t in backlog:
            sink(src, payload, t)

    def unregister_sink(self, rank: int) -> None:
        if rank != self.rank:
            raise CommError(
                f"ProcFabric endpoint of rank {self.rank} cannot unregister "
                f"rank {rank}")
        self._sink = None

    def node_of(self, rank: int) -> int:
        return rank // self.ranks_per_node

    def cpu_send_overhead(self) -> float:
        return self._send_overhead

    def transmit(
        self,
        src: int,
        dst: int,
        nbytes: int,
        payload: Any,
        on_injected: Optional[Callable[[float], None]] = None,
    ) -> float:
        """Ship ``payload`` to ``dst``; returns the (wall-clock) inject time.

        Thread-safe: workers and delivery threads may transmit concurrently;
        a per-destination lock keeps each stream's frames intact (and
        ordered, preserving pairwise FIFO).
        """
        if src != self.rank:
            raise CommError(
                f"ProcFabric endpoint of rank {self.rank} asked to send "
                f"as rank {src}")
        if not (0 <= dst < self.nranks):
            raise CommError(f"dst rank {dst} out of range [0, {self.nranks})")
        if dst == self.rank:
            # Loopback: no serialization, no socket — deliver inline exactly
            # like the simulator's zero-copy self-send. Ordering with respect
            # to socket traffic is irrelevant (single endpoint).
            t = self.executor.now()
            self.messages_sent += 1
            self.bytes_sent += int(nbytes)
            if on_injected is not None:
                on_injected(t)
            self._deliver(src, payload, t)
            return t
        frame = pickle.dumps((src, payload), protocol=pickle.HIGHEST_PROTOCOL)
        conn, lock = self._connection(dst)
        try:
            with lock:
                conn.sendall(_HDR.pack(len(frame)) + frame)
        except OSError as exc:
            if self._closing:
                self.messages_dropped_at_teardown += 1
                return self.executor.now()
            raise CommError(
                f"rank {self.rank} -> {dst} send failed: {exc}") from exc
        t = self.executor.now()
        self.messages_sent += 1
        self.bytes_sent += int(nbytes)
        if on_injected is not None:
            on_injected(t)
        return t

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _connection(self, dst: int):
        with self._conn_lock:
            conn = self._out.get(dst)
            if conn is not None:
                return conn, self._out_locks[dst]
        # Connect outside the registry lock (may block while the peer is
        # still binding); only one winner is kept if two threads race.
        conn = self._dial(dst)
        with self._conn_lock:
            existing = self._out.get(dst)
            if existing is not None:
                conn.close()
                return existing, self._out_locks[dst]
            self._out[dst] = conn
            lock = self._out_locks[dst] = threading.Lock()
        return conn, lock

    def _dial(self, dst: int) -> socket.socket:
        path = self.sock_path(dst)
        deadline = time.monotonic() + self.connect_timeout
        while True:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(path)
                send_frame(sock, ("hello", self.rank))
                return sock
            except OSError as exc:
                sock.close()
                if self._closing:
                    raise CommError(
                        f"rank {self.rank} dialing rank {dst} during "
                        "teardown") from exc
                if time.monotonic() > deadline:
                    raise CommError(
                        f"rank {self.rank} could not reach rank {dst} at "
                        f"{path} within {self.connect_timeout}s: {exc}"
                    ) from exc
                time.sleep(_CONNECT_POLL)

    def _accept_loop(self) -> None:
        lst = self._listener
        while lst is not None and not self._closing:
            try:
                conn, _ = lst.accept()
            except OSError:
                return
            if self._closing:
                conn.close()
                return
            th = threading.Thread(
                target=self._reader_loop, args=(conn,),
                name=f"procfab-reader-r{self.rank}", daemon=True,
            )
            self._readers.append(th)
            th.start()

    def _reader_loop(self, conn: socket.socket) -> None:
        try:
            while True:
                frame = recv_frame(conn)
                if frame is None:
                    return
                src, payload = frame
                if src == "hello":  # the dialer's greeting, not a message
                    continue
                self._deliver(src, payload, self.executor.now())
        except OSError:
            return  # peer closed mid-read during teardown
        except pickle.UnpicklingError:
            if not self._closing:
                raise
        finally:
            conn.close()

    def _deliver(self, src: int, payload: Any, t: float) -> None:
        sink = self._sink
        if sink is None:
            with self._sink_lock:
                if self._sink is None:
                    if not self._had_sink and not self._closing:
                        # Startup race: our modules haven't registered yet;
                        # park the frame for replay at registration.
                        self._pending.append((src, payload, t))
                        return
                    # Late frame during teardown: the protocol layers quiesce
                    # before close, so anything arriving now is a stray ack.
                    self.messages_dropped_at_teardown += 1
                    return
                sink = self._sink
        sink(src, payload, t)

    def __repr__(self) -> str:
        return (f"ProcFabric(rank={self.rank}/{self.nranks}, "
                f"sent={self.messages_sent})")
