"""One-sided (RDMA-style) operations over the fabric: the library layer the
OpenSHMEM module taskifies.

Remote puts, gets, and atomics are applied *in the delivery event* at the
target — no target-side task is scheduled, mirroring NIC-executed RDMA.
Atomicity of AMOs holds because the simulated executor runs events one at a
time.

Completion semantics follow the spec:

- ``put`` completes locally at injection (source buffer reusable); its
  *remote* completion is tracked for ``quiet``/``fence``.
- ``get`` and fetching AMOs are round trips (request + response messages).
- ``quiet`` completes when every previously-issued put/AMO from this PE has
  been applied at its target. The target acknowledges by one rule
  (:meth:`ShmemBackend._ack_completion`): an origin found in this process's
  backend registry is told directly, any other gets a ``("comp",)`` message
  over the fabric. When one process holds every PE (sim, threads) all of
  them are in the registry and no ack touches the wire; when the run spans
  processes, acks to PEs of another process are messages like any other —
  sent over the socket under procs, where a process holds one PE, and
  priced by the cost model where a simulator process holds several.

Local-memory watchers implement ``wait_until`` and the paper's novel
``shmem_async_when`` (§II-C2): every remote update to a symmetric array
re-evaluates the watchers registered against it, satisfying their promises
from event context — the condition "polling" the paper offloads to the
runtime collapses to event-driven checks in virtual time.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.net.coalesce import CoalescePolicy
from repro.net.mux import FabricMux
from repro.runtime.context import current_context
from repro.runtime.future import Future, Promise
from repro.shmem.heap import SymArray, SymmetricHeap
from repro.util.bufpool import BufferPool, release_if_pooled
from repro.util.errors import ShmemError

_CHANNEL = "shmem"

#: Comparison operators for wait_until / async_when (OpenSHMEM SHMEM_CMP_*).
CMP_OPS: Dict[str, Callable[[Any, Any], bool]] = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
}

_AMO_SIZE = 48     # wire size of an atomic op request
_CTRL_SIZE = 32    # wire size of a get request header


class ShmemBackend:
    """Per-PE one-sided engine. The PEs of one process see each other
    through the run's shared registry ``peers`` (in-process simulation of a
    PGAS fabric); PEs elsewhere are reached over the fabric alone."""

    def __init__(
        self,
        mux: FabricMux,
        rank: int,
        heap: SymmetricHeap,
        peers: Dict[int, "ShmemBackend"],
        *,
        stats=None,
    ):
        self.mux = mux
        self.rank = rank
        self.nranks = mux.nranks
        self.heap = heap
        #: Optional RuntimeStats for op-level accounting (defaults to the
        #: mux's attached stats, so SPMD runs get it automatically).
        self.stats = stats if stats is not None else mux.stats
        self._peers = peers
        peers[rank] = self
        self._req_seq = itertools.count()
        self._pending_resp: Dict[int, Promise] = {}
        # Outstanding remote completions (for quiet/fence).
        self._outstanding = 0
        self._quiet_waiters: List[Promise] = []
        # Local-memory watchers: sym_id -> list of (probe, promise).
        self._watchers: Dict[int, List[Tuple[Callable[[], bool], Promise]]] = {}
        # Guards _outstanding/_quiet_waiters/_watchers: on real backends the
        # delivery path runs on a different OS thread than the issue path.
        # The executor's pluggable lock keeps the sim hot path lock-free
        # (NullLock) while the threaded/multiprocess engines get real mutual
        # exclusion. Promises are always fired OUTSIDE the lock.
        self._lock = mux.fabric.executor.lock_class()
        self.puts = 0
        self.gets = 0
        self.amos = 0
        #: Recycles put-snapshot buffers (timing-neutral; wall-clock only).
        self.pool = BufferPool(stats=self.stats, module=_CHANNEL)
        mux.register_channel(_CHANNEL, self._on_delivery)

    def _count(self, op: str, n: int = 1) -> None:
        if self.stats is not None:
            self.stats.count(_CHANNEL, op, n)

    def enable_coalescing(self, policy: Optional[CoalescePolicy] = None) -> None:
        """Batch small puts/AMOs per destination PE into coalesced envelopes
        (see :mod:`repro.net.coalesce`). Opt-in: virtual-time schedules
        change. :meth:`quiet` flushes pending buffers, so ordering points
        behave exactly as without coalescing."""
        self.mux.enable_coalescing(_CHANNEL, policy)

    def snapshot(self, data: np.ndarray) -> np.ndarray:
        """Pool-backed copy of ``data`` for callers that snapshot a put
        payload themselves (then pass ``copy=False`` to :meth:`put`)."""
        return self.pool.take_copy(np.asarray(data))

    def enable_retries(self, policy) -> None:
        """Retransmit dropped/corrupted SHMEM messages per ``policy`` (a
        :class:`repro.resilience.RetryPolicy`). Safe under quiet/fence
        epochs: ``_outstanding`` only drains when a remote completion
        arrives, so a retried put still completes before quiet returns."""
        self.mux.set_retry_policy(_CHANNEL, policy)

    # ------------------------------------------------------------------
    # puts
    # ------------------------------------------------------------------
    def put(self, target: SymArray, data: Any, pe: int, offset: int = 0,
            *, nbytes: Optional[int] = None, copy: bool = True) -> Future:
        """Store ``data`` into PE ``pe``'s copy of ``target`` at ``offset``.

        Returns the *local completion* future (buffer reusable). Remote
        completion is observable via :meth:`quiet`. ``nbytes`` overrides the
        wire size (shape-preserving workload scaling, DESIGN.md §2).
        ``copy=False`` skips the send-side snapshot for callers that already
        own an immutable copy (e.g. one made via :meth:`snapshot`), avoiding
        a double copy on the module's async path.
        """
        self._check_pe(pe)
        if not isinstance(data, np.ndarray):
            # asarray would also strip a PooledArray snapshot down to a plain
            # ndarray view, losing its release() — convert only non-arrays.
            data = np.asarray(data)
        self._check_bounds(target, offset, data.size, pe)
        with self._lock:
            self._outstanding += 1
        done = Promise(name="shmem-put")
        wire_data = self.pool.take_copy(data) if copy else data
        payload = ("put", target.sym_id, offset, wire_data, self.rank)
        self.mux.charge_send()
        wire = int(data.nbytes) if nbytes is None else int(nbytes)
        try:
            self.mux.transmit(pe, _CHANNEL, payload, wire + _CTRL_SIZE,
                              on_injected=done.put_none)
        except Exception:
            # Refused, so nothing will acknowledge it: take _outstanding
            # back, or quiet() hangs. (It is raised before the send because
            # across processes the acknowledgement can beat the send's return.)
            self._remote_completed()
            release_if_pooled(wire_data)
            raise
        self.puts += 1
        self._count("puts")
        return done.get_future()

    # ------------------------------------------------------------------
    # gets
    # ------------------------------------------------------------------
    def get(self, source: SymArray, pe: int, offset: int = 0,
            count: Optional[int] = None) -> Future:
        """Fetch ``count`` elements of PE ``pe``'s copy of ``source``;
        future carries the numpy array."""
        self._check_pe(pe)
        n = source.size - offset if count is None else count
        self._check_bounds(source, offset, n, pe)
        req_id = next(self._req_seq)
        done = Promise(name=f"get-{source.sym_id}@{pe}")
        self._pending_resp[req_id] = done
        self.mux.charge_send()
        payload = ("get", source.sym_id, offset, n, self.rank, req_id)
        try:
            self.mux.transmit(pe, _CHANNEL, payload, _CTRL_SIZE)
        except Exception:
            del self._pending_resp[req_id]  # refused: no response will come
            raise
        self.gets += 1
        self._count("gets")
        return done.get_future()

    # ------------------------------------------------------------------
    # atomics
    # ------------------------------------------------------------------
    def amo(self, op: str, target: SymArray, index: int, pe: int,
            operand: Any = None, cond: Any = None, fetch: bool = True) -> Future:
        """Atomic memory operation at PE ``pe``.

        ``op`` in {"add", "inc", "swap", "cswap", "set"}; fetching variants
        return the OLD value. Non-fetching ops return a local-completion
        future and count toward ``quiet``.
        """
        if op not in ("add", "inc", "swap", "cswap", "set"):
            raise ShmemError(f"unknown atomic op {op!r}")
        self._check_pe(pe)
        self._check_bounds(target, index, 1, pe)
        done = Promise(name=f"amo-{op}-{target.sym_id}@{pe}")
        self.mux.charge_send()
        if fetch:
            req_id = next(self._req_seq)
            self._pending_resp[req_id] = done
        else:
            req_id = None
            with self._lock:
                self._outstanding += 1
        payload = ("amo", op, target.sym_id, index, operand, cond,
                   self.rank, req_id)
        try:
            self.mux.transmit(pe, _CHANNEL, payload, _AMO_SIZE,
                              on_injected=None if fetch else done.put_none)
        except Exception:  # refused: as in put()
            self._pending_resp.pop(req_id, None)  # no slot when not fetching
            if not fetch:
                self._remote_completed()
            raise
        self.amos += 1
        self._count("amos")
        return done.get_future()

    def wave_capable(self) -> bool:
        """True when this PE's AMO/put path can take the vectorized wave
        route (no coalescer on the shmem channel, wave-pricing fabric, no
        fault injection)."""
        return self.mux.wave_capable(_CHANNEL)

    def amo_fetch_wave(self, op: str, target: SymArray, index: int,
                       pes: List[int], operands: List[Any]) -> List[Future]:
        """Issue one *fetching* AMO per ``(pes[i], operands[i])`` pair, priced
        as a single fabric wave.

        Bit-for-bit identical to the equivalent loop of :meth:`amo` calls
        with ``fetch=True`` — same per-op CPU charges (and therefore the
        same post-charge issue timestamps), request ids, promises, payloads,
        and delivery events in the same order. Callers must check
        :meth:`wave_capable` first and fall back to the scalar loop.
        """
        if op not in ("add", "inc", "swap", "cswap", "set"):
            raise ShmemError(f"unknown atomic op {op!r}")
        n = len(pes)
        if len(operands) != n:
            raise ShmemError(
                f"amo wave length mismatch: {n} PEs, {len(operands)} operands")
        for pe in pes:
            self._check_pe(pe)
            self._check_bounds(target, index, 1, pe)
        ts = self._charge_cpu_wave(n)
        sym_id = target.sym_id
        rank = self.rank
        pending = self._pending_resp
        req_seq = self._req_seq
        futures: List[Future] = []
        payloads: List[Tuple] = []
        for pe, operand in zip(pes, operands):
            done = Promise(name=f"amo-{op}-{sym_id}@{pe}")
            req_id = next(req_seq)
            pending[req_id] = done
            payloads.append(("amo", op, sym_id, index, operand, None,
                             rank, req_id))
            futures.append(done.get_future())
        try:
            self.mux.transmit_wave(pes, _CHANNEL, payloads, _AMO_SIZE, ts=ts)
        except Exception:  # a wave is refused whole: no response will come
            for payload in payloads:
                del pending[payload[-1]]
            raise
        self.amos += n
        self._count("amos", n)
        return futures

    # ------------------------------------------------------------------
    # ordering
    # ------------------------------------------------------------------
    def quiet(self) -> Future:
        """Future satisfied when all previously-issued puts/AMOs from this PE
        have completed remotely."""
        # Ordering point: push any coalesced buffers onto the wire now rather
        # than waiting out their flush timeout. ``_outstanding`` was counted
        # at issue time, so quiet cannot return before buffered ops land.
        self.mux.flush(_CHANNEL)
        done = Promise(name=f"quiet-pe{self.rank}")
        with self._lock:
            ready = self._outstanding == 0
            if not ready:
                self._quiet_waiters.append(done)
        if ready:
            done.put(None)
        return done.get_future()

    @property
    def outstanding_remote(self) -> int:
        return self._outstanding

    # ------------------------------------------------------------------
    # local-memory watchers (wait_until / shmem_async_when)
    # ------------------------------------------------------------------
    def watch(self, sym: SymArray, index: int, cmp: str, value: Any) -> Future:
        """Future satisfied when ``sym[index] <cmp> value`` holds on this PE.

        Checked immediately, then re-checked after every remote update that
        touches ``sym``. Local stores by this PE's own tasks should go
        through :meth:`local_update` to trigger re-checks.
        """
        try:
            cmp_fn = CMP_OPS[cmp]
        except KeyError:
            raise ShmemError(
                f"unknown comparison {cmp!r}; expected one of {sorted(CMP_OPS)}"
            ) from None
        arr = self.heap.flat(sym.sym_id)
        if not (0 <= index < arr.size):
            raise ShmemError(f"watch index {index} out of bounds for {sym}")
        done = Promise(name=f"wait_until-{sym.sym_id}[{index}]")

        def probe() -> bool:
            return bool(cmp_fn(arr[index], value))

        # Probe + register atomically: a delivery that lands between an
        # unlocked probe and the append would never re-check this watcher
        # (missed wakeup). Holding the lock, either we see the write, or the
        # delivery's _check_watchers (serialized after us) sees our entry.
        with self._lock:
            fire = probe()
            if not fire:
                self._watchers.setdefault(sym.sym_id, []).append((probe, done))
        if fire:
            done.put(None)
        return done.get_future()

    def local_update(self, sym: SymArray, index, value) -> None:
        """Store into local symmetric memory and re-evaluate watchers."""
        arr = self.heap.resolve(sym.sym_id)
        arr[index] = value
        self._check_watchers(sym.sym_id)

    def _check_watchers(self, sym_id: int) -> None:
        fire = []
        with self._lock:
            watchers = self._watchers.get(sym_id)
            if not watchers:
                return
            still = []
            for probe, promise in watchers:
                if probe():
                    fire.append(promise)
                else:
                    still.append((probe, promise))
            if still:
                self._watchers[sym_id] = still
            else:
                self._watchers.pop(sym_id, None)
        for promise in fire:
            promise.put(None)

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------
    def _on_delivery(self, src: int, payload: Tuple, time: float) -> None:
        kind = payload[0]
        if kind == "put":
            _, sym_id, offset, data, origin = payload
            arr = self.heap.flat(sym_id)
            arr[offset : offset + data.size] = (
                data if data.ndim == 1 else data.reshape(-1))
            release_if_pooled(data)  # applied; recycle the snapshot storage
            self._ack_completion(origin)
            self._check_watchers(sym_id)
        elif kind == "get":
            _, sym_id, offset, n, origin, req_id = payload
            arr = self.heap.flat(sym_id)
            data = arr[offset : offset + n].copy()
            self.mux.transmit(
                origin, _CHANNEL, ("resp", req_id, data),
                int(data.nbytes) + _CTRL_SIZE,
            )
        elif kind == "amo":
            _, op, sym_id, index, operand, cond, origin, req_id = payload
            arr = self.heap.flat(sym_id)
            old = arr[index].item()
            if op == "add":
                arr[index] = old + operand
            elif op == "inc":
                arr[index] = old + 1
            elif op == "swap" or op == "set":
                arr[index] = operand
            elif op == "cswap":
                if old == cond:
                    arr[index] = operand
            if req_id is not None:
                self.mux.transmit(origin, _CHANNEL, ("resp", req_id, old), _AMO_SIZE)
            else:
                self._ack_completion(origin)
            self._check_watchers(sym_id)
        elif kind == "resp":
            _, req_id, value = payload
            promise = self._pending_resp.pop(req_id)
            promise.put(value)
        elif kind == "comp":
            # Remote-completion acknowledgement from a target PE outside
            # this process (see _ack_completion).
            self._remote_completed()
        else:  # pragma: no cover - protocol corruption
            raise ShmemError(f"unknown shmem wire message kind {kind!r}")

    def _ack_completion(self, origin: int) -> None:
        """Tell ``origin`` that its put/AMO has been applied here: directly
        when its backend is in this process's registry, else by a
        ``("comp",)`` message (module docstring, "Completion semantics")."""
        peer = self._peers.get(origin)
        if peer is not None:
            peer._remote_completed()
        else:
            self.mux.transmit(origin, _CHANNEL, ("comp",), _CTRL_SIZE)

    def _remote_completed(self) -> None:
        fire: List[Promise] = []
        with self._lock:
            self._outstanding -= 1
            if self._outstanding == 0 and self._quiet_waiters:
                fire, self._quiet_waiters = self._quiet_waiters, []
        for p in fire:
            p.put(None)

    # ------------------------------------------------------------------
    def _check_pe(self, pe: int) -> None:
        if not (0 <= pe < self.nranks):
            raise ShmemError(f"PE {pe} out of range [0, {self.nranks})")

    def _check_bounds(self, sym: SymArray, offset: int, count: int, pe: int) -> None:
        if offset < 0 or count < 0 or offset + count > sym.size:
            raise ShmemError(
                f"range [{offset}, {offset + count}) out of bounds for "
                f"{sym} targeting PE {pe}"
            )

    def _charge_cpu_wave(self, n: int) -> List[float]:
        """Charge ``n`` per-message CPU overheads and return the ``n``
        post-charge clock values — the issue timestamps a loop of
        ``mux.charge_send()`` + transmit pairs would have produced. The clock
        advances by the same left-fold of additions the scalar loop
        performs, so the timestamps (and the final clock) are bit-exact.
        Outside a worker context charges are skipped, as in
        ``charge_send``, and ``now()`` is returned for every slot."""
        ctx = current_context()
        if ctx is None or ctx.worker is None:
            return [self.mux.fabric.executor.now()] * n
        ov = self.mux.fabric.cpu_send_overhead()
        worker = ctx.worker
        runtime = ctx.runtime
        stats = runtime.stats if runtime is not None else None
        clock = worker.clock
        ts: List[float] = []
        append = ts.append
        for _ in range(n):
            clock = clock + ov
            append(clock)
            if stats is not None:
                stats.worker_activity(worker.wid, busy=ov)
        worker.clock = clock
        return ts

    def __repr__(self) -> str:
        return (
            f"ShmemBackend(pe={self.rank}/{self.nranks}, puts={self.puts}, "
            f"gets={self.gets}, amos={self.amos}, outstanding={self._outstanding})"
        )

