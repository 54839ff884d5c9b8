"""Promises and futures (paper §II-B4).

A future is a single-assignment, thread-safe container for a value, read
only; a promise is the write handle on it. Futures are the framework's only
inter-task synchronization primitive besides ``finish``: tasks may block on
them (``wait``/``get``) or predicate new tasks on them (``async_await``).

Implementation notes
--------------------
- The state lives in :class:`Future` and nothing points back to the
  :class:`Promise`: no cycle, so a future is freed by reference count (each
  communication operation makes one; docs/sim-internals.md "Allocation budget").
- One leaf lock for the whole module guards resolution's check-and-set and
  the callback list; nothing is acquired while it is held. A forked child
  gets a fresh one: a thread that held it at the fork does not exist there.
- ``put`` runs registered callbacks *outside* the lock, in registration
  order, exactly once each. The callback list is allocated by the first
  ``on_ready`` and dropped at resolution.
- A promise may be satisfied with an exception (``put_exception``); ``get``
  then re-raises it in every consumer. This is how task failures propagate
  through ``async_future``.
- ``put`` records the *virtual timestamp* of satisfaction when called inside
  an executor context, which the simulated executor uses to advance a blocked
  worker's clock to the satisfaction time.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable, List, Optional, Sequence

from repro.runtime import instrument
from repro.runtime.context import current_context, require_context
from repro.util.errors import PromiseError

_UNSET = object()


def _new_lock() -> None:
    global _lock
    _lock = threading.Lock()


_new_lock()
os.register_at_fork(after_in_child=_new_lock)  # see the notes above


class Future:
    """Single-assignment value container, read side. Made by (and written
    through) a :class:`Promise`; there is no ``put`` here."""

    __slots__ = ("_value", "_exception", "_satisfied", "_callbacks",
                 "_put_time", "name")

    def __init__(self, name: str = ""):
        self._value: Any = _UNSET
        self._exception: Optional[BaseException] = None
        self._satisfied = False
        self._callbacks: Optional[List[Callable[["Future"], None]]] = None
        self._put_time: float = 0.0
        self.name = name

    def _resolve(self, value: Any, exc: Optional[BaseException]) -> None:
        ctx = current_context()
        now = ctx.executor.now() if ctx is not None else 0.0
        with _lock:
            if self._satisfied:
                raise PromiseError(
                    f"promise {self.name or id(self)} satisfied twice "
                    "(promises are single-assignment)"
                )
            self._value = value
            self._exception = exc
            self._put_time = now
            self._satisfied = True
            callbacks, self._callbacks = self._callbacks, None
        p = instrument.PROBE
        if p is not None:
            # Happens-before source: everything the producer did is ordered
            # before any consumer that observes satisfaction.
            p.on_sync_release(("promise", id(self)))
        if callbacks is not None:
            for cb in callbacks:
                cb(self)

    def _remove_callback(self, cb: Callable[["Future"], None]) -> bool:
        """Detach a registered callback; returns whether it was present.

        Used by combinators (``when_any``'s losers, ``when_all``'s
        fail-fast) to drop dead continuations from long-lived futures —
        a future that outlives many combinator rounds must not
        accumulate callbacks that can never fire again.
        """
        with _lock:
            present = self._callbacks is not None and cb in self._callbacks
            if present:
                self._callbacks.remove(cb)
            return present

    @property
    def satisfied(self) -> bool:
        return self._satisfied

    def value(self) -> Any:
        """The satisfied value; raises if unsatisfied or satisfied with error."""
        if not self._satisfied:
            raise PromiseError(
                f"future {self.name or hex(id(self))} read before satisfaction; "
                "call wait()/get() from a task instead"
            )
        if self._exception is not None:
            raise self._exception
        return self._value

    def on_ready(self, cb: Callable[["Future"], None]) -> None:
        """Run ``cb(self)`` when satisfied (immediately if already). Internal
        building block for continuations and ``async_await``."""
        with _lock:
            if not self._satisfied:
                if self._callbacks is None:
                    self._callbacks = [cb]
                else:
                    self._callbacks.append(cb)
                return
        cb(self)

    def wait(self) -> Any:
        """Block the calling task until satisfied; return the value.

        Never blocks the underlying worker: the executor runs other ready
        tasks (help-until-ready) or parks until the satisfying event. This is
        the reproduction's analogue of the paper's call-stack suspension.
        """
        if not self._satisfied:
            ctx = require_context()
            ctx.executor.block_until(
                lambda: self._satisfied,
                description=f"future {self.name or hex(id(self))}",
                time_source=lambda: self._put_time,
            )
        probe = instrument.PROBE
        if probe is not None:
            probe.on_sync_acquire(("promise", id(self)))
        return self.value()

    def get(self) -> Any:
        """Paper spelling: ``f->get()`` — wait then fetch."""
        return self.wait()

    def then(self, fn: Callable[[Any], Any], name: str = "then") -> "Future":
        """UPC++-style chaining: a future of ``fn(value)``, applied when this
        future is satisfied. Exceptions — from this future or from ``fn`` —
        propagate into the returned future."""
        out = Promise(name=name)

        def _apply(f: "Future") -> None:
            try:
                out.put(fn(f.value()))
            except BaseException as exc:  # noqa: BLE001
                out.put_exception(exc)

        self.on_ready(_apply)
        return out.get_future()

    def done_time(self) -> float:
        """Virtual time at which the promise was satisfied (sim executor)."""
        if not self._satisfied:
            raise PromiseError("done_time() on an unsatisfied future")
        return self._put_time

    def __repr__(self) -> str:
        state = "satisfied" if self._satisfied else "pending"
        return f"Future({self.name or hex(id(self))}, {state})"


class Promise:
    """Write handle on a :class:`Future`: the only way to satisfy it."""

    __slots__ = ("_future",)

    def __init__(self, name: str = ""):
        self._future = Future(name)

    def put(self, value: Any = None) -> None:
        """Satisfy the promise. A second put raises :class:`PromiseError`."""
        self._future._resolve(value, None)

    def put_none(self, _arg: Any = None) -> None:
        """``put(None)`` shaped as a one-argument completion hook: this bound
        method is one object where ``lambda t: p.put(None)`` is three."""
        self._future._resolve(None, None)

    def put_exception(self, exc: BaseException) -> None:
        """Satisfy the promise with a failure; consumers re-raise on ``get``."""
        if not isinstance(exc, BaseException):
            raise TypeError("put_exception expects an exception instance")
        self._future._resolve(_UNSET, exc)

    def get_future(self) -> Future:
        return self._future

    @property
    def satisfied(self) -> bool:
        return self._future._satisfied

    def __repr__(self) -> str:
        state = "satisfied" if self._future._satisfied else "pending"
        return f"Promise({self._future.name or hex(id(self))}, {state})"


def satisfied_future(value: Any = None, name: str = "") -> Future:
    """A future that is already satisfied (handy for uniform APIs)."""
    f = Future(name)
    with _lock:
        f._value = value
        f._satisfied = True
    return f


def after(dep: Future, issue: Callable[[], Future],
          name: str = "after") -> Future:
    """A future of what ``issue()``'s future carries, ``issue`` being
    called once ``dep`` is satisfied: an operation issued on a dependency
    (the paper's ``MPI_Isend_await``). If ``dep`` fails, ``issue`` is never
    called and the failure propagates; so does an exception from ``issue``.
    """
    out = Future(name)

    def _forward(f: Future) -> None:
        out._resolve(f._value, f._exception)

    def _issue(f: Future) -> None:
        if f._exception is None:
            try:
                f = issue()
            except BaseException as exc:  # noqa: BLE001
                out._resolve(_UNSET, exc)
                return
        f.on_ready(_forward)

    dep.on_ready(_issue)
    return out


def when_all(futures: Sequence[Future], name: str = "when_all") -> Future:
    """A future satisfied when *all* inputs are, with the list of values.

    Fails fast: the first input to carry an exception (in completion order)
    fails the combined future immediately, exactly once — without it, one
    failed input plus one never-satisfied input would deadlock every waiter.
    """
    futures = list(futures)
    out = Promise(name)
    if not futures:
        out.put([])
        return out.get_future()
    remaining = [len(futures)]
    fired = [False]
    lock = threading.Lock()

    def _one_done(f: Future) -> None:
        exc = f._exception
        with lock:
            if fired[0]:
                return
            remaining[0] -= 1
            fire = exc is not None or remaining[0] == 0
            if fire:
                fired[0] = True
        if not fire:
            return
        if exc is not None:
            out.put_exception(exc)
            # Fail-fast fired with inputs still pending: detach from them,
            # or a long-lived unsatisfied input would pin this closure (and
            # every value reachable from `futures`) for its whole lifetime.
            for g in futures:
                g._remove_callback(_one_done)
            return
        try:
            out.put([g.value() for g in futures])
        except BaseException as e:  # pragma: no cover - inputs all clean here
            out.put_exception(e)

    for f in futures:
        f.on_ready(_one_done)
    return out.get_future()


def when_any(futures: Sequence[Future], name: str = "when_any") -> Future:
    """A future satisfied when *any* input is, with ``(index, value)``.

    The winner detaches the losers' callbacks: a long-lived input (a warm
    pool's shutdown future, a shared timer) raced against per-job futures
    must not accumulate one dead callback per race for the daemon's
    lifetime.
    """
    futures = list(futures)
    if not futures:
        raise PromiseError("when_any requires at least one future")
    out = Promise(name)
    lock = threading.Lock()
    fired = [False]
    registered: List[tuple] = []

    def _make(i: int) -> Callable[[Future], None]:
        def _cb(f: Future) -> None:
            with lock:
                if fired[0]:
                    return
                fired[0] = True
            try:
                out.put((i, f.value()))
            except BaseException as exc:
                out.put_exception(exc)
            for j, (g, cb) in enumerate(registered):
                if j != i:
                    g._remove_callback(cb)

        return _cb

    for i, f in enumerate(futures):
        registered.append((f, _make(i)))
    for f, cb in registered:
        f.on_ready(cb)
    if fired[0]:
        # The winner fired while we were still registering: sweep every
        # callback (removing the winner's is a no-op — resolution already
        # drained its list).
        for g, cb in registered:
            g._remove_callback(cb)
    return out.get_future()
