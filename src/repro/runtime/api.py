"""User-facing task APIs with the paper's spellings (§II-B4).

``async`` is a Python keyword, so the paper's ``async([]{...})`` is spelled
``async_`` here; everything else keeps its name (``async_at``,
``async_future``, ``async_await``, ``async_future_await``, ``finish``,
``async_copy``, ``forasync``...).

All functions resolve the ambient runtime from the execution context, so
application code reads like the paper's listings:

    def main():
        fut = async_future(lambda: expensive())
        async_await(lambda: consume(fut.value()), fut)
        finish(lambda: forasync(range(n), body))

Coroutine tasks (generator bodies) use ``yield fut`` instead of blocking
waits, and the split ``begin_finish()``/``end_finish()`` pair instead of
``finish``.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.platform.place import Place
from repro.runtime.context import _tls, require_context
from repro.runtime.finish import FinishScope
from repro.runtime.future import Future, Promise, when_all
from repro.runtime.runtime import HiperRuntime
from repro.util.errors import ConfigError, HiperError, RuntimeStateError

__all__ = [
    "async_", "async_at", "async_future", "async_await", "async_future_await",
    "finish", "begin_finish", "end_finish", "forasync", "forasync_future",
    "forasync_chunked", "async_copy", "async_copy_await", "charge", "now",
    "timer_future", "current_runtime", "yield_now",
]

#: Fallback host copy bandwidth when places declare none (bytes/s).
DEFAULT_HOST_COPY_BW = 10e9


def current_runtime() -> HiperRuntime:
    ctx = require_context()
    if ctx.runtime is None:
        raise RuntimeStateError("no runtime bound to the current context")
    return ctx.runtime


def _resolve_rt(runtime: Optional[HiperRuntime]) -> HiperRuntime:
    return runtime if runtime is not None else current_runtime()


def _combine_awaits(
    await_future: Optional[Future], await_futures: Optional[Sequence[Future]]
) -> Optional[Future]:
    futs: List[Future] = []
    if await_future is not None:
        futs.append(await_future)
    if await_futures:
        futs.extend(await_futures)
    if not futs:
        return None
    if len(futs) == 1:
        return futs[0]
    return when_all(futs)


# ----------------------------------------------------------------------
# core spawns
# ----------------------------------------------------------------------
def async_(
    body: Callable[[], Any],
    *,
    name: str = "",
    cost: float = 0.0,
    runtime: Optional[HiperRuntime] = None,
) -> None:
    """Create a task executing ``body`` at the place closest to the current
    worker (paper: ``async([] { body; })``)."""
    if runtime is None:
        # Inlined _resolve_rt: plain async_ is the hottest spawn spelling,
        # so read the ambient context stack directly; fall back to
        # current_runtime() only to raise its descriptive errors.
        stack = _tls.stack
        runtime = stack[-1].runtime if stack else None
        if runtime is None:
            runtime = current_runtime()
    runtime.spawn(body, name=name, cost=cost)


def async_at(
    body: Callable[[], Any],
    place: Place,
    *,
    name: str = "",
    cost: float = 0.0,
    runtime: Optional[HiperRuntime] = None,
) -> None:
    """Create a task executing ``body`` at a specific place."""
    _resolve_rt(runtime).spawn(body, place=place, name=name, cost=cost)


def async_future(
    body: Callable[[], Any],
    *,
    place: Optional[Place] = None,
    name: str = "",
    cost: float = 0.0,
    runtime: Optional[HiperRuntime] = None,
) -> Future:
    """Create a task and return a future satisfied with its return value."""
    fut = _resolve_rt(runtime).spawn(
        body, place=place, name=name, cost=cost, return_future=True
    )
    assert fut is not None
    return fut


def async_await(
    body: Callable[[], Any],
    future: Union[Future, Sequence[Future]],
    *,
    place: Optional[Place] = None,
    name: str = "",
    cost: float = 0.0,
    runtime: Optional[HiperRuntime] = None,
) -> None:
    """Create a task whose execution is predicated on ``future`` (or on all
    of a sequence of futures)."""
    dep = future if isinstance(future, Future) else when_all(list(future))
    _resolve_rt(runtime).spawn(
        body, place=place, name=name, cost=cost, await_future=dep
    )


def async_future_await(
    body: Callable[[], Any],
    future: Union[Future, Sequence[Future]],
    *,
    place: Optional[Place] = None,
    name: str = "",
    cost: float = 0.0,
    runtime: Optional[HiperRuntime] = None,
) -> Future:
    """Combined variant (paper §II-B4): predicated on ``future``, returns a
    future satisfied at completion."""
    dep = future if isinstance(future, Future) else when_all(list(future))
    fut = _resolve_rt(runtime).spawn(
        body, place=place, name=name, cost=cost, await_future=dep,
        return_future=True,
    )
    assert fut is not None
    return fut


# ----------------------------------------------------------------------
# finish scopes
# ----------------------------------------------------------------------
def finish(body: Callable[[], Any], *, name: str = "finish") -> Any:
    """Run ``body``; block until all tasks transitively created inside have
    completed; re-raise their failures. Returns ``body``'s value.

    Must be called from a plain-callable task (coroutine tasks use
    ``begin_finish``/``end_finish``).
    """
    ctx = require_context()
    if ctx.task is None:
        raise RuntimeStateError("finish() must be called from inside a task")
    task = ctx.task
    scope = FinishScope(parent=task.active_scope, name=name,
                        lock_cls=ctx.executor.lock_class)
    task.active_scope = scope
    body_exc: Optional[BaseException] = None
    result = None
    try:
        result = body()
    except BaseException as exc:  # noqa: BLE001 - re-raised after the join
        body_exc = exc
    finally:
        task.active_scope = scope.parent
    scope.close()
    # Join even when the body failed: spawned tasks are not orphaned.
    # The predicate runs once per engine step while joining, so bind the
    # scope's future and read its flag directly (vs. the quiescent property
    # -> Future.satisfied property chain: three calls per step).
    done = scope.all_done_future()
    ctx.executor.block_until(
        lambda: done._satisfied,
        description=f"finish scope {name!r}",
        time_source=done.done_time,
    )
    if body_exc is not None:
        raise body_exc
    scope.raise_collected()
    return result


def begin_finish(name: str = "finish") -> FinishScope:
    """Open a finish scope in a coroutine task. Pair with ``end_finish``."""
    ctx = require_context()
    if ctx.task is None:
        raise RuntimeStateError("begin_finish() must be called from inside a task")
    scope = FinishScope(parent=ctx.task.active_scope, name=name,
                        lock_cls=ctx.executor.lock_class)
    ctx.task.active_scope = scope
    return scope


def end_finish(scope: FinishScope) -> Future:
    """Close a scope opened by ``begin_finish``; returns a future to yield on.

    The future carries the scope's collected task failures (yielding on it
    re-raises them in the coroutine).
    """
    ctx = require_context()
    if ctx.task is None or ctx.task.active_scope is not scope:
        raise RuntimeStateError(
            "end_finish() must be called from the task that opened the scope, "
            "with properly nested scopes"
        )
    ctx.task.active_scope = scope.parent
    scope.close()
    out = Promise(name=f"{scope.name}-join")

    def _joined(_f: Future) -> None:
        try:
            scope.raise_collected()
        except BaseException as exc:
            out.put_exception(exc)
            return
        out.put(None)

    scope.all_done_future().on_ready(_joined)
    return out.get_future()


# ----------------------------------------------------------------------
# parallel loops
# ----------------------------------------------------------------------
def _normalize_domain(domain: Union[int, range]) -> range:
    if isinstance(domain, int):
        if domain < 0:
            raise ConfigError(f"forasync over negative count {domain}")
        return range(domain)
    if isinstance(domain, range):
        return domain
    raise ConfigError(f"forasync domain must be int or range, got {type(domain)!r}")


def forasync_chunked(
    domain: Union[int, range],
    body: Callable[[int, int], Any],
    *,
    chunks: Optional[int] = None,
    place: Optional[Place] = None,
    cost_per_item: float = 0.0,
    name: str = "forasync",
    runtime: Optional[HiperRuntime] = None,
) -> None:
    """Spawn ``body(lo, hi)`` over contiguous index blocks (vectorizable form).

    Registers with the caller's current finish scope — wrap in ``finish`` (or
    use :func:`forasync_future`) to wait.
    """
    rt = _resolve_rt(runtime)
    dom = _normalize_domain(domain)
    n = len(dom)
    if n == 0:
        return
    nchunks = chunks if chunks is not None else min(n, rt.num_workers * 4)
    if nchunks < 1:
        raise ConfigError(f"chunks must be >= 1, got {nchunks}")
    nchunks = min(nchunks, n)
    step = dom.step
    base, extra = divmod(n, nchunks)
    start_idx = 0
    for c in range(nchunks):
        size = base + (1 if c < extra else 0)
        lo = dom.start + start_idx * step
        hi = dom.start + (start_idx + size) * step
        rt.spawn(
            body, (lo, hi), place=place, name=f"{name}[{c}]",
            cost=cost_per_item * size,
        )
        start_idx += size


def forasync(
    domain: Union[int, range],
    body: Callable[[int], Any],
    *,
    chunks: Optional[int] = None,
    place: Optional[Place] = None,
    cost_per_item: float = 0.0,
    name: str = "forasync",
    runtime: Optional[HiperRuntime] = None,
) -> None:
    """Spawn ``body(i)`` for every index in ``domain`` (chunked under the hood)."""
    dom = _normalize_domain(domain)
    step = dom.step

    def _chunk(lo: int, hi: int) -> None:
        for i in range(lo, hi, step):
            body(i)

    forasync_chunked(
        dom, _chunk, chunks=chunks, place=place,
        cost_per_item=cost_per_item, name=name, runtime=runtime,
    )


def forasync_future(
    domain: Union[int, range],
    body: Callable[[int], Any],
    *,
    chunks: Optional[int] = None,
    place: Optional[Place] = None,
    cost_per_item: float = 0.0,
    name: str = "forasync",
    runtime: Optional[HiperRuntime] = None,
) -> Future:
    """Like :func:`forasync` but returns a future satisfied when every
    iteration has completed (paper's ``forasync_future`` in §II-D)."""
    ctx = require_context()
    if ctx.task is None:
        raise RuntimeStateError("forasync_future must be called from inside a task")
    scope = begin_finish(name=f"{name}-scope")
    try:
        forasync(
            domain, body, chunks=chunks, place=place,
            cost_per_item=cost_per_item, name=name, runtime=runtime,
        )
    finally:
        fut = end_finish(scope)
    return fut


# ----------------------------------------------------------------------
# data movement
# ----------------------------------------------------------------------
def _as_byte_view(buf: Any, nbytes: int, role: str) -> np.ndarray:
    if not isinstance(buf, np.ndarray):
        raise ConfigError(
            f"{role} buffer for a host-side async_copy must be a numpy array, "
            f"got {type(buf)!r} (device buffers need their module's copy handler)"
        )
    if not buf.flags["C_CONTIGUOUS"]:
        raise ConfigError(f"{role} buffer must be C-contiguous")
    if buf.dtype == np.uint8 and buf.ndim == 1:
        flat = buf  # already a flat byte view: no re-wrap on the hot path
    else:
        flat = buf.reshape(-1).view(np.uint8)
    if flat.nbytes < nbytes:
        raise ConfigError(
            f"{role} buffer holds {flat.nbytes} bytes but copy needs {nbytes}"
        )
    return flat[:nbytes]


def async_copy(
    dst_buf: Any,
    dst_place: Place,
    src_buf: Any,
    src_place: Place,
    nbytes: int,
    *,
    runtime: Optional[HiperRuntime] = None,
) -> Future:
    """Asynchronously transfer ``nbytes`` from ``src_buf``@``src_place`` to
    ``dst_buf``@``dst_place``; returns a completion future (paper §II-B4).

    Dispatch: if a module registered a copy handler for
    ``(src_place.kind, dst_place.kind)`` — e.g. the CUDA module for GPU
    places (paper §II-C3) — the copy is handed off to it. Otherwise the core
    host-copy path runs: a task at the destination place moves the bytes and
    charges ``nbytes / bandwidth`` per graph hop.
    """
    rt = _resolve_rt(runtime)
    if nbytes < 0:
        raise ConfigError(f"nbytes must be non-negative, got {nbytes}")
    for p, role in ((src_place, "source"), (dst_place, "destination")):
        if p not in rt.model:
            raise ConfigError(f"{role} place {p.name!r} is not in this runtime's model")
        if not p.is_memory:
            raise ConfigError(
                f"{role} place {p.name!r} ({p.kind.value}) is not a memory place"
            )

    handler = rt.copy_handler(src_place.kind, dst_place.kind)
    if handler is not None:
        return handler(rt, dst_buf, dst_place, src_buf, src_place, nbytes)

    hops = max(1, len(rt.model.shortest_path(src_place, dst_place)) - 1)

    def _bw(p: Place) -> float:
        return float(p.properties.get("bandwidth_bytes_per_s", DEFAULT_HOST_COPY_BW))

    seconds = sum(
        nbytes / min(_bw(src_place), _bw(dst_place)) for _ in range(hops)
    )

    def _do_copy() -> None:
        if nbytes:
            dst = _as_byte_view(dst_buf, nbytes, "destination")
            src = _as_byte_view(src_buf, nbytes, "source")
            np.copyto(dst, src)
        charge(seconds)

    fut = rt.spawn(
        _do_copy, place=dst_place, name="async_copy", module="core",
        return_future=True,
    )
    assert fut is not None
    rt.stats.count("core", "async_copy")
    return fut


def async_copy_await(
    dst_buf: Any,
    dst_place: Place,
    src_buf: Any,
    src_place: Place,
    nbytes: int,
    futures: Sequence[Future],
    *,
    runtime: Optional[HiperRuntime] = None,
) -> Future:
    """``async_copy`` predicated on prior futures (paper §II-D listing)."""
    rt = _resolve_rt(runtime)
    dep = _combine_awaits(None, list(futures))
    out = Promise(name="async_copy_await-done")

    def _launch() -> None:
        inner = async_copy(dst_buf, dst_place, src_buf, src_place, nbytes, runtime=rt)
        inner.on_ready(
            lambda f: out.put_exception(_exc_of(f)) if _exc_of(f) else out.put(None)
        )

    if dep is None:
        _launch()
    else:
        # Spawn with a future so a failed dependency lands in OUR promise
        # (not the enclosing finish scope) and the caller sees it on wait.
        launch_fut = rt.spawn(_launch, await_future=dep,
                              name="async_copy_await", return_future=True)

        def _forward_failure(f: Future) -> None:
            exc = _exc_of(f)
            if exc is not None:
                out.put_exception(exc)

        launch_fut.on_ready(_forward_failure)
    return out.get_future()


def _exc_of(fut: Future) -> Optional[BaseException]:
    try:
        fut.value()
        return None
    except BaseException as exc:  # noqa: BLE001
        return exc


# ----------------------------------------------------------------------
# time
# ----------------------------------------------------------------------
def charge(seconds: float) -> None:
    """Account ``seconds`` of simulated compute to the current worker.

    The simulated executor advances the worker's virtual clock; the threaded
    executor ignores it (real work takes real time there). Raises outside a
    task context.
    """
    if seconds < 0:
        raise ConfigError(f"cannot charge negative time {seconds}")
    require_context().executor.charge(seconds)


def now() -> float:
    """Current virtual (sim) or wall (threads) time for the caller."""
    return require_context().executor.now()


def timer_future(delay: float, *, name: str = "timer") -> Future:
    """A future satisfied ``delay`` seconds from now (virtual or wall)."""
    if delay < 0:
        raise ConfigError(f"timer delay must be non-negative, got {delay}")
    ctx = require_context()
    p = Promise(name=name)
    ctx.executor.call_later(delay, lambda: p.put(None))
    return p.get_future()


def yield_now() -> None:
    """Plain-callable cooperative yield: run other ready work, then return.

    In a coroutine task, prefer ``yield None``.
    """
    ctx = require_context()
    # block_until probes the predicate once before looping and once per
    # round; stay False through both initial probes so exactly one
    # scheduling step runs.
    calls = [0]

    def _after_one_round() -> bool:
        calls[0] += 1
        return calls[0] > 2

    try:
        ctx.executor.block_until(_after_one_round, description="yield_now")
    except HiperError:
        # Nothing else to run — that's fine for a cooperative yield.
        pass
