"""Pluggable software modules (paper §II-C).

A complete HiPER module provides:

1. an initialization function called once per process (here: per runtime) —
   :meth:`HiperModule.initialize`;
2. a finalization function — :meth:`HiperModule.finalize`;
3. optional special-purpose registrations (e.g. copy handlers for certain
   place types) — performed inside ``initialize`` via
   ``runtime.register_copy_handler``;
4. user-facing functions added to the global HiPER namespace — performed via
   :meth:`HiperModule.export`, which populates ``runtime.ops``.

Modules are *not* part of the core runtime and need no core changes: the
MPI/OpenSHMEM/UPC++/CUDA modules in :mod:`repro.mpi` etc. are ordinary
subclasses. Third-party code can subclass :class:`HiperModule` the same way.

The base class writes once what the paper's modules share (§II-C1: "the
CUDA Module uses the same polling technique as the MPI Module"):

- :meth:`~HiperModule.taskify` — the taskify flow: spawn a coroutine at
  :attr:`~HiperModule.place`, count it, return its completion future;
- :meth:`~HiperModule.collective` — taskify a collective algorithm with a
  backend's next collective tag;
- :meth:`~HiperModule.start_polling` and :meth:`~HiperModule.poll` — the
  polling flow: one :class:`PollingService` per module, and an operation's
  ``test()``/``value`` paired with a promise on it;
- :meth:`~HiperModule.finalize` — refuses to finish with polled operations
  outstanding, raising the module's :attr:`~HiperModule.error`;
- :meth:`~HiperModule.funnel` — the ``MPI_THREAD_FUNNELED`` analogue;
- :class:`NotInitialized` — what state that ``initialize`` creates holds
  before it runs: any use raises ``ModuleError``.

Chaining one operation after a future is :func:`repro.runtime.future.after`.
"""

from __future__ import annotations

import abc
from collections import defaultdict
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Type

from repro.platform.place import Place, PlaceType
from repro.runtime.future import Future, Promise
from repro.runtime.polling import PollingService
from repro.util.errors import ModuleError

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.runtime import HiperRuntime


class NotInitialized:
    """What a module's runtime-bound state holds until ``initialize`` sets
    it: any attribute or item read raises ``ModuleError``, so a call made
    before initialization fails by name at no cost to calls made after."""

    __slots__ = ("module",)

    def __init__(self, module: str):
        self.module = module

    def __getattr__(self, attr: str):
        raise ModuleError(f"{self.module} module used before initialization")

    __getitem__ = __getattr__


class HiperModule(abc.ABC):
    """Base class for pluggable modules.

    Subclasses set :attr:`name` (unique per runtime) and implement
    ``initialize``; ``finalize`` defaults to the outstanding-operation check.
    ``initialize`` should assert its platform-model requirements (paper: "It
    is up to individual modules to make these assertions ... during module
    initialization").
    """

    #: Unique module name; also the stats attribution key.
    name: str = ""

    #: Capability tags for inter-module discovery (paper §IV future
    #: direction: "allow registered modules to query for other modules which
    #: they can integrate with"). Query via ``runtime.query_modules(tag)``.
    capabilities: frozenset = frozenset()

    #: What :meth:`finalize` raises when polled operations are outstanding.
    error: Type[Exception] = ModuleError

    #: Flat mode: no funneling, :meth:`taskify` runs at the caller's place.
    direct: bool = False

    #: Where :meth:`taskify` spawns; None is the caller's own place.
    place: Optional[Place] = None

    #: The module's poller, once :meth:`start_polling` built it.
    polling: Optional[PollingService] = None

    def __init__(self):
        if not self.name:
            raise ModuleError(
                f"{type(self).__name__} must define a non-empty class attribute 'name'"
            )
        self.runtime: "HiperRuntime" = NotInitialized(self.name)
        #: Operations issued, by name: the ``<name>.<op>`` counters, which
        #: the runtime's stats read through :meth:`collect_counts`.
        self.op_counts: Dict[str, int] = defaultdict(int)

    @abc.abstractmethod
    def initialize(self, runtime: "HiperRuntime") -> None:
        """Called once when the module is installed on a runtime."""

    def finalize(self, runtime: "HiperRuntime") -> None:
        """Called once at runtime shutdown, in reverse install order; refuses
        to finish with polled operations outstanding."""
        outstanding = self.polling.outstanding if self.polling is not None else 0
        if outstanding:
            raise self.error(
                f"{self.name} module finalized with {outstanding} outstanding "
                "asynchronous operations"
            )

    def collect_counts(self, counters: Dict, histograms: Dict) -> None:
        """The stats collector :meth:`HiperRuntime.install` registers."""
        for op, n in self.op_counts.items():
            counters[(self.name, op)] += n

    # -- helpers for subclasses ----------------------------------------
    def export(self, runtime: "HiperRuntime", fn_name: str, fn: Callable) -> None:
        """Add a user-facing function to the global HiPER namespace
        (``runtime.ops``), refusing to clobber another module's export."""
        if hasattr(runtime.ops, fn_name):
            raise ModuleError(
                f"module {self.name!r} cannot export {fn_name!r}: name already "
                "present in the runtime namespace"
            )
        setattr(runtime.ops, fn_name, fn)

    def require_place_type(self, runtime: "HiperRuntime", kind) -> None:
        if not runtime.model.has_type(kind):
            raise ModuleError(
                f"module {self.name!r} requires a place of type {kind.value} "
                f"in the platform model {runtime.model.name!r}"
            )

    def funnel(self, runtime: "HiperRuntime") -> None:
        """Make :meth:`taskify` run at the Interconnect place, which exactly
        one worker's pop and steal paths must cover (the analogue of
        ``MPI_THREAD_FUNNELED``). Under :attr:`direct` nothing is funneled."""
        self.require_place_type(runtime, PlaceType.INTERCONNECT)
        if self.direct:
            return
        owners = runtime.paths.workers_covering(runtime.interconnect)
        if len(owners) != 1:
            raise ModuleError(
                f"{self.name} module requires the Interconnect place on "
                "exactly one worker's pop and steal paths (THREAD_FUNNELED); "
                f"found {len(owners)} covering workers — choose a path policy "
                "accordingly"
            )
        self.place = runtime.interconnect

    # -- the paper's two completion flows (§II-C1) ---------------------
    def taskify(self, what: str, fn: Callable[..., Any], *args: Any) -> Future:
        """Taskify flow: spawn ``fn(*args)`` — typically a coroutine that
        suspends on backend futures — at :attr:`place` as task
        ``"<name>-<what>"``, count ``what``, and return its future."""
        rt = self.runtime
        fut = rt.spawn(fn, args, place=self.place, module=self.name,
                       name=f"{self.name}-{what}", return_future=True)
        self.op_counts[what] += 1
        return fut

    def collective(self, what: str, algo: Callable[..., Any], ctl,
                   *args: Any) -> Future:
        """Taskify ``algo(ctl, *args, tag)`` with ``ctl``'s next collective
        tag: one participating task per rank."""
        return self.taskify(what, algo, ctl, *args, ctl.next_collective_tag())

    def start_polling(self, runtime: "HiperRuntime", place: Place, *,
                      prefix: str = "", **options: Any) -> None:
        """Build :attr:`polling` at ``place``; ``options`` are
        :class:`PollingService` keywords. The service is named
        ``"<prefix>-poll"`` and :meth:`poll`'s promises ``"<prefix>-<what>"``
        (``prefix`` defaults to the module name). Point the backend's
        completion hook at ``self.polling.kick``."""
        self._prefix = prefix or self.name
        self.polling = PollingService(runtime, place, module=self.name,
                                      name=f"{self._prefix}-poll", **options)

    def poll(self, op: Any, what: str) -> Future:
        """Polling flow: pair ``op`` (anything with ``test()`` and
        ``value``) with a promise that :attr:`polling` satisfies once
        ``op.test()`` holds; count ``what`` and return the future."""
        promise = Promise(name=f"{self._prefix}-{what}")
        self.polling.watch(
            lambda: (True, op.value) if op.test() else (False, None), promise
        )
        self.op_counts[what] += 1
        return promise.get_future()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"


#: Registry of module classes by name, for config-file-driven installs.
_MODULE_CLASSES: Dict[str, Type[HiperModule]] = {}


def register_module_class(cls: Type[HiperModule]) -> Type[HiperModule]:
    """Class decorator: make a module loadable by name via :func:`create_module`."""
    if not cls.name:
        raise ModuleError(f"{cls.__name__} must define 'name' before registration")
    if cls.name in _MODULE_CLASSES:
        raise ModuleError(f"module class {cls.name!r} registered twice")
    _MODULE_CLASSES[cls.name] = cls
    return cls


def create_module(name: str, **kwargs) -> HiperModule:
    try:
        cls = _MODULE_CLASSES[name]
    except KeyError:
        raise ModuleError(
            f"no module class registered under {name!r}; "
            f"known: {sorted(_MODULE_CLASSES)}"
        ) from None
    return cls(**kwargs)


def known_module_classes() -> Dict[str, Type[HiperModule]]:
    return dict(_MODULE_CLASSES)
