"""Deterministic fault injection: failure as a schedulable event.

A :class:`FaultPlan` is pure data — a seed plus a list of fault rules parsed
from a dict/JSON spec. A :class:`FaultInjector` binds a plan to one run:

- *timed faults* (``place_fail``, ``worker_fail``) are scheduled into the
  simulated executor's event queue at their virtual timestamps, where
  :meth:`~repro.exec.sim.SimExecutor.fail_place` /
  :meth:`~repro.exec.sim.SimExecutor.fail_worker` drain and replay or kill
  the affected tasks;
- *message faults* (``message_drop``, ``message_delay``,
  ``message_corrupt``) are decided per-transmit by a seeded RNG substream
  hooked into :meth:`~repro.net.fabric.SimFabric.transmit`;
- *storage faults* (``storage_fail``) fail ``SimStore`` writes at issue;
- *task faults* (``task_fail``) raise :class:`~repro.util.errors.FaultError`
  inside matching task bodies before they run.

Everything happens in virtual time from seeded streams, so a whole chaos
scenario — every fault, retry, and recovery — replays bit-for-bit; the
injector's :attr:`~FaultInjector.events` log is the golden sequence tests
compare across runs.

Spec format (JSON-able; see ``docs/resilience.md``)::

    {"seed": 7,
     "retry": {"attempts": 4, "base": 1e-5, "factor": 2.0, "jitter": 0.25},
     "faults": [
       {"kind": "message_drop",    "prob": 0.01, "channel": "shmem"},
       {"kind": "message_delay",   "prob": 0.05, "extra": 2e-5},
       {"kind": "message_corrupt", "prob": 0.01, "max_faults": 3},
       {"kind": "storage_fail",    "prob": 0.5,  "max_faults": 1},
       {"kind": "task_fail",       "name": "sort-phase", "max_faults": 1},
       {"kind": "place_fail",      "at": 0.002, "rank": 1, "place": "numa0"},
       {"kind": "worker_fail",     "at": 0.001, "rank": 0, "worker": 2}]}
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any, Dict, List, Optional, Tuple

from repro.net.fabric import channel_of
from repro.resilience.policy import Backoff, RetryPolicy
from repro.util.errors import ConfigError, FaultError
from repro.util.rng import RngFactory

MESSAGE_KINDS = ("message_drop", "message_delay", "message_corrupt")
TIMED_KINDS = ("place_fail", "worker_fail")
ALL_KINDS = MESSAGE_KINDS + TIMED_KINDS + ("storage_fail", "task_fail")

#: Built-in plan presets for the ``chaos`` CLI and the CI smoke job.
PRESETS: Dict[str, Dict[str, Any]] = {
    "drop": {
        "retry": {"attempts": 5, "base": 1e-5, "factor": 2.0, "jitter": 0.25},
        "faults": [{"kind": "message_drop", "prob": 0.002}],
    },
    "delay": {
        "faults": [{"kind": "message_delay", "prob": 0.05, "extra": 2e-5}],
    },
    "corrupt": {
        "retry": {"attempts": 5, "base": 1e-5, "factor": 2.0, "jitter": 0.25},
        "faults": [{"kind": "message_corrupt", "prob": 0.002}],
    },
    "mixed": {
        "retry": {"attempts": 5, "base": 1e-5, "factor": 2.0, "jitter": 0.25},
        "faults": [
            {"kind": "message_drop", "prob": 0.001},
            {"kind": "message_corrupt", "prob": 0.001},
            {"kind": "message_delay", "prob": 0.02, "extra": 1e-5},
        ],
    },
}


@dataclasses.dataclass
class FaultRule:
    """One parsed fault rule. ``max_faults`` bounds how often it may fire
    (None = unbounded); ``fired`` counts injections so far."""

    kind: str
    prob: float = 1.0
    channel: Optional[str] = None
    extra: float = 0.0          # message_delay: added latency (seconds)
    device: Optional[str] = None  # storage_fail: store-name filter
    name: Optional[str] = None    # task_fail: exact task-name match
    rank: Optional[int] = None    # scope to one rank (timed/task faults)
    worker: Optional[int] = None  # worker_fail: worker id
    place: Optional[str] = None   # place_fail: place name (default sysmem)
    at: Optional[float] = None    # timed faults: virtual timestamp
    max_faults: Optional[int] = None
    fired: int = 0

    def exhausted(self) -> bool:
        return self.max_faults is not None and self.fired >= self.max_faults


class FaultPlan:
    """A seed plus an ordered list of :class:`FaultRule`."""

    def __init__(self, rules: List[FaultRule], seed: int = 0,
                 retry: Optional[RetryPolicy] = None):
        self.rules = rules
        self.seed = seed
        self.retry = retry

    @classmethod
    def from_spec(cls, spec: Dict[str, Any], *,
                  seed: Optional[int] = None) -> "FaultPlan":
        """Parse a dict spec (see module docstring). ``seed`` overrides the
        spec's own seed when given."""
        if not isinstance(spec, dict):
            raise ConfigError(f"fault spec must be a dict, got {type(spec)!r}")
        plan_seed = seed if seed is not None else int(spec.get("seed", 0))
        retry = None
        rcfg = spec.get("retry")
        if rcfg is not None:
            retry = RetryPolicy(
                max_attempts=int(rcfg.get("attempts", 3)),
                backoff=Backoff(
                    base=float(rcfg.get("base", 1e-4)),
                    factor=float(rcfg.get("factor", 2.0)),
                    max_delay=float(rcfg.get("max_delay", 0.1)),
                    jitter=float(rcfg.get("jitter", 0.0)),
                    seed=plan_seed,
                ),
            )
        rules = []
        for i, raw in enumerate(spec.get("faults", [])):
            kind = raw.get("kind")
            if kind not in ALL_KINDS:
                raise ConfigError(
                    f"fault #{i}: unknown kind {kind!r}; expected one of "
                    f"{sorted(ALL_KINDS)}")
            prob = float(raw.get("prob", 1.0))
            if not (0.0 <= prob <= 1.0):
                raise ConfigError(f"fault #{i}: prob must be in [0, 1], got {prob}")
            if kind in TIMED_KINDS and "at" not in raw:
                raise ConfigError(f"fault #{i}: {kind} requires an 'at' timestamp")
            if kind == "task_fail" and not raw.get("name"):
                raise ConfigError(f"fault #{i}: task_fail requires a task 'name'")
            mf = raw.get("max_faults")
            rules.append(FaultRule(
                kind=kind, prob=prob,
                channel=raw.get("channel"),
                extra=float(raw.get("extra", 0.0)),
                device=raw.get("device"),
                name=raw.get("name"),
                rank=raw.get("rank"),
                worker=raw.get("worker"),
                place=raw.get("place"),
                at=float(raw["at"]) if "at" in raw else None,
                max_faults=int(mf) if mf is not None else None,
            ))
        return cls(rules, seed=plan_seed, retry=retry)

    @classmethod
    def preset(cls, name: str, *, seed: int = 0) -> "FaultPlan":
        if name not in PRESETS:
            raise ConfigError(
                f"unknown fault preset {name!r}; available: {sorted(PRESETS)}")
        return cls.from_spec(PRESETS[name], seed=seed)

    @classmethod
    def load(cls, path: str, *, seed: Optional[int] = None) -> "FaultPlan":
        """Load a spec from a JSON file, or resolve a preset name.

        A name that is neither a preset nor an existing file raises
        :class:`ConfigError` naming the valid presets (the CLI turns this
        into an exit-2 usage error instead of a traceback).
        """
        if path in PRESETS:
            return cls.from_spec(PRESETS[path], seed=seed)
        if not os.path.exists(path):
            raise ConfigError(
                f"unknown fault plan {path!r}: not a preset "
                f"({sorted(PRESETS)}) and no such JSON spec file")
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_spec(json.load(fh), seed=seed)

    def __repr__(self) -> str:
        kinds = [r.kind for r in self.rules]
        return f"FaultPlan(seed={self.seed}, rules={kinds})"


class FaultInjector:
    """Binds a :class:`FaultPlan` to one run's executor/fabric/stores.

    All injections append ``(virtual_time, kind, detail)`` tuples to
    :attr:`events` — the deterministic fault log — and bump ``resilience.*``
    counters on the affected rank's stats registry when one is attached.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.events: List[Tuple[float, str, str]] = []
        self._msg_rng = RngFactory(plan.seed).stream("resilience", "msg")
        self._store_rng = RngFactory(plan.seed).stream("resilience", "store")
        self._executor = None
        self._fabric = None
        self._runtimes: Dict[int, Any] = {}  # rank -> HiperRuntime
        self._msg_rules = [r for r in plan.rules if r.kind in MESSAGE_KINDS]
        self._store_rules = [r for r in plan.rules if r.kind == "storage_fail"]
        self._task_rules = [r for r in plan.rules if r.kind == "task_fail"]
        self._timed_rules = [r for r in plan.rules if r.kind in TIMED_KINDS]

    # -- wiring --------------------------------------------------------
    def attach(self, executor, fabric=None) -> "FaultInjector":
        """Hook the injector into an executor (task faults, timed-fault
        scheduling) and optionally a fabric (message faults)."""
        self._executor = executor
        if self._task_rules:
            executor.task_fault_hook = self._task_verdict
        if fabric is not None:
            self._fabric = fabric
            if self._msg_rules:
                fabric.fault_hook = self._message_verdict
        return self

    def attach_store(self, store, *, rank: Optional[int] = None) -> None:
        """Hook storage write faults into one :class:`SimStore`."""
        if self._store_rules:
            store.fault_hook = lambda op, key, nbytes: self._store_verdict(
                store.name, op, key, nbytes, rank)

    def arm_rank(self, ctx) -> None:
        """Per-rank wiring for SPMD runs: stats registry, timed faults, mux
        retry policies, and checkpoint-store fault hooks."""
        rt = ctx.runtime
        self._runtimes[ctx.rank] = rt
        for rule in self._timed_rules:
            if rule.rank is not None and rule.rank != ctx.rank:
                continue
            self._schedule_timed(rule, rt)
        ck = rt.modules.get("checkpoint")
        if ck is not None and ck.store is not None:
            self.attach_store(ck.store, rank=ctx.rank)
        if self.plan.retry is not None:
            mux = ctx.mux
            for channel in list(mux.channels()):
                mux.set_retry_policy(channel, self.plan.retry)

    def arm_runtime(self, runtime) -> None:
        """Single-runtime (non-SPMD) wiring: stats + timed faults."""
        self._runtimes[runtime.rank] = runtime
        for rule in self._timed_rules:
            if rule.rank is not None and rule.rank != runtime.rank:
                continue
            self._schedule_timed(rule, runtime)

    def _schedule_timed(self, rule: FaultRule, runtime) -> None:
        ex = self._executor
        if ex is None:
            raise ConfigError("attach(executor) before arming timed faults")

        def _fire() -> None:
            if rule.exhausted():
                return
            rule.fired += 1
            if rule.kind == "place_fail":
                place = (runtime.model.place(rule.place)
                         if rule.place else runtime.sysmem)
                replayed, killed = ex.fail_place(runtime, place)
                self._log(ex.now(), "place_fail",
                          f"rank={runtime.rank} place={place.name} "
                          f"replayed={replayed} killed={killed}",
                          rank=runtime.rank)
            else:
                wid = rule.worker if rule.worker is not None else 0
                moved = ex.fail_worker(runtime, wid)
                self._log(ex.now(), "worker_fail",
                          f"rank={runtime.rank} worker={wid} moved={moved}",
                          rank=runtime.rank)

        ex.call_at(rule.at, _fire)

    # -- verdicts ------------------------------------------------------
    def _message_verdict(self, src: int, dst: int, nbytes: int,
                         payload: Any) -> Optional[Tuple]:
        channel = channel_of(payload)
        for rule in self._msg_rules:
            if rule.exhausted():
                continue
            if rule.channel is not None and rule.channel != channel:
                continue
            if float(self._msg_rng.random()) >= rule.prob:
                continue
            rule.fired += 1
            t = self._executor.now() if self._executor is not None else 0.0
            detail = f"{src}->{dst} ch={channel or 'net'} nbytes={nbytes}"
            if rule.kind == "message_drop":
                self._log(t, "message_drop", detail, rank=src)
                return ("drop",)
            if rule.kind == "message_corrupt":
                self._log(t, "message_corrupt", detail, rank=src)
                return ("corrupt",)
            self._log(t, "message_delay", f"{detail} extra={rule.extra}",
                      rank=src)
            return ("delay", rule.extra)
        return None

    def _store_verdict(self, device: str, op: str, key: str, nbytes: int,
                       rank: Optional[int]) -> bool:
        for rule in self._store_rules:
            if rule.exhausted():
                continue
            if rule.device is not None and rule.device != device:
                continue
            if rule.rank is not None and rank is not None and rule.rank != rank:
                continue
            if float(self._store_rng.random()) >= rule.prob:
                continue
            rule.fired += 1
            t = self._executor.now() if self._executor is not None else 0.0
            self._log(t, "storage_fail",
                      f"device={device} op={op} key={key} nbytes={nbytes}",
                      rank=rank)
            return True
        return False

    def _task_verdict(self, task) -> None:
        # Retried attempts are named "<base>#<attempt>" by async_retry; a
        # rule matches either the full name or the base.
        base = task.name.split("#", 1)[0] if task.name else task.name
        for rule in self._task_rules:
            if rule.exhausted():
                continue
            if rule.name != task.name and rule.name != base:
                continue
            if rule.rank is not None and rule.rank != task.rank:
                continue
            if rule.prob < 1.0 and float(self._msg_rng.random()) >= rule.prob:
                continue
            rule.fired += 1
            t = self._executor.now() if self._executor is not None else 0.0
            self._log(t, "task_fail",
                      f"rank={task.rank} task={task.name!r} "
                      f"id={task.task_id}", rank=task.rank)
            raise FaultError(
                f"injected failure in task {task.name!r} on rank {task.rank}")

    # -- bookkeeping ---------------------------------------------------
    def _log(self, t: float, kind: str, detail: str,
             rank: Optional[int] = None) -> None:
        self.events.append((t, kind, detail))
        rt = self._runtimes.get(rank if rank is not None else -1)
        if rt is not None:
            rt.stats.count("resilience", f"fault_{kind}")
        ex = self._executor
        if ex is not None and ex.tracer is not None:
            ex.tracer.record_instant(rank if rank is not None else 0,
                                     f"fault:{kind}", t, detail)

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for _, kind, _ in self.events:
            out[kind] = out.get(kind, 0) + 1
        return out

    def event_log(self) -> List[Tuple[float, str, str]]:
        """The deterministic injection sequence (golden-test comparable)."""
        return list(self.events)

    def save_log(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([{"t": t, "kind": k, "detail": d}
                       for t, k, d in self.events], fh, indent=1)

    def __repr__(self) -> str:
        return f"FaultInjector({self.plan!r}, events={len(self.events)})"
