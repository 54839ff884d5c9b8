"""Race-hunt driver: explore seeds, detect, replay bit-for-bit.

:func:`run_once` runs one workload under the
:class:`~repro.verify.interleave.InterleaveExecutor` with a seeded strategy
and a :class:`~repro.verify.racedetect.RaceDetector` installed, then checks
the quiesce invariants. :func:`hunt` sweeps seeds and stops at the first
failing one; :func:`replay` re-runs a seed and proves the interleaving is
reproduced bit-for-bit (schedule digests must match). :func:`run_suite` is
``repro verify``: the planted-race self-check, one hunt per strategy and the
cross-engine differentials, as report rows.

The default workload is a *spawn storm*: nested finish scopes fanning tasks
out across workers, with futures carrying values back — enough cross-worker
push/steal and promise traffic to exercise every instrumented path, small
enough that a several-hundred-seed sweep finishes in seconds.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from typing import (Any, Callable, Iterator, List, NamedTuple, Optional,
                    Sequence)

from repro.platform.hwloc import discover, machine
from repro.runtime.api import async_, async_future, finish
from repro.runtime.instrument import probed
from repro.exec.sim import SimExecutor
from repro.runtime.runtime import HiperRuntime
from repro.verify.differential import (
    WORKLOADS, differential, isx_coalescing_differential,
    isx_engine_differential, isx_sharded_differential, spmd_differential)
from repro.verify.interleave import InterleaveExecutor
from repro.verify.invariants import InvariantReport, check_quiesce
from repro.verify.racedetect import RaceDetector, RaceReport
from repro.verify.strategies import (
    STRATEGIES,
    ReplayStrategy,
    ScheduleEntry,
    VerificationError,
    make_strategy,
)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def spawn_storm(fanout: int = 4, depth: int = 3) -> Callable[[], int]:
    """A nested fan-out workload: each level opens a finish scope and spawns
    ``fanout`` children, leaves return values through futures. Returns the
    root body; its result is the total leaf count (a determinism oracle)."""

    def leaf() -> int:
        return 1

    def node(level: int) -> int:
        if level == 0:
            return 1
        counts: List[int] = []
        futs: List[Any] = []

        def body() -> None:
            for i in range(fanout):
                if level == 1:
                    # Leaves return through futures (promise/observe sync
                    # edges exercise the detector's happens-before path).
                    futs.append(async_future(leaf, name=f"leaf-{i}"))
                else:
                    async_(lambda lv=level: counts.append(node(lv - 1)),
                           name=f"node-l{level}-{i}")

        finish(body, name=f"storm-l{level}")
        # All children joined: futures are satisfied, counts fully appended.
        return sum(counts) + sum(f.value() for f in futs)

    def root() -> int:
        return node(depth)

    root.__name__ = f"spawn_storm_f{fanout}d{depth}"
    return root


# ----------------------------------------------------------------------
# outcomes
# ----------------------------------------------------------------------
@dataclass
class HuntOutcome:
    """Everything one verification run produced."""

    strategy: str
    seed: int
    result: Any
    digest: str
    schedule: List[ScheduleEntry]
    races: List[RaceReport]
    invariants: InvariantReport
    benign_suppressed: int = 0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.races and self.invariants.ok and self.error is None

    def describe(self) -> str:
        status = "OK" if self.ok else "FAIL"
        lines = [
            f"[{status}] strategy={self.strategy} seed={self.seed} "
            f"steps={len(self.schedule)} digest={self.digest[:16]}"
        ]
        if self.error:
            lines.append(f"  error: {self.error}")
        for r in self.races:
            lines.append("  " + r.describe().replace("\n", "\n  "))
        if not self.invariants.ok:
            lines.append("  " + self.invariants.describe())
        return "\n".join(lines)


@dataclass
class HuntResult:
    """A seed sweep's aggregate."""

    outcomes: List[HuntOutcome] = field(default_factory=list)

    @property
    def first_failure(self) -> Optional[HuntOutcome]:
        for o in self.outcomes:
            if not o.ok:
                return o
        return None


# ----------------------------------------------------------------------
# drivers
# ----------------------------------------------------------------------
def _run_with_executor(
    executor: InterleaveExecutor,
    workload: Callable[[], Any],
    *,
    workers: int,
    planted: bool,
    strategy_name: str,
    seed: int,
) -> HuntOutcome:
    model = discover(machine("workstation"), num_workers=workers,
                     with_interconnect=False)
    rt = HiperRuntime(model, executor).start()
    if planted:
        from repro.verify.fixtures import install_racy_slots

        install_racy_slots(rt)
    detector = RaceDetector()
    result: Any = None
    error: Optional[str] = None
    try:
        with probed(detector):
            try:
                result = rt.run(workload, name=getattr(
                    workload, "__name__", "verify-root"))
            except VerificationError:
                raise
            except Exception as exc:  # noqa: BLE001 - recorded, not fatal
                error = f"{type(exc).__name__}: {exc}"
            invariants = check_quiesce(rt, detector)
    finally:
        rt.shutdown()
        executor.shutdown()
    return HuntOutcome(
        strategy=strategy_name,
        seed=seed,
        result=result,
        digest=executor.schedule_digest(),
        schedule=list(executor.schedule),
        races=list(detector.races),
        invariants=invariants,
        benign_suppressed=detector.benign_suppressed,
        error=error,
    )


def run_once(
    strategy: str = "random",
    seed: int = 0,
    *,
    workers: int = 4,
    planted: bool = False,
    workload: Optional[Callable[[], Any]] = None,
    **strategy_kwargs: Any,
) -> HuntOutcome:
    """One seeded exploration run; see :class:`HuntOutcome`."""
    ex = InterleaveExecutor(make_strategy(strategy, seed, **strategy_kwargs))
    return _run_with_executor(
        ex, workload or spawn_storm(), workers=workers, planted=planted,
        strategy_name=strategy, seed=seed,
    )


def hunt(
    strategy: str = "random",
    seeds: int = 20,
    *,
    workers: int = 4,
    planted: bool = False,
    workload_factory: Optional[Callable[[], Callable[[], Any]]] = None,
    stop_on_failure: bool = True,
    first_seed: int = 0,
    **strategy_kwargs: Any,
) -> HuntResult:
    """Sweep ``seeds`` seeds from ``first_seed`` on; by default stop at the
    first failure (its seed is the bit-for-bit repro handle)."""
    res = HuntResult()
    for seed in range(first_seed, first_seed + seeds):
        wl = workload_factory() if workload_factory else spawn_storm()
        out = run_once(strategy, seed, workers=workers, planted=planted,
                       workload=wl, **strategy_kwargs)
        res.outcomes.append(out)
        if stop_on_failure and not out.ok:
            break
    return res


def replay(
    outcome: HuntOutcome,
    *,
    workers: int = 4,
    planted: bool = False,
    workload: Optional[Callable[[], Any]] = None,
) -> HuntOutcome:
    """Re-run an outcome two ways and prove reproducibility.

    First re-runs from the *seed* (same strategy construction) and checks the
    schedule digest matches bit-for-bit; raises
    :class:`~repro.verify.strategies.VerificationError` if not. The recorded
    schedule itself is also usable via :class:`ReplayStrategy` for triage
    under a debugger.
    """
    again = run_once(
        outcome.strategy, outcome.seed, workers=workers, planted=planted,
        workload=workload or spawn_storm(),
    )
    if again.digest != outcome.digest:
        raise VerificationError(
            f"seed {outcome.seed} did not reproduce: digest "
            f"{outcome.digest[:16]} vs {again.digest[:16]} — the workload or "
            "strategy is drawing entropy outside the seeded rng"
        )
    return again


def replay_schedule(
    schedule: List[ScheduleEntry],
    *,
    workers: int = 4,
    planted: bool = False,
    workload: Optional[Callable[[], Any]] = None,
) -> HuntOutcome:
    """Drive a run that follows ``schedule`` exactly (divergence raises)."""
    ex = InterleaveExecutor(ReplayStrategy(schedule))
    return _run_with_executor(
        ex, workload or spawn_storm(), workers=workers, planted=planted,
        strategy_name="replay", seed=-1,
    )


# ----------------------------------------------------------------------
# the suite behind ``repro verify``
# ----------------------------------------------------------------------
class SuiteRow(NamedTuple):
    """One verdict of :func:`run_suite`: ``tag`` is ``self-check``,
    ``hunt:<strategy>`` or ``diff:<check>``; ``detail`` is a failing
    check's report, ``artifact`` a failing hunt's saved schedule."""

    tag: str
    ok: bool
    summary: str
    detail: str = ""
    artifact: Optional[str] = None

    def describe(self) -> str:
        """The row as ``repro verify`` prints it."""
        width = 18 if self.tag.startswith("diff:") else 12
        lines = [f"  {self.tag:<{width}s} {'OK  ' if self.ok else 'FAIL'} "
                 f"{self.summary}"]
        if self.detail:
            lines.append("    " + self.detail.replace("\n", "\n    "))
        if self.artifact:
            lines.append(f"    wrote {self.artifact}")
        return "\n".join(lines)


def run_suite(
    engines: Sequence[str] = ("sim", "threads"),
    strategies: Sequence[str] = tuple(sorted(STRATEGIES)),
    seeds: int = 25,
    *,
    first_seed: int = 0,
    workers: int = 4,
    planted: bool = False,
    selfcheck: bool = True,
    selfcheck_seeds: int = 10,
    differentials: bool = True,
    out: Optional[str] = None,
) -> Iterator[SuiteRow]:
    """Yield ``repro verify``'s rows as each check finishes: the planted
    race must be found within ``selfcheck_seeds`` seeds and replay bit for
    bit; each strategy hunts ``seeds`` seeds (a failing schedule is saved
    to ``<out>/failing-schedule-<strategy>.json``); then the differentials:
    each :data:`WORKLOADS` entry on the one-runtime ``engines``, SPMD ISx
    with coalescing off/on, on the reference engine/production and on
    one/two shards, and — with ``procs`` or ``sharded`` among ``engines`` —
    every variant of every paper app on sim and on those."""
    from repro.apps.registry import APPS
    from repro.exec.procs import ProcessExecutor
    from repro.tools.schedule import artifact_from_outcome, save_schedule

    if selfcheck:
        found = hunt("random", selfcheck_seeds, workers=workers,
                     planted=True).first_failure
        if found is None or not found.races:
            yield SuiteRow("self-check", False, "planted race not found in "
                           f"{selfcheck_seeds} seeds")
        else:
            try:
                replay(found, workers=workers, planted=True)
                bit = "bit-for-bit"
            except VerificationError:
                bit = "DIGEST MISMATCH"
            yield SuiteRow("self-check", bit == "bit-for-bit",
                           f"planted race found at seed {found.seed}, "
                           f"replay {bit}")
    for strat in strategies:
        bad = hunt(strat, seeds, first_seed=first_seed, workers=workers,
                   planted=planted).first_failure
        if bad is None:
            yield SuiteRow(f"hunt:{strat}", True, f"{seeds} seeds clean")
            continue
        path = None
        if out:
            os.makedirs(out, exist_ok=True)
            path = save_schedule(
                artifact_from_outcome(bad, workers=workers, planted=planted),
                os.path.join(out, f"failing-schedule-{strat}.json"))
        yield SuiteRow(f"hunt:{strat}", False,
                       f"seed {bad.seed} (digest {bad.digest[:16]}):",
                       bad.describe(), path)
    if not differentials:
        return
    spmd = [e for e in engines if e in ("procs", "sharded")]
    single = tuple(e for e in engines if e not in spmd)
    checks = [(wl, functools.partial(differential, wl, engines=single,
                                     workers=workers))
              for wl in sorted(WORKLOADS)] if single else []
    checks += [("isx-coal", isx_coalescing_differential),
               ("isx-eng", isx_engine_differential),
               ("isx-shard", isx_sharded_differential)]
    if spmd:
        arms = [("sim", None, None)] + [
            (e, None, ProcessExecutor if e == "procs"
             else functools.partial(SimExecutor, shards=2)) for e in spmd]
        checks += [(f"spmd-{app}",
                    functools.partial(spmd_differential, app, arms))
                   for app in sorted(APPS)]
    for tag, check in checks:
        rep = check()
        yield SuiteRow(f"diff:{tag}", rep.ok,
                       "/".join(r.engine for r in rep.runs),
                       "" if rep.ok else rep.describe())
