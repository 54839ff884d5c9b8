"""Concurrency correctness harness (``python -m repro verify``).

Three instruments over the shared scheduling policy core:

- :mod:`repro.verify.interleave` — a schedule-exploring cooperative executor
  with pluggable seeded strategies (:mod:`repro.verify.strategies`); any
  failing interleaving replays bit-for-bit from its seed.
- :mod:`repro.verify.racedetect` — a hybrid lockset + happens-before race
  detector fed by the :mod:`repro.runtime.instrument` hooks, with ground
  truth in :mod:`repro.verify.fixtures` (a deliberately planted race the
  harness must always rediscover).
- :mod:`repro.verify.differential` — sim ↔ threaded ↔ interleave runs of
  ISx/UTS/Graph500 workloads asserting result equality plus the quiesce
  conservation invariants (:mod:`repro.verify.invariants`).
- :mod:`repro.verify.spmd_workloads` — the same workloads as SPMD programs
  over the SHMEM module, digest-compatible with the single-runtime
  versions, so the multiprocess backend (``--engines ... procs``) joins the
  differential.
"""

from repro.verify.differential import (
    DifferentialReport,
    WORKLOADS,
    differential,
    isx_coalescing_differential,
    isx_engine_differential,
    isx_sharded_differential,
    run_on_engine,
    taskgraph_differential,
)
from repro.verify.spmd_workloads import SPMD_WORKLOADS, run_spmd_workload
from repro.verify.harness import (
    HuntOutcome,
    HuntResult,
    hunt,
    replay,
    replay_schedule,
    run_once,
    spawn_storm,
)
from repro.verify.interleave import InterleaveExecutor
from repro.verify.invariants import InvariantReport, check_quiesce
from repro.verify.racedetect import RaceDetector, RaceReport
from repro.verify.strategies import (
    STRATEGIES,
    PCTStrategy,
    PreemptionBoundedStrategy,
    RandomWalkStrategy,
    ReplayStrategy,
    Strategy,
    VerificationError,
    make_strategy,
)

__all__ = [
    "DifferentialReport",
    "WORKLOADS",
    "differential",
    "isx_coalescing_differential",
    "isx_engine_differential",
    "isx_sharded_differential",
    "run_on_engine",
    "taskgraph_differential",
    "SPMD_WORKLOADS",
    "run_spmd_workload",
    "HuntOutcome",
    "HuntResult",
    "hunt",
    "replay",
    "replay_schedule",
    "run_once",
    "spawn_storm",
    "InterleaveExecutor",
    "InvariantReport",
    "check_quiesce",
    "RaceDetector",
    "RaceReport",
    "STRATEGIES",
    "PCTStrategy",
    "PreemptionBoundedStrategy",
    "RandomWalkStrategy",
    "ReplayStrategy",
    "Strategy",
    "VerificationError",
    "make_strategy",
]
