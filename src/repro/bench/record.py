"""Performance recording: append pytest-benchmark results to committed JSON
ledgers (``BENCH_scheduler.json``, ``BENCH_comm.json``,
``BENCH_procs.json``).

The ledgers make overhead changes reviewable the same way figure outputs
are: every entry pins ops/sec per micro-benchmark to a commit hash and date,
so a perf regression shows up as a diff instead of an anecdote. Each ledger
is owned by a *suite* — a benchmark module plus its CI fast subset,
declared once via :func:`register_suite`:

- ``scheduler`` — spawn/join, steal, future machinery
  (``benchmarks/bench_micro_runtime.py``);
- ``comm`` — per-message vs. coalesced sends, polling sweeps, buffer-pool
  hit rates, ISx exchange end-to-end (``benchmarks/bench_micro_comm.py``);
- ``procs`` — the multiprocess SPMD backend end-to-end: launch + ISx
  exchange wall time at 1 vs. 4 ranks (``benchmarks/bench_procs.py``);
- ``sim`` — DES engine core, reference (``*_objects``) vs. production
  (``*_flat``) wave storm (``benchmarks/bench_micro_sim.py``);
- ``service`` — job-gateway warm vs. cold execution and the concurrent-
  client load test (``benchmarks/bench_service.py``).

Usage::

    python -m repro bench-record --label "post-overhaul"
    python -m repro bench-record --suite comm
    python -m repro bench-record --fast        # CI perf-smoke subset
    python benchmarks/record.py                # same, as a script

Each invocation runs the suite's benchmark module under pytest-benchmark,
extracts per-benchmark ``ops`` (1/mean), mean/median/stddev and rounds, and
appends one entry to the suite's ledger.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from typing import Any, Dict, List, Optional, Sequence

#: Benchmark suites: name -> (ledger, bench module, CI fast subset),
#: populated via :func:`register_suite`.
SUITES: Dict[str, Dict[str, Any]] = {}


def register_suite(name: str, *, bench_file: str, fast: Sequence[str],
                   ledger: Optional[str] = None,
                   pytest_args: Sequence[str] = ()) -> Dict[str, Any]:
    """Register one benchmark suite; returns its config dict.

    Every suite follows one convention — ledger ``BENCH_<suite>.json`` at
    the repo root (override with ``ledger``), benchmark module under
    ``benchmarks/`` — and each ``fast`` subset is a comparison *pair* the
    CI perf-smoke job always records both sides of, so the ledger's
    headline ratio stays computable from smoke entries alone. Registration
    is the whole integration: ``--suite <name>`` on the CLI, ledger path
    defaulting, and fast-subset selection all read from this table.
    """
    if name in SUITES:
        raise ValueError(f"benchmark suite {name!r} already registered")
    SUITES[name] = {
        "bench_file": bench_file,
        "fast": tuple(fast),
        "ledger": ledger or f"BENCH_{name}.json",
        "pytest_args": tuple(pytest_args),
    }
    return SUITES[name]


# spawn/join, steal, future machinery: the storm exercises the full
# dispatch hot path, the chain the promise/continuation machinery.
register_suite("scheduler",
               bench_file="benchmarks/bench_micro_runtime.py",
               fast=("test_spawn_and_join_throughput_sim",
                     "test_future_chain_throughput_sim"))
# per-message vs. coalesced sends, polling sweeps, buffer-pool hit
# rates, ISx exchange end-to-end.
register_suite("comm",
               bench_file="benchmarks/bench_micro_comm.py",
               fast=("test_small_put_per_message",
                     "test_small_put_coalesced"))
# multiprocess SPMD backend end-to-end: 4 ranks must beat 1 rank (real
# parallel speedup across processes).
register_suite("procs",
               bench_file="benchmarks/bench_procs.py",
               fast=("test_isx_procs_1rank",
                     "test_isx_procs_4ranks"))
# DES engine core: the wave storm (deep queue, batched same-timestamp
# cohorts) is where the engine must beat the reference (the seed engine); the
# pair records both sides so the events/sec ratio is always in-ledger.
# Extra rounds because the ledger's headline is a *ratio* of two
# recordings taken seconds apart — more rounds average out load spikes
# that would otherwise skew one side.
register_suite("sim",
               bench_file="benchmarks/bench_micro_sim.py",
               fast=("test_wave_storm_objects",
                     "test_wave_storm_flat"),
               pytest_args=("--benchmark-min-rounds=9",))
# Job-gateway service: warm-pool vs. cold per-job runtime construction
# (the pair CI records) plus the 1000-client load test whose latency
# percentiles land in the full ledger's extra_info.
register_suite("service",
               bench_file="benchmarks/bench_service.py",
               fast=("test_service_job_warm",
                     "test_service_job_cold"))
# Access-mode task graph: dmda vs. help-first placement on the hetero
# chains (the headline is the virtual-makespan gap in extra_info) and the
# 2000-fold commute-vs-ordered pair (wall time: bookkeeping that outgrows
# the run shows here) are what CI records; the 12-fold pair in full runs.
register_suite("taskgraph",
               bench_file="benchmarks/bench_taskgraph.py",
               fast=("test_taskgraph_hetero_help_first",
                     "test_taskgraph_hetero_dmda",
                     "test_taskgraph_reduce_ordered_2000",
                     "test_taskgraph_reduce_commute_2000"))

#: Back-compat aliases for the default ("scheduler") suite, derived from
#: SUITES so a suite definition is stated exactly once.
DEFAULT_LEDGER = SUITES["scheduler"]["ledger"]
DEFAULT_BENCH_FILE = SUITES["scheduler"]["bench_file"]
FAST_BENCHES = SUITES["scheduler"]["fast"]


def repo_root() -> str:
    """The repository root (directory containing this package's parent)."""
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.dirname(os.path.dirname(os.path.dirname(here)))


def current_commit(cwd: Optional[str] = None) -> str:
    """Current git commit hash (suffixed ``-dirty`` when the worktree has
    uncommitted changes), or ``"unknown"`` outside a checkout."""
    root = cwd or repo_root()
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=30,
        )
        if out.returncode != 0:
            return "unknown"
        sha = out.stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=root, capture_output=True, text=True, timeout=30,
        )
        if status.returncode == 0 and status.stdout.strip():
            sha += "-dirty"
        return sha
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def _summarize(raw: Dict[str, Any]) -> Dict[str, Any]:
    """Per-benchmark summary from one pytest-benchmark JSON document."""
    benches: Dict[str, Any] = {}
    for b in raw.get("benchmarks", []):
        st = b["stats"]
        benches[b["name"]] = {
            "ops_per_sec": st["ops"],
            "mean_s": st["mean"],
            "median_s": st["median"],
            "stddev_s": st["stddev"],
            "rounds": st["rounds"],
            "extra_info": b.get("extra_info", {}),
        }
    return benches


def entry_from_pytest_json(
    path: str,
    label: str,
    commit: Optional[str] = None,
    date: Optional[str] = None,
) -> Dict[str, Any]:
    """Build one ledger entry from an existing pytest-benchmark JSON file
    (used to import runs recorded out-of-band, e.g. a pre-change baseline)."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    commit_info = raw.get("commit_info", {}) or {}
    return {
        "label": label,
        "commit": commit or commit_info.get("id", "unknown"),
        "date": date or raw.get("datetime",
                                datetime.now(timezone.utc).isoformat()),
        "machine": raw.get("machine_info", {}).get("node", "unknown"),
        "python": raw.get("machine_info", {}).get(
            "python_version", sys.version.split()[0]),
        "benchmarks": _summarize(raw),
    }


def run_benchmarks(
    bench_file: str = DEFAULT_BENCH_FILE,
    keyword: Optional[str] = None,
    cwd: Optional[str] = None,
    pytest_args: Sequence[str] = (),
) -> Dict[str, Any]:
    """Run ``bench_file`` under pytest-benchmark; return the raw JSON doc.

    Raises ``RuntimeError`` if pytest fails (a crashing benchmark must not
    silently record an empty entry).
    """
    root = cwd or repo_root()
    fd, tmp = tempfile.mkstemp(prefix="bench-", suffix=".json")
    os.close(fd)
    try:
        cmd = [
            sys.executable, "-m", "pytest", bench_file, "-q",
            "--benchmark-only", "--benchmark-disable-gc",
            f"--benchmark-json={tmp}",
        ]
        cmd += list(pytest_args)
        if keyword:
            cmd += ["-k", keyword]
        env = dict(os.environ)
        src = os.path.join(root, "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
        proc = subprocess.run(cmd, cwd=root, env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(
                f"benchmark run failed (exit {proc.returncode}):\n"
                f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}"
            )
        with open(tmp, "r", encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        os.unlink(tmp)


def load_ledger(path: str) -> List[Dict[str, Any]]:
    if not os.path.exists(path):
        return []
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc.get("entries", [])


def append_entry(path: str, entry: Dict[str, Any]) -> None:
    entries = load_ledger(path)
    entries.append(entry)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"entries": entries}, fh, indent=2, sort_keys=False)
        fh.write("\n")


def record(
    out: Optional[str] = None,
    label: str = "",
    bench_file: Optional[str] = None,
    fast: bool = False,
    keyword: Optional[str] = None,
    suite: str = "scheduler",
) -> Dict[str, Any]:
    """Run one suite's micro-benchmarks and append an entry to its ledger.

    ``fast`` restricts the run to the suite's CI smoke subset; ``keyword``
    passes an explicit pytest ``-k`` expression instead. ``out`` and
    ``bench_file`` override the suite's ledger path / benchmark module.
    Returns the appended entry.
    """
    try:
        cfg = SUITES[suite]
    except KeyError:
        raise ValueError(
            f"unknown benchmark suite {suite!r}; known: {sorted(SUITES)}"
        ) from None
    root = repo_root()
    out = out or os.path.join(root, cfg["ledger"])
    bench_file = bench_file or cfg["bench_file"]
    if fast and keyword is None:
        keyword = " or ".join(cfg["fast"])
    raw = run_benchmarks(bench_file, keyword=keyword, cwd=root,
                         pytest_args=cfg["pytest_args"])
    entry = {
        "label": label or ("perf-smoke" if fast else "bench-record"),
        "suite": suite,
        "commit": current_commit(root),
        "date": datetime.now(timezone.utc).isoformat(),
        "machine": raw.get("machine_info", {}).get("node", "unknown"),
        "python": raw.get("machine_info", {}).get(
            "python_version", sys.version.split()[0]),
        "benchmarks": _summarize(raw),
    }
    append_entry(out, entry)
    return entry


def format_entry(entry: Dict[str, Any], baseline: Optional[Dict[str, Any]] = None) -> str:
    """Human-readable table for one entry, with speedup vs. ``baseline``."""
    lines = [
        f"entry: {entry['label']} @ {entry['commit'][:12]} ({entry['date']})"
    ]
    base = (baseline or {}).get("benchmarks", {})
    for name, rec in sorted(entry["benchmarks"].items()):
        line = (f"  {name:<45s} {rec['ops_per_sec']:>10.2f} ops/s "
                f"(mean {rec['mean_s'] * 1e3:8.3f} ms, "
                f"rounds {rec['rounds']})")
        ref = base.get(name)
        if ref and ref.get("ops_per_sec"):
            line += f"  [{rec['ops_per_sec'] / ref['ops_per_sec']:.2f}x vs {baseline['label']}]"
        lines.append(line)
    return "\n".join(lines)
