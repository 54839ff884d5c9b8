#!/usr/bin/env python3
"""End-to-end benchmark runner: seven workloads, oracles, a layer budget.

Three ways in, one measuring path:

``python benchmarks/e2e/run.py``
    the whole benchmark: every workload ``--reps`` times untraced (medians
    with min/max), one extra traced repetition each for the layer budget,
    every metric printed by name and unit, one results JSON written.
``run.py --workload W --seed S --seconds T --trace 0|1``
    one workload for the benchmark driver: repetitions until ``T`` seconds
    are spent (at least one), last stdout line one JSON object with the
    end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace 1``).
``run.py --child W ...``
    internal: one repetition in this process, one JSON line out.

Every repetition is a **fresh child process**: back-to-back in-process
repeats of 256-rank ISx drift by 15 % (allocator and GC state carry over),
fresh processes repeat within 1 % — and it is what a user of
``python -m repro run`` pays. The parent never imports ``repro``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: A repetition that has not finished by then is killed and counted failed.
CHILD_TIMEOUT_S = 120
#: ``setup_s`` is a median over at least this many set-ups per driver run.
SETUP_SAMPLES = 3

#: End-to-end names the driver's schema cannot carry (one bound per metric,
#: every metric on every workload, never zero) but this benchmark reports
#: and ``compare.py`` judges all the same. See README "Metrics".
E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "virtual_ms": "ms", "peak_rss_mb": "MB",
    "failed_share": "ratio", "latency_p50_ms": "ms", "latency_p99_ms": "ms",
}
#: ... of which these reach the driver under ``per_layer``, names unchanged.
E2E_AS_LAYER = ("virtual_ms", "latency_p50_ms", "latency_p99_ms")


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# child: one repetition
# ----------------------------------------------------------------------
def child_main(args) -> int:
    import resource

    from layers import LayerProfile
    from workloads import WORKLOADS

    wl = WORKLOADS[args.child](args.seed, args.smoke)
    wl.setup()
    doc: Dict[str, Any] = {"t_region": time.time()}
    checks = []
    if not args.setup_only:
        prof = (LayerProfile(os.path.join(SRC, "repro")) if args.traced
                else contextlib.nullcontext())
        t0 = time.perf_counter()
        try:
            with prof:
                wl.run()
        except Exception as exc:  # noqa: BLE001 - a crashed run is a failed op
            traceback.print_exc()
            checks.append(("run", False, f"{type(exc).__name__}: {exc}"[:300]))
        wall_s = time.perf_counter() - t0
        ran = not checks
        if ran:
            checks += wl.check()
    checks += wl.teardown()
    if not args.setup_only:
        usage = max(resource.getrusage(who).ru_maxrss for who in
                    (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        e2e = {"wall_s": wall_s, "peak_rss_mb": usage / 1024.0}
        layer: Dict[str, float] = {}
        if ran:
            e2e.update(wl.e2e_extra())
            layer.update(wl.metrics(wall_s))
            if wl.virtual_ms is not None:
                e2e["virtual_ms"] = wl.virtual_ms
                doc["virtual_repr"] = repr(wl.virtual_ms)
            if args.traced:
                layer.update(prof.metrics())
        doc.update(e2e=e2e, layer=layer)
    failures = [f"{label}: {detail}" for label, ok, detail in checks if not ok]
    doc.update(attempted=len(checks), failed=len(failures),
               failures=failures[:10])
    print(json.dumps(doc))
    return 0


# ----------------------------------------------------------------------
# parent: spawn, time, aggregate
# ----------------------------------------------------------------------
def spawn(workload: str, seed: int, smoke: bool, mode: str = "") -> Dict[str, Any]:
    """One repetition in a fresh process; never raises for a bad child."""
    cmd = [sys.executable, os.path.abspath(__file__), "--child", workload,
           "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    if mode:
        cmd.append(f"--{mode}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    t_spawn = time.time()
    # own session: a child that times out or crashes takes its daemon and
    # shards with it
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        lines = out.strip().splitlines()
        if proc.returncode == 0 and lines:
            why = ""
        else:
            tail = (err.strip().splitlines() or ["no output"])[-1]
            why = f"child exited {proc.returncode}: {tail}"
    except subprocess.TimeoutExpired:
        why = f"timeout: killed after {CHILD_TIMEOUT_S} s"
    if why:
        with contextlib.suppress(ProcessLookupError):  # nobody left: fine
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"e2e": {}, "layer": {}, "attempted": 1, "failed": 1,
                "failures": [why]}
    doc = json.loads(lines[-1])
    doc.setdefault("e2e", {})["setup_s"] = doc["t_region"] - t_spawn
    if doc["failed"]:
        sys.stderr.write(err)
    return doc


def summarize(reps: List[Dict[str, Any]],
              traced_rep: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Fold repetitions into per-metric samples, counts and failures. The
    traced repetition's oracle counts; its timings never do."""
    samples: Dict[str, List[float]] = {}
    for rep in reps:
        for name, value in rep["e2e"].items():
            samples.setdefault(name, []).append(value)
    samples["failed_share"] = [r["failed"] / r["attempted"] for r in reps]
    counted = reps + ([traced_rep] if traced_rep else [])
    attempted = sum(r["attempted"] for r in counted)
    failed = sum(r["failed"] for r in counted)
    failures = [f for r in counted for f in r["failures"]]
    reprs = {r["virtual_repr"] for r in counted if "virtual_repr" in r}
    if len(reprs) > 1:  # the simulator's clock must not depend on the host
        attempted += 1
        failed += 1
        failures.append(
            f"virtual_ms differs between repetitions: {sorted(reprs)}")
    return {"samples": samples, "attempted": attempted, "failed": failed,
            "failures": failures[:10],
            "virtual_repr": reprs.pop() if len(reprs) == 1 else None}


def measure(workload: str, seed: int, smoke: bool, *, reps: Optional[int] = None,
            seconds: float = 0.0) -> List[Dict[str, Any]]:
    """``reps`` repetitions, or as many as start within ``seconds``."""
    out: List[Dict[str, Any]] = []
    t0 = time.monotonic()
    while True:
        t_rep = time.monotonic()
        out.append(spawn(workload, seed, smoke))
        now = time.monotonic()
        if reps is not None:
            if len(out) >= reps:
                return out
        elif now - t0 + (now - t_rep) > seconds:
            return out


def layer_metrics(untraced: Dict[str, Any],
                  traced_rep: Optional[Dict[str, Any]],
                  untraced_wall_s: Optional[float]) -> Dict[str, float]:
    """Per-layer metrics: exact counts from an untraced repetition, the
    layer budget from the traced one (in-process workloads only) and its
    cost relative to the untraced median wall."""
    layer = dict(untraced["layer"])
    if traced_rep and "trace.wall_s" in traced_rep["layer"]:
        budget = {k: v for k, v in traced_rep["layer"].items()
                  if k.endswith((".self_s", ".calls")) or k.startswith("trace.")}
        traced_wall = budget.pop("trace.wall_s")
        if untraced_wall_s:
            budget["trace.overhead_ratio"] = traced_wall / untraced_wall_s
        layer.update(budget)
    return layer


def _in_process(workload: str) -> bool:
    # the two workloads whose program runs in other processes: their layers
    # report from job documents and shard counters, not from the profiler
    return workload not in ("gateway_closed", "isx_sharded2")


# ----------------------------------------------------------------------
# driver contract: one workload, one JSON line
# ----------------------------------------------------------------------
def driver_main(args, spec) -> int:
    workload = args.workload[0]
    if args.trace:
        rep = spawn(workload, args.seed, args.smoke)
        traced_rep = (spawn(workload, args.seed, args.smoke, "traced")
                      if _in_process(workload) else None)
        summary = summarize([rep], traced_rep)
        layer = layer_metrics(rep, traced_rep, rep["e2e"].get("wall_s"))
        for name in E2E_AS_LAYER:
            if name in rep["e2e"]:
                layer[name] = rep["e2e"][name]
        # a layer this workload does not cross reads 0
        metrics = {m["name"]: {"value": layer.get(m["name"], 0.0),
                               "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        reps = measure(workload, args.seed, args.smoke, seconds=args.seconds)
        summary = summarize(reps)
        samples = summary["samples"]
        want = 1 if args.smoke else SETUP_SAMPLES
        while 0 < len(samples.get("setup_s", ())) < want:
            extra = spawn(workload, args.seed, args.smoke, "setup-only")
            if extra["failed"]:
                break
            samples["setup_s"].append(extra["e2e"]["setup_s"])
        missing = [m["name"] for m in spec["end_to_end"]
                   if not samples.get(m["name"])]
        if missing:
            print(f"error: no sample of {missing}: {summary['failures']}",
                  file=sys.stderr)
            return 1
        metrics = {m["name"]: {"value": statistics.median(samples[m["name"]]),
                               "unit": m["unit"]} for m in spec["end_to_end"]}
    for line in summary["failures"]:
        print(f"FAILED {workload}: {line}", file=sys.stderr)
    failed = summary["failed"]
    print(json.dumps({"correct": failed == 0,
                      "attempted": summary["attempted"], "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


# ----------------------------------------------------------------------
# the whole benchmark
# ----------------------------------------------------------------------
def fingerprint() -> Dict[str, Any]:
    from importlib.metadata import version

    def git(*cmd) -> Optional[str]:
        try:
            return subprocess.run(("git", "-C", ROOT) + cmd, check=True,
                                  capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None  # not a git checkout

    status = git("status", "--porcelain")
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": version("numpy"), "git_commit": git("rev-parse", "HEAD"),
            "git_dirty": bool(status) if status is not None else None,
            "loadavg_1m_start": os.getloadavg()[0]}


def _stat(samples: List[float], unit: str) -> Dict[str, Any]:
    return {"unit": unit, "n": len(samples), "min": min(samples),
            "median": statistics.median(samples), "max": max(samples),
            "samples": samples}


def full_main(args, spec) -> int:
    names = args.workload or [w["name"] for w in spec["workloads"]]
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    host = fingerprint()
    if host["loadavg_1m_start"] > host["nproc"]:
        print(f"warning: load average {host['loadavg_1m_start']:.2f} exceeds "
              f"{host['nproc']} cores; wall-clock numbers will be noisy")
    results: Dict[str, Any] = {}
    any_failed = False
    for name in names:
        print(f"\n== {name}: {why.get(name, '')}")
        reps = measure(name, args.seed, args.smoke, reps=args.reps)
        traced_rep = (spawn(name, args.seed, args.smoke, "traced")
                      if _in_process(name) and not args.no_trace else None)
        summary = summarize(reps, traced_rep)
        e2e = {m: _stat(v, E2E_UNITS[m])
               for m, v in summary["samples"].items() if v}
        layer = layer_metrics(reps[0], traced_rep,
                              e2e.get("wall_s", {}).get("median"))
        if summary["virtual_repr"] is not None:
            e2e["virtual_ms"]["repr"] = summary["virtual_repr"]
        for metric, st in e2e.items():
            print(f"  {metric:42s} {st['median']:14.6g} {st['unit']:6s}"
                  f" min {st['min']:.6g} max {st['max']:.6g} n={st['n']}")
        for metric in sorted(layer):
            print(f"  {metric:42s} {layer[metric]:14.6g} "
                  f"{layer_units.get(metric, ''):6s}")
        for line in summary["failures"]:
            print(f"  FAILED: {line}")
        any_failed |= summary["failed"] > 0
        results[name] = {
            "e2e": e2e,
            "layer": {m: {"value": v, "unit": layer_units.get(m, "")}
                      for m, v in layer.items()},
            "attempted": summary["attempted"], "failed": summary["failed"],
            "failures": summary["failures"]}
    host["loadavg_1m_end"] = os.getloadavg()[0]
    if host["loadavg_1m_end"] > host["nproc"]:
        print(f"warning: load average {host['loadavg_1m_end']:.2f} exceeds "
              f"{host['nproc']} cores at the end of the run")
    doc = {"claim": None, "host": host,
           "args": {"seed": args.seed, "reps": args.reps, "smoke": args.smoke,
                    "trace": not args.no_trace},
           "workloads": results}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
    print(f"\nresults written to {args.out}")
    return 1 if any_failed else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append",
                   help="run only this workload (repeatable; default all)")
    p.add_argument("--reps", type=int, default=3,
                   help="untraced repetitions per workload (default 3)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, for the self-test only")
    p.add_argument("--no-trace", action="store_true",
                   help="skip the traced repetition (no layer budget)")
    p.add_argument("--out", default=os.path.join(ROOT, ".e2e_tmp", "results.json"),
                   help="results JSON path")
    p.add_argument("--seconds", type=float,
                   help="driver mode: measure one --workload for this long")
    p.add_argument("--trace", type=int, choices=(0, 1),
                   help="driver mode: 0 end-to-end metrics, 1 per-layer")
    p.add_argument("--child", help=argparse.SUPPRESS)
    p.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program under test is not at {SRC}/repro",
              file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    for name in args.workload or ():
        if name not in known:
            p.error(f"unknown workload {name!r}; choose from {known}")
    if args.seconds is not None or args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            p.error("--seconds/--trace measure exactly one --workload")
        args.seconds = args.seconds or 0.0
        return driver_main(args, spec)
    return full_main(args, spec)


if __name__ == "__main__":
    sys.exit(main())
