"""Command-line driver: reproduce any paper figure without pytest.

Usage (after ``pip install -e .``)::

    python -m repro list                  # what can be reproduced
    python -m repro fig5                  # regenerate Fig. 5's table
    python -m repro fig7 --nodes 1 2 4    # custom sweep points
    python -m repro validate              # run every app's correctness check
    python -m repro run --backend procs   # digest workloads on real processes
    python -m repro platform titan        # print a machine's platform JSON

Each figure command builds the same sweep as its ``benchmarks/bench_*.py``
counterpart and prints the virtual-time table; ``validate`` runs the
small-scale correctness harness for all five applications (serial-oracle
comparisons, Graph500 validator, UTS exact counts).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Sequence

import numpy as np


def cmd_list(_args) -> int:
    print(__doc__)
    print("figures: fig4 (HPGMG-FV), fig5 (ISx), fig6 (GEO), fig7 (UTS), "
          "g500 (Graph500)")
    return 0


def _sweep_fig(fig: str, nodes: List[int]) -> None:
    from repro.bench import Series, cluster_for, sweep
    from repro.distrib import spmd_run

    if fig == "fig4":
        from repro.apps.hpgmg import HpgmgConfig, hpgmg_main
        from repro.mpi import mpi_factory
        from repro.upcxx import upcxx_factory

        cfg = HpgmgConfig(box_dim=8, boxes_xy=2, boxes_z_per_rank=2, cycles=4)

        def make(variant):
            def run(n):
                return spmd_run(
                    hpgmg_main(variant, cfg),
                    cluster_for("titan", n, layout="hybrid"),
                    module_factories=[mpi_factory(), upcxx_factory()])
            return run

        cells = cfg.nz_local * cfg.nx * cfg.ny
        sw = sweep(
            "Fig 4 — HPGMG-FV weak scaling (MDOF/s, higher is better)",
            [Series("reference", make("reference")),
             Series("hiper", make("hiper"))],
            nodes,
            metric=lambda r: cells * r.nranks * cfg.cycles / r.makespan / 1e6,
            unit="MDOF/s",
        )
    elif fig == "fig5":
        from repro.apps.isx import IsxConfig, isx_main
        from repro.shmem import shmem_factory

        keys, bs, cores = 1 << 11, 1 << 7, 16

        def flat(n):
            return spmd_run(
                isx_main("flat", IsxConfig(keys_per_pe=keys, byte_scale=bs)),
                cluster_for("titan", n, layout="flat"),
                module_factories=[shmem_factory(direct=True)])

        def hybrid(variant):
            def run(n):
                return spmd_run(
                    isx_main(variant, IsxConfig(keys_per_pe=keys * cores,
                                                byte_scale=bs)),
                    cluster_for("titan", n, layout="hybrid"),
                    module_factories=[shmem_factory()])
            return run

        sw = sweep(
            "Fig 5 — ISx weak scaling (ms)",
            [Series("flat", flat), Series("hybrid", hybrid("hybrid")),
             Series("hiper", hybrid("hiper"))],
            nodes,
        )
    elif fig == "fig6":
        from repro.apps.geo import GeoConfig, geo_main
        from repro.cuda import cuda_factory
        from repro.mpi import mpi_factory

        cfg = GeoConfig(nx=48, ny=48, nz=48, timesteps=4)

        def make(variant):
            def run(n):
                return spmd_run(
                    geo_main(variant, cfg),
                    cluster_for("titan", n, layout="hybrid"),
                    module_factories=[mpi_factory(), cuda_factory()])
            return run

        sw = sweep(
            "Fig 6 — GEO weak scaling (ms)",
            [Series(v, make(v)) for v in ("mpi_omp", "mpi_cuda", "hiper")],
            nodes,
        )
    elif fig == "fig7":
        from repro.apps.uts import UtsConfig, sequential_count, uts_main
        from repro.shmem import shmem_factory

        cfg = UtsConfig(root_children=3000, mean_children=0.97, seed=1,
                        node_cost=2e-6)
        oracle = sequential_count(cfg)

        def make(variant):
            def run(n):
                res = spmd_run(
                    uts_main(variant, cfg),
                    cluster_for("titan", n, layout="hybrid"),
                    module_factories=[shmem_factory()])
                assert sum(res.results) == oracle
                return res
            return run

        sw = sweep(
            f"Fig 7 — UTS strong scaling (ms, tree={oracle} nodes)",
            [Series(v, make(v)) for v in ("shmem_omp", "omp_tasks", "hiper")],
            nodes,
        )
    elif fig == "g500":
        from repro.apps.graph500 import Graph500Config, graph500_main
        from repro.mpi import mpi_factory
        from repro.shmem import shmem_factory

        cfg = Graph500Config(scale=12)

        def make(variant):
            def run(n):
                return spmd_run(
                    graph500_main(variant, cfg),
                    cluster_for("edison", n, layout="hybrid", workers_cap=8),
                    module_factories=[mpi_factory(), shmem_factory()])
            return run

        sw = sweep(
            f"Graph500 strong scaling (ms, scale={cfg.scale})",
            [Series("mpi", make("mpi")), Series("hiper", make("hiper"))],
            nodes,
        )
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(fig)
    print(sw.table())


def cmd_figure(args) -> int:
    t0 = time.perf_counter()
    _sweep_fig(args.figure, list(args.nodes))
    print(f"(simulated in {time.perf_counter() - t0:.1f}s wall)")
    return 0


def cmd_validate(_args) -> int:
    """Small-scale correctness pass over all five applications."""
    from repro.bench import cluster_for
    from repro.cuda import cuda_factory
    from repro.distrib import ClusterConfig, spmd_run
    from repro.mpi import mpi_factory
    from repro.platform import machine
    from repro.shmem import shmem_factory
    from repro.upcxx import upcxx_factory

    failures = 0

    def check(name, fn):
        nonlocal failures
        t0 = time.perf_counter()
        try:
            fn()
            print(f"  {name:<12s} OK   ({time.perf_counter() - t0:.1f}s)")
        except Exception as exc:  # noqa: BLE001 - report and continue
            failures += 1
            print(f"  {name:<12s} FAIL {type(exc).__name__}: {exc}")

    cluster = ClusterConfig(nodes=4, ranks_per_node=1, workers_per_rank=4,
                            machine=machine("titan"))

    def geo():
        from repro.apps.geo import GeoConfig, check_result, geo_main
        cfg = GeoConfig(nx=10, ny=10, nz=8, timesteps=4)
        for v in ("mpi_omp", "mpi_cuda", "hiper"):
            res = spmd_run(geo_main(v, cfg), cluster,
                           module_factories=[mpi_factory(), cuda_factory()])
            check_result(cfg, res.results)

    def isx():
        from repro.apps.isx import IsxConfig, isx_main, validate_isx
        cfg = IsxConfig(keys_per_pe=1500)
        res = spmd_run(isx_main("hiper", cfg), cluster,
                       module_factories=[shmem_factory()])
        validate_isx(cfg, res.nranks, res.results)

    def uts():
        from repro.apps.uts import UtsConfig, sequential_count, uts_main
        cfg = UtsConfig(root_children=200, mean_children=0.9)
        oracle = sequential_count(cfg)
        for v in ("hiper", "shmem_omp", "omp_tasks"):
            res = spmd_run(uts_main(v, cfg), cluster,
                           module_factories=[shmem_factory()])
            assert sum(res.results) == oracle, v

    def g500():
        from repro.apps.graph500 import (Graph500Config, block_bounds,
                                         build_csr, graph500_main,
                                         kronecker_edges, pick_root,
                                         validate_bfs)
        cfg = Graph500Config(scale=8)
        edges = kronecker_edges(cfg)
        for v in ("mpi", "hiper"):
            res = spmd_run(graph500_main(v, cfg), cluster,
                           module_factories=[mpi_factory(), shmem_factory()])
            parent = np.full(cfg.nvertices, -1, dtype=np.int64)
            for r, blk in enumerate(res.results):
                lo, hi = block_bounds(cfg.nvertices, res.nranks, r)
                parent[lo:hi] = blk
            rows, _ = build_csr(edges, cfg.nvertices)
            assert validate_bfs(cfg, edges, pick_root(cfg, rows), parent) > 0

    def hpgmg():
        from repro.apps.hpgmg import HpgmgConfig, hpgmg_main
        cfg = HpgmgConfig(box_dim=8, boxes_xy=1, boxes_z_per_rank=1, cycles=6)
        for v in ("reference", "hiper"):
            res = spmd_run(hpgmg_main(v, cfg), cluster,
                           module_factories=[mpi_factory(), upcxx_factory()])
            hist = res.results[0][0]
            assert hist[-1] < hist[0] * 1e-3, v

    print("validating all applications against their oracles:")
    check("GEO", geo)
    check("ISx", isx)
    check("UTS", uts)
    check("Graph500", g500)
    check("HPGMG-FV", hpgmg)
    return 1 if failures else 0


def _profile_target(fig: str, scale: float):
    """One representative (HiPER-variant) run per figure for profiling."""
    from repro.apps import presets
    from repro.bench import cluster_for

    if fig == "fig4":
        from repro.apps.hpgmg import hpgmg_main
        from repro.mpi import mpi_factory
        from repro.upcxx import upcxx_factory

        cfg = presets.hpgmg_paper(scale)
        cfg.cycles = 4
        return (hpgmg_main("hiper", cfg),
                cluster_for("titan", 2, layout="hybrid"),
                [mpi_factory(), upcxx_factory()])
    if fig == "fig5":
        from repro.apps.isx import isx_main
        from repro.shmem import shmem_factory

        return (isx_main("hiper", presets.isx_weak_scaling(scale)),
                cluster_for("titan", 2, layout="hybrid"),
                [shmem_factory()])
    if fig == "fig6":
        from repro.apps.geo import geo_main
        from repro.cuda import cuda_factory
        from repro.mpi import mpi_factory

        return (geo_main("hiper", presets.geo_weak_scaling(scale)),
                cluster_for("titan", 2, layout="hybrid"),
                [mpi_factory(), cuda_factory()])
    if fig == "fig7":
        from repro.apps.uts import uts_main
        from repro.shmem import shmem_factory

        return (uts_main("hiper", presets.uts_t1xxl(scale)),
                cluster_for("titan", 2, layout="hybrid"),
                [shmem_factory()])
    if fig == "g500":
        from repro.apps.graph500 import graph500_main
        from repro.mpi import mpi_factory
        from repro.shmem import shmem_factory

        return (graph500_main("hiper", presets.graph500_reference(10)),
                cluster_for("edison", 2, layout="hybrid", workers_cap=8),
                [mpi_factory(), shmem_factory()])
    raise ValueError(fig)  # pragma: no cover - argparse restricts choices


def cmd_profile(args) -> int:
    """Run one figure's HiPER variant under full instrumentation and write
    ``metrics.json`` + ``trace.json`` (Perfetto-loadable) to ``--out``."""
    from repro.tools import profile_spmd

    main_fn, cluster, factories = _profile_target(args.figure, args.scale)
    t0 = time.perf_counter()
    report = profile_spmd(main_fn, cluster, module_factories=factories,
                          out_dir=args.out, shards=args.shards)
    m = report.metrics
    print(f"profiled {args.figure} on {m['nranks']} ranks: "
          f"makespan {m['makespan'] * 1e3:.3f} ms (virtual), "
          f"utilization {m['utilization']:.1%}, "
          f"{m['trace_events']} trace events "
          f"({time.perf_counter() - t0:.1f}s wall)")
    sim = m["sim"]
    print(f"  {'engine':>10s}: {sim['engine']} — "
          f"{sim['events_processed']} events, "
          f"{sim['events_per_sec'] / 1e3:.0f}k events/s")
    if "shards" in m:
        sh = m["shards"]
        print(f"  {'shards':>10s}: {sh['nshards']} procs, "
              f"{sh['windows']} windows, "
              f"{sh['cross_shard_msgs']} cross-shard msgs "
              f"({sh['cross_shard_bytes']} bytes)")
        for t in sh["per_shard"]:
            print(f"  {'shard ' + str(t['shard']):>10s}: "
                  f"{t['events_processed']} events, "
                  f"barrier idle {t['idle_wall_s'] * 1e3:.0f} ms wall")
    for ch, rec in sorted(m["comm_volume"].items()):
        print(f"  {ch:>10s}: {int(rec['messages'])} msgs, "
              f"{int(rec['bytes'])} bytes")
    print(f"wrote {report.metrics_path} and {report.trace_path}")
    return 0


def cmd_chaos(args) -> int:
    """Run one figure's HiPER variant under a seeded fault plan and report
    the fault/retry/recovery telemetry; optionally write the fault log,
    metrics, and Chrome trace to ``--out``. Same seed + same plan => the
    identical fault sequence, so chaos runs are replayable."""
    import json
    import os

    from repro.distrib import spmd_run
    from repro.exec.sim import SimExecutor
    from repro.resilience import FaultInjector, FaultPlan
    from repro.tools import TraceRecorder

    plan = FaultPlan.load(args.plan, seed=args.seed)
    injector = FaultInjector(plan)
    main_fn, cluster, factories = _profile_target(args.figure, args.scale)
    ex = SimExecutor()
    tracer = TraceRecorder()
    ex.attach_tracer(tracer)
    t0 = time.perf_counter()
    res = spmd_run(main_fn, cluster, module_factories=factories,
                   executor=ex, fault_injector=injector)

    merged = res.merged_stats()
    retries = sum(v for (_m, op), v in merged.counters.items()
                  if op == "retries")
    counts = injector.counts()
    print(f"chaos {args.figure} [{args.plan}, seed={plan.seed}] on "
          f"{res.nranks} ranks: makespan {res.makespan * 1e3:.3f} ms "
          f"(virtual), {len(injector.events)} faults injected, "
          f"{retries} retries ({time.perf_counter() - t0:.1f}s wall)")
    for kind in sorted(counts):
        print(f"  {kind:>18s}: {counts[kind]}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        injector.save_log(os.path.join(args.out, "fault_log.json"))
        tracer.save_chrome_trace(os.path.join(args.out, "trace.json"))
        metrics = {
            "figure": args.figure, "plan": args.plan, "seed": plan.seed,
            "nranks": res.nranks, "makespan": res.makespan,
            "faults": counts, "retries": retries,
            "results_ok": all(r is not None for r in res.results),
        }
        mpath = os.path.join(args.out, "metrics.json")
        with open(mpath, "w", encoding="utf-8") as fh:
            json.dump(metrics, fh, indent=1)
        print(f"wrote {args.out}/fault_log.json, metrics.json, trace.json")
    return 0


def cmd_verify(args) -> int:
    """Concurrency correctness harness (``repro.verify``): seeded schedule
    exploration with race detection, a planted-race self-check, and the
    sim↔threaded differential. Exit code is nonzero iff anything failed.
    Failing interleavings are written as replayable JSON artifacts when
    ``--out`` is given; any reported seed reproduces bit-for-bit via
    ``repro verify --strategy <s> --seeds 1 --first-seed <seed>``."""
    import os

    from repro.tools.schedule import artifact_from_outcome, save_schedule
    from repro.verify import (WORKLOADS, differential,
                              isx_coalescing_differential,
                              isx_engine_differential,
                              isx_sharded_differential, replay_schedule,
                              run_once)
    from repro.verify.strategies import STRATEGIES

    failures = 0
    strategies = sorted(STRATEGIES) if args.strategy == "all" else [args.strategy]

    def dump(outcome, tag):
        if not args.out:
            return
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"failing-schedule-{tag}.json")
        save_schedule(artifact_from_outcome(
            outcome, workers=args.workers, planted=args.planted), path)
        print(f"    wrote {path}")

    if args.replay:
        from repro.tools.schedule import load_schedule

        art = load_schedule(args.replay)
        print(f"replaying {args.replay} (strategy={art.strategy} "
              f"seed={art.seed}, {len(art.schedule)} steps)")
        out = replay_schedule(art.schedule, workers=art.workers,
                              planted=art.planted)
        print(out.describe())
        if out.digest != art.digest:
            print(f"  digest drift: {out.digest[:16]} != {art.digest[:16]} "
                  "(code changed since the artifact was recorded)")
        return 0 if out.ok == (not art.races and not art.violations) else 1

    t0 = time.perf_counter()
    # 1. self-check: the planted race in the known-buggy fixture MUST be
    #    rediscovered (detector ground truth).
    if not args.skip_selfcheck:
        found = None
        for seed in range(args.selfcheck_seeds):
            out = run_once("random", seed, workers=args.workers, planted=True)
            if out.races:
                found = out
                break
        if found is None:
            failures += 1
            print(f"  self-check   FAIL planted race not found in "
                  f"{args.selfcheck_seeds} seeds")
        else:
            again = run_once("random", found.seed, workers=args.workers,
                             planted=True)
            bit = "bit-for-bit" if again.digest == found.digest else \
                "DIGEST MISMATCH"
            print(f"  self-check   OK   planted race found at seed "
                  f"{found.seed}, replay {bit}")
            if again.digest != found.digest:
                failures += 1

    # 2. schedule exploration on the production core.
    for strat in strategies:
        bad = None
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            out = run_once(strat, seed, workers=args.workers,
                           planted=args.planted)
            if not out.ok:
                bad = out
                break
        if bad is None:
            print(f"  hunt:{strat:<7s} OK   {args.seeds} seeds clean")
        else:
            failures += 1
            print(f"  hunt:{strat:<7s} FAIL seed {bad.seed} "
                  f"(digest {bad.digest[:16]}):")
            print("    " + bad.describe().replace("\n", "\n    "))
            dump(bad, strat)

    # 3. differential: same workload, different engines, same answer; then
    #    the same SPMD ISx exchange two ways with equal per-rank digests —
    #    message coalescing off vs. on, the reference engine vs. production
    #    (makespans bit-identical too: the event queue's correctness gate),
    #    single-shard vs. conservative-window OS-process shards.
    if not args.skip_differential:
        checks = [(wl, lambda wl=wl: differential(
            wl, engines=tuple(args.engines), workers=args.workers))
            for wl in sorted(WORKLOADS)]
        checks += [("isx-coal", isx_coalescing_differential),
                   ("isx-eng", isx_engine_differential),
                   ("isx-shard", isx_sharded_differential)]
        for tag, check in checks:
            rep = check()
            mark = "OK  " if rep.ok else "FAIL"
            print(f"  diff:{tag:<9s}{mark} "
                  f"{'/'.join(r.engine for r in rep.runs)}")
            if not rep.ok:
                failures += 1
                print("    " + rep.describe().replace("\n", "\n    "))

    print(f"({failures} failure(s), {time.perf_counter() - t0:.1f}s wall)")
    return 1 if failures else 0


def cmd_run(args) -> int:
    """Run the digest workloads on one execution backend.

    ``--backend sim|threads`` runs the single-runtime task-parallel form
    inside this process; ``--backend procs`` runs the SPMD twin across real
    OS processes — one per rank, SHMEM heap on POSIX shared memory, puts
    and collectives over a Unix-socket fabric. The three backends' digests
    agree by construction, so this doubles as a cross-backend spot check.
    """
    from repro.exec.procs import ProcessExecutor
    from repro.exec.sim import SimExecutor
    from repro.util.errors import ConfigError
    from repro.verify import WORKLOADS, run_on_engine
    from repro.verify.spmd_workloads import SPMD_WORKLOADS, run_spmd_workload

    if args.shards < 1:
        raise ConfigError(f"--shards must be >= 1, got {args.shards}")
    if args.shards != 1 and args.backend != "sim":
        raise ConfigError(
            f"--shards applies to the sim backend only, not "
            f"--backend {args.backend} (the procs backend is already one "
            "process per rank)")
    # The executor picks where an SPMD twin's ranks run. A typo'd launcher
    # fails here, before anything runs, not once per app.
    executor, where = None, ""
    if args.backend == "procs":
        executor = ProcessExecutor(launcher=args.launcher,
                                   timeout=args.timeout)
        where = f"via {args.launcher}"
    elif args.shards > 1:
        executor = SimExecutor(shards=args.shards)
        where = f"across {args.shards} shards"
    spmd = executor is not None
    names = SPMD_WORKLOADS if spmd else WORKLOADS  # isx-dag has no SPMD twin
    apps = sorted(names) if args.app == "all" else [args.app]
    failures = 0
    for app in apps:
        t0 = time.perf_counter()
        try:
            if spmd:
                digest, res = run_spmd_workload(
                    app, executor, nranks=args.ranks,
                    workers_per_rank=args.workers)
                extra = f"{res.nranks} ranks {where}"
            else:
                run = run_on_engine(WORKLOADS[app](), args.backend,
                                    workers=args.workers)
                digest = run.result
                extra = f"{args.workers} workers in-process"
            print(f"  {app:<9s} OK   {digest}  "
                  f"[{args.backend}: {extra}, "
                  f"{time.perf_counter() - t0:.2f}s wall]")
        except Exception as exc:  # noqa: BLE001 - report and continue
            failures += 1
            print(f"  {app:<9s} FAIL {type(exc).__name__}: {exc}")
    return 1 if failures else 0


def cmd_procs_worker(args) -> int:
    """(internal) Entry point of a child started by exec.

    ``repro.launch.Child`` starts it as ``python -m repro procs-worker
    <fd>``, ``fd`` being the inherited end of the child's control link; what
    to run arrives as the link's first frame. Never returns.
    """
    from repro.launch import exec_main

    exec_main(args.fd)


def cmd_platform(args) -> int:
    from repro.platform import discover, machine

    model = discover(machine(args.machine), detail=args.detail)
    print(model.to_json())
    return 0


def cmd_bench_record(args) -> int:
    """Run one suite's micro-benchmarks and append the results (ops/sec per
    bench, commit hash, date) to the suite's committed perf ledger."""
    from repro.bench.record import SUITES, format_entry, load_ledger, record

    t0 = time.perf_counter()
    entry = record(out=args.out, label=args.label, fast=args.fast,
                   keyword=args.keyword, suite=args.suite)
    ledger = load_ledger(args.out) if args.out else None
    baseline = ledger[0] if ledger and len(ledger) > 1 else None
    print(format_entry(entry, baseline))
    print(f"({len(entry['benchmarks'])} benchmarks in "
          f"{time.perf_counter() - t0:.1f}s wall; appended to "
          f"{args.out or SUITES[args.suite]['ledger']})")
    return 0


def cmd_serve(args) -> int:
    """Run the long-lived job gateway (``repro.service``) as a daemon.

    Holds warm executor pools (one worker process per slot, forked before
    the first thread starts) and serves the JSON job API over a
    Unix-domain socket (default) or TCP. SIGINT/SIGTERM triggers a
    graceful drain: intake stops, accepted jobs finish, then the process
    exits. A second signal hard-stops.
    """
    import signal

    from repro.resilience import Backoff, RetryPolicy
    from repro.service import JobGateway, ServiceConfig, ServiceServer

    cfg = ServiceConfig(
        backends=tuple(args.backends), pool_size=args.pool_size,
        workers=args.workers, warm=not args.cold,
        max_queue_per_tenant=args.queue_cap,
        cache_capacity=args.cache_capacity,
        retry=RetryPolicy(max_attempts=args.retries,
                          backoff=Backoff(base=1e-3, max_delay=2e-2)))
    gateway = JobGateway(cfg)
    if args.host is not None:
        server = ServiceServer(gateway, host=args.host, port=args.port)
    else:
        server = ServiceServer(gateway, uds=args.uds)
    server.start()
    pids = [w["pid"] for w in gateway.stats_dict()["pool"]]
    print(f"repro-service listening on {server.address} "
          f"(backends={list(cfg.backends)}, pool={cfg.pool_size}/backend, "
          f"{'warm' if cfg.warm else 'cold'} pools, "
          f"worker pids {pids})", flush=True)

    signals = {"n": 0}

    def on_signal(_sig, _frm):
        signals["n"] += 1
        if signals["n"] > 1:
            raise KeyboardInterrupt

    signal.signal(signal.SIGINT, on_signal)
    signal.signal(signal.SIGTERM, on_signal)
    try:
        # Exit on SIGINT/SIGTERM *or* when a client POSTs /drain — the
        # latter is the portable remote-shutdown path.
        while not signals["n"] and not gateway.draining:
            time.sleep(0.2)
        print("draining: intake stopped, finishing accepted jobs "
              "(signal again to hard-stop)")
        gateway.drain(timeout=args.drain_timeout)
    except KeyboardInterrupt:
        print("hard stop")
    finally:
        server.stop()
    done = gateway.stats.counter("service", "jobs_completed")
    print(f"repro-service stopped ({int(done)} jobs completed)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro", description="HiPER reproduction driver")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show what can be reproduced"
                   ).set_defaults(fn=cmd_list)

    for fig in ("fig4", "fig5", "fig6", "fig7", "g500"):
        fp = sub.add_parser(fig, help=f"regenerate {fig}")
        fp.add_argument("--nodes", type=int, nargs="+",
                        default=[1, 2, 4, 8])
        fp.set_defaults(fn=cmd_figure, figure=fig)

    sub.add_parser("validate", help="run every app's correctness check"
                   ).set_defaults(fn=cmd_validate)

    prof = sub.add_parser(
        "profile", help="run one figure instrumented; emit metrics + trace")
    prof.add_argument("figure",
                      choices=["fig4", "fig5", "fig6", "fig7", "g500"])
    prof.add_argument("--out", default="profile-out",
                      help="output directory for metrics.json / trace.json")
    prof.add_argument("--scale", type=float, default=1.0,
                      help="preset workload scale (1.0 = benchmark size)")
    prof.add_argument("--shards", type=int, default=1,
                      help="OS-process shards for the simulator (1 = "
                           "single-process; >1 runs the conservative-window "
                           "sharded engine and reports window telemetry)")
    prof.set_defaults(fn=cmd_profile)

    br = sub.add_parser(
        "bench-record",
        help="run runtime micro-benchmarks; append ops/sec to the perf ledger")
    from repro.bench.record import SUITES as _suites
    br.add_argument("--suite", default="scheduler",
                    choices=sorted(_suites),
                    help="benchmark suite / ledger to record")
    br.add_argument("--out", default=None,
                    help="ledger path (default: the suite's ledger at the "
                         "repo root)")
    br.add_argument("--label", default="",
                    help="entry label (e.g. 'post-overhaul')")
    br.add_argument("--fast", action="store_true",
                    help="run only the CI perf-smoke subset")
    br.add_argument("-k", dest="keyword", default=None,
                    help="pytest -k expression selecting benchmarks")
    br.set_defaults(fn=cmd_bench_record)

    ch = sub.add_parser(
        "chaos", help="run one figure under a seeded fault plan")
    ch.add_argument("figure",
                    choices=["fig4", "fig5", "fig6", "fig7", "g500"])
    ch.add_argument("--plan", default="mixed",
                    help="preset (drop/delay/corrupt/mixed) or JSON spec file")
    ch.add_argument("--seed", type=int, default=0,
                    help="fault-plan seed (same seed => same fault sequence)")
    ch.add_argument("--scale", type=float, default=0.25,
                    help="preset workload scale (1.0 = benchmark size)")
    ch.add_argument("--out", default=None,
                    help="directory for fault_log.json / metrics.json / "
                         "trace.json")
    ch.set_defaults(fn=cmd_chaos)

    vf = sub.add_parser(
        "verify",
        help="concurrency harness: schedule exploration + race detection + "
             "sim/threaded differential")
    vf.add_argument("--strategy", default="all",
                    choices=["random", "pct", "pbound", "all"],
                    help="exploration strategy (default: all three)")
    vf.add_argument("--seeds", type=int, default=25,
                    help="seeds to sweep per strategy")
    vf.add_argument("--first-seed", type=int, default=0,
                    help="first seed of the sweep (reproduce a report with "
                         "--seeds 1 --first-seed <seed>)")
    vf.add_argument("--workers", type=int, default=4)
    vf.add_argument("--planted", action="store_true",
                    help="hunt on the known-buggy fixture (expected to FAIL)")
    vf.add_argument("--engines", nargs="+", default=["sim", "threads"],
                    choices=["sim", "ref-sim", "threads", "interleave",
                             "procs", "sharded"],
                    help="engines for the differential check (ref-sim = "
                         "the test-only seed engine, procs = multiprocess "
                         "SPMD backend, sharded = conservative-window "
                         "multi-process DES)")
    vf.add_argument("--skip-differential", action="store_true")
    vf.add_argument("--skip-selfcheck", action="store_true",
                    help="skip the planted-race detector self-check")
    vf.add_argument("--selfcheck-seeds", type=int, default=10)
    vf.add_argument("--out", default=None,
                    help="directory for failing-schedule JSON artifacts")
    vf.add_argument("--replay", default=None, metavar="ARTIFACT",
                    help="replay a saved failing-schedule artifact instead")
    vf.set_defaults(fn=cmd_verify)

    rn = sub.add_parser(
        "run",
        help="run the digest workloads on one backend (sim/threads/procs)")
    rn.add_argument("--backend", default="procs",
                    choices=["sim", "threads", "procs"],
                    help="execution backend (default: procs — one OS "
                         "process per rank)")
    rn.add_argument("--app", default="all",
                    choices=["isx", "uts", "graph500", "all"])
    rn.add_argument("--ranks", type=int, default=4,
                    help="SPMD ranks (procs backend and sharded sim)")
    rn.add_argument("--workers", type=int, default=2,
                    help="workers per rank (procs) / pool size (sim, "
                         "threads)")
    rn.add_argument("--launcher", default="local",
                    help="how the procs backend starts its rank processes: "
                         "local (fork) or subprocess (exec)")
    rn.add_argument("--shards", type=int, default=1,
                    help="OS-process shards for the sim backend (>1 runs "
                         "the SPMD twin on the conservative-window sharded "
                         "engine)")
    rn.add_argument("--timeout", type=float, default=300.0,
                    help="end-to-end timeout per workload (procs), seconds")
    rn.set_defaults(fn=cmd_run)

    sv = sub.add_parser(
        "serve",
        help="run the long-lived job gateway with warm executor pools")
    sv.add_argument("--uds", default=None,
                    help="Unix-domain socket path (default: "
                         "./repro-service.sock)")
    sv.add_argument("--host", default=None,
                    help="listen on TCP host:port instead of a UDS")
    sv.add_argument("--port", type=int, default=0,
                    help="TCP port (0 = ephemeral; with --host only)")
    sv.add_argument("--backends", nargs="+", default=["sim"],
                    choices=["sim", "threads", "procs"],
                    help="backends to run pool slots for")
    sv.add_argument("--pool-size", type=int, default=2,
                    help="warm entries (= worker processes) per backend")
    sv.add_argument("--workers", type=int, default=4,
                    help="runtime workers per warm entry")
    sv.add_argument("--cold", action="store_true",
                    help="disable warm pools (construct/tear down a runtime "
                         "per job)")
    sv.add_argument("--queue-cap", type=int, default=256,
                    help="max queued jobs per tenant before 429 rejection")
    sv.add_argument("--cache-capacity", type=int, default=1024,
                    help="result-cache entries (LRU)")
    sv.add_argument("--retries", type=int, default=3,
                    help="max attempts per job (failures retry per the "
                         "resilience policy)")
    sv.add_argument("--drain-timeout", type=float, default=120.0,
                    help="seconds to wait for in-flight jobs on shutdown")
    sv.set_defaults(fn=cmd_serve)

    # Internal: entry point of children started by exec. No help= on
    # purpose — it's not part of the user-facing surface.
    pw = sub.add_parser("procs-worker")
    pw.add_argument("fd", type=int,
                    help="inherited descriptor of the control link")
    pw.set_defaults(fn=cmd_procs_worker)

    pp = sub.add_parser("platform", help="print a machine's platform JSON")
    pp.add_argument("machine", choices=["edison", "titan", "workstation"])
    pp.add_argument("--detail", default="numa",
                    choices=["flat", "numa", "full"])
    pp.set_defaults(fn=cmd_platform)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.util.errors import ConfigError

    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        # Bad names (figure, plan, launcher, backend...) are user errors:
        # print the message — which lists the valid choices — and exit 2,
        # matching argparse's own exit code for bad arguments.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
