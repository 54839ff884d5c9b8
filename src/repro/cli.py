"""Command-line driver: reproduce any paper figure without pytest.

Usage (after ``pip install -e .``)::

    python -m repro list                  # what can be reproduced
    python -m repro fig5                  # regenerate Fig. 5's table
    python -m repro fig7 --nodes 1 2 4    # custom sweep points
    python -m repro validate              # every app's variants on sim
    python -m repro run --backend procs   # ... on one OS process per rank
    python -m repro platform titan        # print a machine's platform JSON

Every command that runs an app takes it from ``repro.apps.registry``, and
every figure from ``repro.apps.figures`` (the table the figure benches in
``benchmarks/`` read too): a figure command prints that figure's
virtual-time table. ``validate`` runs every variant of all five apps at a
small size and checks each against its app's oracle (serial references, the
Graph500 validator, UTS's exact count) and the variants against each other.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from repro.apps.figures import FIGURES


def cmd_list(_args) -> int:
    print(__doc__)
    print("figures: " + ", ".join(f"{name} ({f.app})"
                                  for name, f in FIGURES.items()))
    return 0


def cmd_figure(args) -> int:
    t0 = time.perf_counter()
    print(FIGURES[args.figure].sweep(args.nodes).table())
    print(f"(simulated in {time.perf_counter() - t0:.1f}s wall)")
    return 0


def cmd_profile(args) -> int:
    """Run one figure's HiPER variant under full instrumentation and write
    ``metrics.json`` + ``trace.json`` (Perfetto-loadable) to ``--out``."""
    from repro.tools import profile_spmd

    main_fn, cluster, factories, _ = FIGURES[args.figure].target(args.scale)
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
    """Run one figure's HiPER variant under a seeded fault plan, check it
    with the app's oracle, and report the fault/retry/recovery telemetry;
    optionally write the fault log, metrics, and Chrome trace to ``--out``.
    Same seed + same plan => the identical fault sequence, so chaos runs
    are replayable. Exit code 1 iff the run fails or the oracle rejects
    it."""
    import json
    import os

    from repro.apps.registry import APPS
    from repro.distrib import spmd_run
    from repro.exec.sim import SimExecutor
    from repro.resilience import FaultInjector, FaultPlan
    from repro.tools import TraceRecorder

    plan = FaultPlan.load(args.plan, seed=args.seed)
    injector = FaultInjector(plan)
    fig = FIGURES[args.figure]
    main_fn, cluster, factories, cfg = fig.target(args.scale)
    ex = SimExecutor()
    tracer = TraceRecorder()
    ex.attach_tracer(tracer)
    t0 = time.perf_counter()
    res = makespan = retries = failure = None
    try:
        res = spmd_run(main_fn, cluster, module_factories=factories,
                       executor=ex, fault_injector=injector)
        APPS[fig.app].answer(cfg, res.results)
    except Exception as exc:  # noqa: BLE001 - report a failed or wrong run
        failure = (f"{'run failed' if res is None else 'wrong answer'}: "
                   f"{type(exc).__name__}: {exc}")
    counts = injector.counts()
    summary = f"{len(injector.events)} faults injected"
    if res is not None:
        makespan = res.makespan
        retries = sum(v for (_m, op), v in res.merged_stats().counters.items()
                      if op == "retries")
        summary = (f"makespan {makespan * 1e3:.3f} ms (virtual), {summary}, "
                   f"{retries} retries")
    print(f"chaos {args.figure} [{args.plan}, seed={plan.seed}] on "
          f"{cluster.nranks} ranks: {summary} "
          f"({time.perf_counter() - t0:.1f}s wall)")
    for kind in sorted(counts):
        print(f"  {kind:>18s}: {counts[kind]}")
    if failure:
        print(f"  {failure}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        injector.save_log(os.path.join(args.out, "fault_log.json"))
        tracer.save_chrome_trace(os.path.join(args.out, "trace.json"))
        metrics = {
            "figure": args.figure, "plan": args.plan, "seed": plan.seed,
            "nranks": cluster.nranks, "makespan": makespan,
            "faults": counts, "retries": retries,
            "results_ok": failure is None,
        }
        mpath = os.path.join(args.out, "metrics.json")
        with open(mpath, "w", encoding="utf-8") as fh:
            json.dump(metrics, fh, indent=1)
        print(f"wrote {args.out}/fault_log.json, metrics.json, trace.json")
    return 1 if failure else 0


def cmd_verify(args) -> int:
    """Concurrency correctness harness (``repro.verify.run_suite``): seeded
    schedule exploration with race detection, a planted-race self-check,
    and the cross-engine differentials. Exit code is nonzero iff anything
    failed. Failing interleavings are written as replayable JSON artifacts
    when ``--out`` is given; any reported seed reproduces bit-for-bit via
    ``repro verify --strategy <s> --seeds 1 --first-seed <seed>``."""
    from repro.verify import STRATEGIES, replay_schedule, run_suite

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
    failures = 0
    for row in run_suite(
            args.engines,
            sorted(STRATEGIES) if args.strategy == "all" else [args.strategy],
            args.seeds, first_seed=args.first_seed, workers=args.workers,
            planted=args.planted, selfcheck=not args.skip_selfcheck,
            selfcheck_seeds=args.selfcheck_seeds,
            differentials=not args.skip_differential, out=args.out):
        failures += not row.ok
        print(row.describe())
    print(f"({failures} failure(s), {time.perf_counter() - t0:.1f}s wall)")
    return 1 if failures else 0


def cmd_run(args) -> int:
    """Run every variant of the paper's apps on one back end.

    Each run is checked by its app's oracle and prints the app's answer —
    one value for every variant and every back end — with its wall time,
    and its virtual makespan on sim. ``--backend procs`` runs each rank as
    an OS process (SHMEM heap on POSIX shared memory, messages over a
    Unix-socket fabric); ``--shards N`` splits the sim across N processes.
    ``validate`` is ``run --backend sim --app all``.
    """
    from repro.apps import registry
    from repro.exec.procs import ProcessExecutor
    from repro.exec.sim import SimExecutor
    from repro.util.errors import ConfigError
    from repro.verify import spmd_differential

    apps = [registry.app(name) for name in (
        sorted(registry.APPS) if args.app == "all" else [args.app])]
    if args.shards != 1 and args.backend != "sim":
        raise ConfigError(
            f"--shards applies to the sim backend only, not "
            f"--backend {args.backend} (the procs backend is already one "
            "process per rank)")
    # The executor picks where the ranks run. A typo'd launcher or a bad
    # shard count fails here, before anything runs, not once per app.
    executor, where = None, "in-process"
    if args.backend == "procs":
        executor = ProcessExecutor(launcher=args.launcher,
                                   timeout=args.timeout)
        where = f"via {args.launcher}"
    elif args.shards != 1:
        executor = SimExecutor(shards=args.shards)
        where = f"across {args.shards} shards"
    failures = 0
    for app in apps:
        cluster = app.cluster(args.ranks, args.workers)
        rep = spmd_differential(app.name, [(args.backend, None,
                                            lambda: executor)],
                                cluster=cluster)
        for run in rep.runs:
            tag = f"{app.name}:{run.engine.partition(':')[2]}"
            if run.error:
                print(f"  {tag:<18s} FAIL {run.error}")
                continue
            virtual = "" if run.makespan is None else \
                f"{run.makespan * 1e3:.4f} ms virtual, "
            print(f"  {tag:<18s} {run.result}  ({virtual}{run.wall:.2f}s wall)")
        verdict = (f"OK   {len(rep.runs)} variants, one answer" if rep.ok
                   else f"FAIL {len(rep.mismatches)} mismatch(es)")
        failures += not rep.ok
        print(f"  {app.name:<18s} {verdict} [{args.backend}: "
              f"{cluster.nranks} ranks x {args.workers} workers, {where}]")
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

    for fig in FIGURES:
        fp = sub.add_parser(fig, help=f"regenerate {fig}")
        fp.add_argument("--nodes", type=int, nargs="+", default=[1, 2, 4, 8])
        fp.set_defaults(fn=cmd_figure, figure=fig)

    prof = sub.add_parser(
        "profile", help="run one figure instrumented; emit metrics + trace")
    prof.add_argument("figure", choices=list(FIGURES))
    prof.add_argument("--out", default="profile-out",
                      help="output directory for metrics.json / trace.json")
    prof.add_argument("--scale", type=float, default=1.0,
                      help="preset workload scale (1.0 = benchmark size)")
    prof.add_argument("--shards", type=int, default=1,
                      help="OS-process shards for the simulator (1 = "
                           "single-process; >1 runs the conservative-window "
                           "sharded engine and reports window telemetry)")
    prof.set_defaults(fn=cmd_profile)

    ch = sub.add_parser(
        "chaos", help="run one figure under a seeded fault plan")
    ch.add_argument("figure", choices=list(FIGURES))
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
             "cross-engine differentials")
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
                         "the test-only reference: lowest-clock interleave, "
                         "procs = multiprocess SPMD backend, sharded = "
                         "conservative-window multi-process DES)")
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
        "run", help="run every variant of the paper's apps on one back end "
                    "(sim/procs) against the apps' oracles")
    rn.add_argument("--backend", default="procs", choices=["sim", "procs"],
                    help="execution backend (default: procs — one OS "
                         "process per rank)")
    rn.add_argument("--app", default="all",
                    help="an app of repro.apps.registry, or all (default)")
    rn.add_argument("--ranks", type=int, default=4,
                    help="SPMD ranks, one per node of the app's platform")
    rn.add_argument("--workers", type=int, default=2,
                    help="workers per rank")
    rn.add_argument("--launcher", default="local",
                    help="how the procs backend starts its rank processes: "
                         "local (fork) or subprocess (exec)")
    rn.add_argument("--shards", type=int, default=1,
                    help="OS-process shards for the sim backend (>1 runs "
                         "the conservative-window sharded engine)")
    rn.add_argument("--timeout", type=float, default=300.0,
                    help="end-to-end timeout per run (procs), seconds")
    rn.set_defaults(fn=cmd_run)

    # validate is `run --backend sim --app all`, with run's defaults.
    sub.add_parser("validate", help="run every app's variants on sim against "
                                    "its oracle").set_defaults(
        **vars(rn.parse_args(["--backend", "sim", "--app", "all"])))

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
