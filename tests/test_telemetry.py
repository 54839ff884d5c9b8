"""Unified observability layer: metrics registry, telemetry sampling,
interval-merged utilization, enriched Chrome-trace export, comm accounting,
the profiling harness, and the accounting bugfixes that motivated it."""

import gc
import json
import sys

import numpy as np
import pytest

from repro.distrib import ClusterConfig, spmd_run
from repro.exec.sim import SimExecutor
from repro.mpi import mpi_factory
from repro.platform import discover, machine
from repro.runtime.api import charge, finish, forasync, timer_future
from repro.runtime.deques import PlaceDeques
from repro.runtime.future import Promise
from repro.runtime.polling import PollingService
from repro.runtime.runtime import HiperRuntime
from repro.tools import TraceRecorder, merge_intervals, profile_spmd, telemetry_factory
from repro.util.stats import Histogram, RuntimeStats, TelemetrySampler


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------
class TestMetricsRegistry:
    def test_gauges_keep_last_value(self):
        s = RuntimeStats()
        s.gauge("shmem", "heap_used", 100.0)
        s.gauge("shmem", "heap_used", 50.0)
        assert s.gauges[("shmem", "heap_used")] == 50.0
        assert ("shmem", "missing") not in s.gauges

    def test_histogram_log2_buckets(self):
        h = Histogram()
        for v in (0, 1, 2, 3, 1024):
            h.add(v)
        assert h.n == 5
        assert h.counts[0] == 1        # the zero
        assert h.counts[1] == 1        # 1
        assert h.counts[2] == 2        # 2, 3
        assert h.counts[11] == 1       # 1024
        assert h.mean == pytest.approx(1030 / 5)
        assert h.max == 1024

    def test_histogram_merge_is_additive(self):
        a, b = Histogram(), Histogram()
        a.add(4)
        b.add(4)
        b.add(100)
        a.merge(b)
        assert a.n == 3 and a.counts[3] == 2 and a.max == 100

    def test_observe_fills_histogram(self):
        s = RuntimeStats()
        s.observe("mpi", "msg_size", 64)
        s.observe("mpi", "msg_size", 4096)
        h = s.histogram("mpi", "msg_size")
        assert h.n == 2 and h.max == 4096

    def test_merge_across_ranks(self):
        a, b = RuntimeStats(), RuntimeStats()
        a.count("mpi", "msgs_sent", 2)
        b.count("mpi", "msgs_sent", 3)
        a.gauge("shmem", "heap_used", 10.0)
        b.gauge("shmem", "heap_used", 30.0)
        a.observe("mpi", "msg_size", 8)
        b.observe("mpi", "msg_size", 8)
        a.sample("ready_tasks", 2.0, 1.0)
        b.sample("ready_tasks", 1.0, 4.0)
        merged = RuntimeStats()
        merged.merge(a, 0)
        merged.merge(b, 1)
        assert merged.counter("mpi", "msgs_sent") == 5
        assert merged.gauges[("shmem", "heap_used")] == 30.0  # max across ranks
        assert merged.histogram("mpi", "msg_size").n == 2
        # each rank keeps its own series; ticks are never interleaved
        assert merged.series["ready_tasks"] == {0: [(2.0, 1.0)],
                                                1: [(1.0, 4.0)]}
        assert merged.to_dict()["series"]["ready_tasks"] == {
            "0": [[2.0, 1.0]], "1": [[1.0, 4.0]]}

    def test_to_dict_round_trips_through_json(self):
        s = RuntimeStats()
        s.count("core", "pop", 7)
        s.time("mpi", "send", 0.5)
        s.gauge("cuda", "mem_used", 42.0)
        s.observe("mpi", "msg_size", 128)
        s.sample("ready_tasks", 0.1, 3.0)
        d = json.loads(json.dumps(s.to_dict()))
        assert d["counters"]["core.pop"] == 7
        assert d["timers"]["mpi.send"]["total"] == 0.5
        assert d["gauges"]["cuda.mem_used"] == 42.0
        assert d["histograms"]["mpi.msg_size"]["n"] == 1
        assert d["series"]["ready_tasks"] == [[0.1, 3.0]]
        # Per-worker time lives on the workers, not in the registry.
        assert set(d) == {"counters", "timers", "gauges", "histograms",
                          "series"}


# ---------------------------------------------------------------------------
# interval merging / utilization (satellite: nested help-first segments)
# ---------------------------------------------------------------------------
class TestIntervalMerging:
    def test_merge_intervals_union(self):
        assert merge_intervals([]) == 0.0
        assert merge_intervals([(0, 1), (2, 3)]) == 2.0        # disjoint
        assert merge_intervals([(0, 2), (1, 3)]) == 3.0        # overlapping
        assert merge_intervals([(0, 10), (2, 3), (4, 5)]) == 10.0  # nested
        assert merge_intervals([(5, 6), (0, 1)]) == 2.0        # unsorted

    def test_nested_blocking_utilization_le_one(self):
        """Regression: a blocking task that helps a child used to have its
        outer segment double-counted with the child's, pushing utilization
        past 1."""
        ex = SimExecutor()
        tracer = TraceRecorder()
        ex.attach_tracer(tracer)
        model = discover(machine("workstation"), num_workers=1)
        rt = HiperRuntime(model, ex).start()

        def main():
            def child():
                charge(1e-3)

            # finish() blocks; the single worker helps the child, so the
            # child's segment nests inside the blocked task's segment.
            finish(lambda: (rt.spawn(child), charge(2e-4)))

        rt.run(main)
        raw = sum(ev.duration for ev in tracer.events)
        busy = sum(tracer.worker_busy().values())
        assert raw > busy  # nesting really happened
        u = tracer.utilization(ex.makespan())
        assert 0.0 < u <= 1.0
        rt.shutdown()
        ex.shutdown()


# ---------------------------------------------------------------------------
# telemetry sampler
# ---------------------------------------------------------------------------
class TestTelemetrySampler:
    def test_sampler_records_series(self, sim_rt):
        sampler = TelemetrySampler(sim_rt, period=1e-4, max_samples=64)

        def main():
            sampler.start()
            finish(lambda: forasync(16, lambda i: charge(2e-4), chunks=16))
            sampler.stop()

        sim_rt.run(main)
        series = sim_rt.stats.series
        for name in ("ready_tasks", "event_queue", "pop_rate", "steal_rate",
                     "idle_fraction", "events_per_sec"):
            assert series[name], name
        assert all(0.0 <= v <= 1.0 for _, v in series["idle_fraction"])
        assert all(v >= 0.0 for _, v in series["events_per_sec"])
        # DES-engine gauges mirror the latest tick for metrics.json readers.
        assert ("sim", "events_per_sec") in sim_rt.stats.gauges
        assert ("sim", "event_queue_depth") in sim_rt.stats.gauges
        assert 0 < sampler.samples_taken <= 64

    def test_max_samples_bounds_tick_chain(self, sim_rt):
        sampler = TelemetrySampler(sim_rt, period=1e-5, max_samples=3)

        def main():
            sampler.start()
            timer_future(1e-3).wait()

        sim_rt.run(main)
        assert sampler.samples_taken == 3

    def test_sampler_feeds_tracer_counters(self, sim_rt):
        tracer = TraceRecorder()
        sampler = TelemetrySampler(sim_rt, period=1e-4, max_samples=16,
                                   tracer=tracer)

        def main():
            sampler.start()
            finish(lambda: forasync(8, lambda i: charge(2e-4), chunks=8))
            sampler.stop()

        sim_rt.run(main)
        names = {c.name for c in tracer.counters}
        assert {"ready_tasks", "utilization"} <= names
        assert all(0.0 <= c.value <= 1.0 for c in tracer.counters
                   if c.name == "utilization")

    @staticmethod
    def _three_steps(rt, name):
        """Ten ticks over three uneven forasync steps; ``name``'s reprs."""
        sampler = TelemetrySampler(rt, period=1e-4, max_samples=10)

        def main():
            sampler.start()
            for step in range(3):
                finish(lambda: forasync(
                    2 + step, lambda i: charge((i + 1) * 9e-5),
                    chunks=2 + step))
                timer_future(1.5e-4).wait()

        rt.run(main)
        return [repr(v) for _, v in rt.stats.series[name]]

    def test_idle_fraction_series_pinned(self, sim_rt):
        """The series reads the workers' clocks; pinned bit for bit (the
        0.5 ticks average two idle workers that have not run yet, at 1.0,
        with two busy ones)."""
        assert self._three_steps(sim_rt, "idle_fraction") == [
            "0.0", "0.5", "0.5", "0.5", "0.6331932773109243",
            "0.6331932773109243", "0.6331932773109243", "0.6331932773109243",
            "0.5736209915526803", "0.5736209915526803"]

    @pytest.mark.parametrize("name,want", [
        ("pop_rate", ["10000.0", "10000.0", "0.0", "0.0", "0.0", "0.0",
                      "0.0", "0.0", "10000.0", "0.0"]),
        ("steal_rate", ["0.0", "10000.0", "0.0", "0.0", "30000.0", "0.0",
                        "0.0", "0.0", "30000.0", "0.0"]),
    ])
    def test_pop_and_steal_rate_series_pinned(self, sim_rt, name, want):
        """The rates read each worker's pop and steal tallies, so a tick
        never snapshots the registry; pinned bit for bit on the same run."""
        assert self._three_steps(sim_rt, name) == want

    def test_idle_fraction_on_wall_time_reads_the_workers(self, threaded_rt):
        """On the threaded engine a worker's idle fraction is one minus its
        charged busy time over wall time."""
        threaded_rt.run(lambda: charge(0.5))
        sampler = TelemetrySampler(threaded_rt)
        # One worker charged 0.5 s of the first second, three charged none.
        assert sampler._idle_fraction(1.0) == (0.5 + 3 * 1.0) / 4

    def test_bad_period_rejected(self, sim_rt):
        with pytest.raises(ValueError):
            TelemetrySampler(sim_rt, period=0.0)


# ---------------------------------------------------------------------------
# Chrome-trace export round trip
# ---------------------------------------------------------------------------
class TestChromeTraceExport:
    def run_instrumented(self):
        def main(ctx):
            me, n = ctx.rank, ctx.nranks
            fs = ctx.mpi.isend(np.arange(64), (me + 1) % n, tag=1)
            data, _, _ = yield ctx.mpi.irecv(src=(me - 1) % n, tag=1)
            yield fs
            return int(data.sum())

        ex = SimExecutor()
        tracer = TraceRecorder()
        ex.attach_tracer(tracer)
        cfg = ClusterConfig(nodes=2, ranks_per_node=1, workers_per_rank=2)
        res = spmd_run(main, cfg, executor=ex,
                       module_factories=[mpi_factory(), telemetry_factory()])
        return tracer, res

    def test_round_trip_fields_and_flows(self):
        tracer, res = self.run_instrumented()
        doc = json.loads(tracer.to_chrome_trace())
        events = doc["traceEvents"]
        by_ph = {}
        for ev in events:
            by_ph.setdefault(ev["ph"], []).append(ev)
        # duration events carry task ids
        assert by_ph["X"]
        assert all({"name", "cat", "ts", "dur", "pid", "tid"} <= set(e)
                   for e in by_ph["X"])
        assert any(e["args"]["task_id"] >= 0 for e in by_ph["X"])
        # flow arrows come in start/finish pairs with matching ids
        starts = {e["id"] for e in by_ph["s"]}
        finishes = {e["id"] for e in by_ph["f"]}
        assert starts and starts == finishes
        assert all(e["bp"] == "e" for e in by_ph["f"])
        # spawn flows and message flows both present
        assert any(i.startswith("t") for i in starts)
        assert any(i.startswith("m") for i in starts)
        # a flow never finishes before it starts
        s_ts = {e["id"]: e["ts"] for e in by_ph["s"]}
        assert all(e["ts"] >= s_ts[e["id"]] for e in by_ph["f"])
        # telemetry counter tracks
        assert any(e["name"] == "ready_tasks" for e in by_ph["C"])

    def test_spawn_events_recorded_by_runtime(self):
        tracer, res = self.run_instrumented()
        assert tracer.spawns
        executed = {ev.task_id for ev in tracer.events}
        assert any(sp.task_id in executed for sp in tracer.spawns)

    def test_message_events_match_fabric_counts(self):
        tracer, res = self.run_instrumented()
        assert len(tracer.messages) == res.fabric.messages_sent
        vol = tracer.comm_volume()
        assert vol["mpi"]["messages"] > 0
        assert vol["mpi"]["bytes"] > 0
        assert all(m.delivery_time >= m.send_time for m in tracer.messages)


# ---------------------------------------------------------------------------
# per-module communication accounting
# ---------------------------------------------------------------------------
class TestCommAccounting:
    def test_mux_counters_per_channel(self):
        def main(ctx):
            me, n = ctx.rank, ctx.nranks
            fs = ctx.mpi.isend(np.arange(32), (me + 1) % n, tag=7)
            yield ctx.mpi.irecv(src=(me - 1) % n, tag=7)
            yield fs

        cfg = ClusterConfig(nodes=2, ranks_per_node=1, workers_per_rank=2)
        res = spmd_run(main, cfg, module_factories=[mpi_factory()])
        merged = res.merged_stats()
        assert merged.counter("mpi", "msgs_sent") == res.fabric.messages_sent
        assert merged.counter("mpi", "msgs_received") == res.fabric.messages_sent
        assert merged.counter("mpi", "bytes_sent") == res.fabric.bytes_sent
        assert merged.counter("mpi", "msgs_matched") == res.fabric.messages_sent
        assert merged.histogram("mpi", "msg_size").n == res.fabric.messages_sent

    def test_polling_stats_counted(self, sim_rt):
        svc = PollingService(sim_rt, sim_rt.sysmem, module="test",
                             interval=1e-4)
        box = {"done": False}

        def main():
            p = Promise("op")
            svc.watch(lambda: (box["done"], 1), p)
            timer_future(5e-4).on_ready(
                lambda f: box.__setitem__("done", True))
            p.get_future().wait()

        sim_rt.run(main)
        assert sim_rt.stats.counter("test", "poll_sweeps") == svc.sweeps
        assert sim_rt.stats.counter("test", "futures_satisfied") == 1


# ---------------------------------------------------------------------------
# polling sweep regression (satellite: duplicate sweeps)
# ---------------------------------------------------------------------------
class TestPollingSweepRegression:
    def _instrument(self, svc):
        times = []
        orig = svc._sweep

        def logged():
            times.append(svc.runtime.executor.now())
            orig()

        svc._sweep = logged
        return times

    def test_eager_kick_no_duplicate_sweeps(self, sim_rt):
        """Two completions with eager kicks plus a pending interval timer
        used to run two sweeps for one completion (double-charging
        sweep_cost); the stale timer must now be a no-op."""
        svc = PollingService(sim_rt, sim_rt.sysmem, module="test",
                             interval=1e-3)
        times = self._instrument(svc)
        flags = {"a": False, "b": False}

        def main():
            pa, pb = Promise("a"), Promise("b")
            svc.watch(lambda: (flags["a"], 1), pa)
            svc.watch(lambda: (flags["b"], 2), pb)

            def fire(key):
                def cb(_f):
                    flags[key] = True
                    svc.kick()
                return cb

            timer_future(1e-4).on_ready(fire("a"))
            timer_future(2e-3).on_ready(fire("b"))
            pa.get_future().wait()
            pb.get_future().wait()

        sim_rt.run(main)
        # deterministic sweep schedule: the initial watch sweep, one kick
        # sweep per completion, and at most one interval sweep between them;
        # before the epoch fix the stale t=1ms timer added a duplicate.
        assert svc.sweeps == len(times)
        assert len(times) == len(set(times)), "duplicate sweep at one instant"
        assert svc.sweeps <= 4
        assert sim_rt.stats.counter("test", "poll_kicks") == 2

    def test_interval_only_sweep_count_exact(self, sim_rt):
        svc = PollingService(sim_rt, sim_rt.sysmem, module="test",
                             interval=5e-4, eager_kick=False)
        times = self._instrument(svc)
        box = {"done": False}

        def main():
            p = Promise("op")
            svc.watch(lambda: (box["done"], 1), p)
            timer_future(1e-4).on_ready(
                lambda f: box.__setitem__("done", True))
            p.get_future().wait()

        sim_rt.run(main)
        # exactly: the immediate watch sweep (pending) + the one interval
        # sweep that finds the op complete
        assert svc.sweeps == 2
        assert len(times) == 2


# ---------------------------------------------------------------------------
# scoped recursion limit (satellite: constructor side effect)
# ---------------------------------------------------------------------------
class TestScopedRecursionLimit:
    def test_constructor_has_no_side_effect(self):
        before = sys.getrecursionlimit()
        ex = SimExecutor()
        assert sys.getrecursionlimit() == before
        ex.shutdown()
        assert sys.getrecursionlimit() == before

    def test_raised_while_driving_restored_on_shutdown(self):
        # Pin a low starting limit: earlier tests' spmd runs may leave their
        # (still-alive) executors' raised limit in place.
        outer = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            ex = SimExecutor()
            model = discover(machine("workstation"), num_workers=1)
            rt = HiperRuntime(model, ex).start()
            rt.run(lambda: charge(1e-6))
            assert (sys.getrecursionlimit()
                    == SimExecutor.ENGINE_RECURSION_LIMIT)
            rt.shutdown()
            ex.shutdown()
            assert sys.getrecursionlimit() == 1000
        finally:
            sys.setrecursionlimit(outer)

    def test_shutdown_respects_foreign_changes(self):
        outer = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            ex = SimExecutor()
            model = discover(machine("workstation"), num_workers=1)
            rt = HiperRuntime(model, ex).start()
            rt.run(lambda: charge(1e-6))
            foreign = SimExecutor.ENGINE_RECURSION_LIMIT + 5000
            sys.setrecursionlimit(foreign)
            rt.shutdown()
            ex.shutdown()
            # someone else raised the limit meanwhile: do not clobber it
            assert sys.getrecursionlimit() == foreign
        finally:
            sys.setrecursionlimit(outer)


# ---------------------------------------------------------------------------
# deque snapshot (satellite: double total() read)
# ---------------------------------------------------------------------------
class TestDequeSnapshot:
    def test_snapshot_reads_counters_not_slots(self, sim_rt, monkeypatch):
        """snapshot() reads each place's O(1) occupancy counter (one int read
        per place — no TOCTOU window) instead of walking slots via total()."""
        calls = []
        orig = PlaceDeques.total

        def counted(self):
            calls.append(self.place.name)
            return orig(self)

        monkeypatch.setattr(PlaceDeques, "total", counted)
        snap = sim_rt.deques.snapshot()
        assert calls == [], "snapshot must not walk slots via total()"
        assert snap == {
            pd.place.name: pd.ready
            for pd in sim_rt.deques._by_place_id.values() if pd.ready
        }


# ---------------------------------------------------------------------------
# profiling harness
# ---------------------------------------------------------------------------
class TestProfileHarness:
    def test_profile_spmd_writes_artifacts(self, tmp_path):
        def main(ctx):
            me, n = ctx.rank, ctx.nranks
            fs = ctx.mpi.isend(np.arange(128), (me + 1) % n, tag=3)
            data, _, _ = yield ctx.mpi.irecv(src=(me - 1) % n, tag=3)
            yield fs
            return int(data.sum())

        cfg = ClusterConfig(nodes=2, ranks_per_node=1, workers_per_rank=2)
        report = profile_spmd(main, cfg, module_factories=[mpi_factory()],
                              out_dir=str(tmp_path))
        assert report.result.results == [8128, 8128]
        assert 0.0 < report.utilization <= 1.0

        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["nranks"] == 2
        assert metrics["makespan"] > 0
        assert metrics["comm_volume"]["mpi"]["messages"] > 0
        assert metrics["stats"]["counters"]["mpi.msgs_sent"] > 0
        assert metrics["stats"]["series"]["ready_tasks"]

        trace = json.loads((tmp_path / "trace.json").read_text())
        phases = {e["ph"] for e in trace["traceEvents"]}
        assert {"X", "s", "f", "C"} <= phases

    def test_worker_busy_keyed_by_rank_and_worker(self, tmp_path):
        """``metrics.json`` reports each worker's busy time under
        ``"<rank>.<wid>"``, read from the worker itself, so rank 0's worker 0
        is never added to rank 1's worker 0."""
        def main(ctx):
            finish(lambda: forasync(
                3, lambda i: charge((ctx.rank + 1) * (i + 1) * 1e-4),
                chunks=3))

        cfg = ClusterConfig(nodes=2, ranks_per_node=1, workers_per_rank=3)
        report = profile_spmd(main, cfg, out_dir=str(tmp_path))
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        want = {f"{ctx.rank}.{w.wid}": w.clock - w.idle_time
                for ctx in report.result.contexts
                for w in ctx.runtime.workers}
        assert sorted(want) == ["0.0", "0.1", "0.2", "1.0", "1.1", "1.2"]
        assert metrics["worker_busy"] == want
        assert want["1.0"] != want["0.0"]
        assert "worker_busy" not in metrics["stats"]
        assert "worker_idle" not in metrics["stats"]

    def test_series_keyed_by_rank(self, tmp_path):
        """``metrics.json``'s ``stats.series[name]`` maps each rank to that
        rank's own samples; two ranks' ticks are never put on one axis."""
        def main(ctx):
            for step in range(3):
                finish(lambda: forasync(
                    2, lambda i: charge((ctx.rank + 1) * (i + 1) * 1e-4),
                    chunks=2))
                timer_future(1.5e-4).wait()

        cfg = ClusterConfig(nodes=2, ranks_per_node=1, workers_per_rank=2)
        report = profile_spmd(main, cfg, out_dir=str(tmp_path))
        series = json.loads(
            (tmp_path / "metrics.json").read_text())["stats"]["series"]
        for name in ("idle_fraction", "ready_tasks", "pop_rate"):
            assert series[name] == {
                str(ctx.rank): [[t, v] for t, v in
                                ctx.runtime.stats.series[name]]
                for ctx in report.result.contexts}, name
        idle = series["idle_fraction"]
        assert sorted(idle) == ["0", "1"] and idle["0"] != idle["1"]
        assert [t for t, _ in idle["0"]] == [t for t, _ in idle["1"]]

    def test_profile_reports_what_the_collector_cost(self, tmp_path):
        def main(ctx):
            loop = []
            loop.append(loop)
            del loop
            gc.collect()  # one full pass per rank, one cycle found in each

        hooks = list(gc.callbacks)
        cfg = ClusterConfig(nodes=2, ranks_per_node=1, workers_per_rank=2)
        profile_spmd(main, cfg, out_dir=str(tmp_path))
        assert gc.callbacks == hooks  # the timer is gone again

        host = json.loads((tmp_path / "metrics.json").read_text())["host"]
        cost = host["gc"]
        assert len(cost["collections"]) == 3 and cost["collections"][2] >= 2
        assert cost["collected"] >= 2
        assert 0.0 < cost["seconds"] < host["wall_s"]
        # A full pass starts on at least the interpreter's own objects.
        assert cost["tracked_peak"] > 1000

    def test_profile_cli_fig7(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        rc = cli_main(["profile", "fig7", "--scale", "0.2",
                       "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "metrics.json").exists()
        assert (tmp_path / "trace.json").exists()
        out = capsys.readouterr().out
        assert "utilization" in out
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert 0.0 < metrics["utilization"] <= 1.0


# ---------------------------------------------------------------------------
# bench harness telemetry columns
# ---------------------------------------------------------------------------
class TestBenchTelemetry:
    def test_sweep_carries_telemetry(self):
        from repro.bench import Series, sweep

        def main(ctx):
            me, n = ctx.rank, ctx.nranks
            fs = ctx.mpi.isend(me, (me + 1) % n, tag=1)
            yield ctx.mpi.irecv(src=(me - 1) % n, tag=1)
            yield fs

        def run(nodes):
            cfg = ClusterConfig(nodes=nodes, ranks_per_node=1,
                                workers_per_rank=2)
            return spmd_run(main, cfg, module_factories=[mpi_factory()])

        sw = sweep("t", [Series("hiper", run)], [2])
        tel = sw.telemetry["hiper"][2]
        assert 0.0 <= tel["utilization"] <= 1.0
        assert tel["msgs"] > 0 and tel["bytes"] > 0
        flat = sw.flat()
        assert "hiper@2" in flat
        assert "hiper@2:utilization" in flat
        assert "telemetry" in sw.table()
