"""Concurrency correctness harness (ISSUE 4 tentpole): strategies, the
schedule-exploring executor, the hybrid race detector, quiesce invariants,
the planted-race fixture, and schedule artifacts."""

import numpy as np
import pytest

from repro.apps.registry import APPS
from repro.exec.sim import SimExecutor
from repro.runtime import instrument
from repro.runtime.instrument import Probe, TrackedLock, probed, set_probe
from repro.util.errors import ConfigError
from repro.verify import (
    InterleaveExecutor,
    RaceDetector,
    VerificationError,
    check_quiesce,
    hunt,
    make_strategy,
    replay,
    replay_schedule,
    run_once,
    run_suite,
    spawn_storm,
    spmd_differential,
)
from repro.verify.strategies import (
    LowestClockStrategy,
    PCTStrategy,
    PreemptionBoundedStrategy,
    RandomWalkStrategy,
    ReplayStrategy,
)


class _W:
    """Stand-in worker for strategy unit tests."""

    def __init__(self, rank, wid):
        self.rank, self.wid = rank, wid

    def __repr__(self):
        return f"w{self.rank}.{self.wid}"


WORKERS = [_W(0, i) for i in range(4)]


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
class TestStrategies:
    def test_same_seed_same_choices(self):
        for name in ("random", "pct", "pbound"):
            a = make_strategy(name, seed=7)
            b = make_strategy(name, seed=7)
            picks_a = [a.choose(WORKERS) for _ in range(50)]
            picks_b = [b.choose(WORKERS) for _ in range(50)]
            assert picks_a == picks_b, name

    def test_different_seeds_diverge(self):
        a = make_strategy("random", seed=1)
        b = make_strategy("random", seed=2)
        assert [a.choose(WORKERS) for _ in range(60)] != \
               [b.choose(WORKERS) for _ in range(60)]

    def test_single_candidate_is_forced(self):
        for name in ("random", "pct", "pbound"):
            s = make_strategy(name, seed=0)
            assert s.choose([WORKERS[2]]) is WORKERS[2], name

    def test_pct_runs_highest_priority(self):
        s = PCTStrategy(seed=3, depth=1)  # no change points
        first = s.choose(WORKERS)
        # With fixed priorities and no demotions the same worker wins while
        # enabled.
        assert all(s.choose(WORKERS) is first for _ in range(10))

    def test_pct_depth_validation(self):
        with pytest.raises(ConfigError):
            PCTStrategy(seed=0, depth=0)

    def test_pbound_is_sticky(self):
        s = PreemptionBoundedStrategy(seed=5, bound=0)  # no preemptions
        first = s.choose(WORKERS)
        assert all(s.choose(WORKERS) is first for _ in range(10))
        # ... until the current worker runs dry:
        s.on_no_work(first)
        rest = [w for w in WORKERS if w is not first]
        assert s.choose(rest) in rest

    def test_pbound_respects_preemption_budget(self):
        s = PreemptionBoundedStrategy(seed=11, bound=2, p_preempt=1.0)
        switches = 0
        cur = s.choose(WORKERS)
        for _ in range(50):
            nxt = s.choose(WORKERS)
            if nxt is not cur:
                switches += 1
                cur = nxt
        assert switches == 2

    def test_replay_divergence_raises(self):
        s = ReplayStrategy([(0, 3, "t", 0)])
        with pytest.raises(VerificationError, match="diverged"):
            s.choose(WORKERS[:2])  # worker 3 not enabled

    def test_replay_overrun_raises(self):
        s = ReplayStrategy([])
        with pytest.raises(VerificationError, match="past the recorded"):
            s.choose(WORKERS)

    def test_unknown_strategy_name(self):
        with pytest.raises(ConfigError, match="unknown strategy"):
            make_strategy("bogus")


# ----------------------------------------------------------------------
# race detector units
# ----------------------------------------------------------------------
class _FakeLock:
    def __init__(self, lid):
        self.lid = lid


class TestRaceDetector:
    def test_disjoint_locksets_race(self):
        d = RaceDetector()
        # No ambient task context => both events come from "@engine"; force
        # distinct tids by driving the primitive methods directly.
        d._held[("w", 0, 0)] = {1}
        d._held[("w", 0, 1)] = {2}
        import repro.verify.racedetect as rd
        tids = iter([("w", 0, 0), ("w", 0, 1)])
        orig = rd._current_tid
        rd._current_tid = lambda: next(tids)
        try:
            d.on_access(("place", "p", "mask"), True)
            d.on_access(("place", "p", "mask"), True)
        finally:
            rd._current_tid = orig
        assert len(d.races) == 1

    def test_common_lock_no_race(self):
        d = RaceDetector()
        d._held[("w", 0, 0)] = {1, 5}
        d._held[("w", 0, 1)] = {5}
        import repro.verify.racedetect as rd
        tids = iter([("w", 0, 0), ("w", 0, 1)])
        orig = rd._current_tid
        rd._current_tid = lambda: next(tids)
        try:
            d.on_access(("scope", 1, "count"), True)
            d.on_access(("scope", 1, "count"), True)
        finally:
            rd._current_tid = orig
        assert d.races == []

    def test_happens_before_suppresses(self):
        d = RaceDetector()
        import repro.verify.racedetect as rd
        seq = iter([("w", 0, 0), ("w", 0, 0), ("w", 0, 1), ("w", 0, 1)])
        orig = rd._current_tid
        rd._current_tid = lambda: next(seq)
        try:
            d.on_access(("slot", ("p", 0), "items"), True)  # w0 writes
            d.on_sync_release(("promise", 1))               # w0 publishes
            d.on_sync_acquire(("promise", 1))               # w1 observes
            d.on_access(("slot", ("p", 0), "items"), True)  # w1 writes
        finally:
            rd._current_tid = orig
        assert d.races == []

    def test_no_sync_edge_means_race(self):
        d = RaceDetector()
        import repro.verify.racedetect as rd
        seq = iter([("w", 0, 0), ("w", 0, 1)])
        orig = rd._current_tid
        rd._current_tid = lambda: next(seq)
        try:
            d.on_access(("slot", ("p", 0), "items"), True)
            d.on_access(("slot", ("p", 0), "items"), True)
        finally:
            rd._current_tid = orig
        assert len(d.races) == 1

    def test_read_read_never_races(self):
        d = RaceDetector(benign_reads=frozenset())
        import repro.verify.racedetect as rd
        seq = iter([("w", 0, 0), ("w", 0, 1)])
        orig = rd._current_tid
        rd._current_tid = lambda: next(seq)
        try:
            d.on_access(("place", "p", "mask"), False)
            d.on_access(("place", "p", "mask"), False)
        finally:
            rd._current_tid = orig
        assert d.races == []

    def test_benign_whitelist_suppresses_mask_reads(self):
        d = RaceDetector()
        d.on_access(("place", "p", "mask"), False, benign=True)
        d.on_access(("place", "p", "ready"), False)
        assert d.benign_suppressed == 2
        assert d.races == []

    def test_scope_leak_tracking_excludes_daemons(self):
        class S:
            def __init__(self, name):
                self.name = name

        d = RaceDetector()
        kept, daemon, closed = S("finish-x"), S("daemon-r0"), S("finish-y")
        for s in (kept, daemon, closed):
            d.on_scope_created(s)
        d.on_scope_closed(closed)
        assert d.leaked_scopes() == [kept]

    def test_scope_id_reuse_does_not_conflate(self):
        """CPython id() reuse across scope generations must not produce
        false disjoint-lockset races (regression: the detector keys scope
        locations by generation, not raw address)."""
        d = RaceDetector()

        class S:
            name = "s"

        import repro.verify.racedetect as rd
        orig = rd._current_tid
        s1 = S()
        addr = id(s1)
        try:
            rd._current_tid = lambda: ("w", 0, 0)
            d.on_scope_created(s1)
            d._held[("w", 0, 0)] = {1}
            d.on_access(("scope", addr, "count"), True)
            d.on_scope_closed(s1)
            # A "new" scope reusing the same address, touched by another
            # worker under a different lock:
            rd._current_tid = lambda: ("w", 0, 1)
            d.on_scope_created(s1)  # same object = same id = reused address
            d._held[("w", 0, 1)] = {2}
            d.on_access(("scope", addr, "count"), True)
        finally:
            rd._current_tid = orig
        assert d.races == []


# ----------------------------------------------------------------------
# instrumentation plumbing
# ----------------------------------------------------------------------
class TestInstrumentation:
    def test_no_probe_by_default(self):
        assert instrument.PROBE is None

    def test_probed_installs_and_restores(self):
        p = Probe()
        with probed(p) as got:
            assert got is p
            assert instrument.PROBE is p
        assert instrument.PROBE is None

    def test_set_probe_returns_previous(self):
        p1, p2 = Probe(), Probe()
        assert set_probe(p1) is None
        assert set_probe(p2) is p1
        assert set_probe(None) is p2

    def test_tracked_lock_reports(self):
        events = []

        class P(Probe):
            def on_lock_acquire(self, lock):
                events.append(("acq", lock.lid))

            def on_lock_release(self, lock):
                events.append(("rel", lock.lid))

        lk = TrackedLock()
        with probed(P()):
            with lk:
                pass
        assert events == [("acq", lk.lid), ("rel", lk.lid)]

    def test_tracked_lock_ids_unique(self):
        assert TrackedLock().lid != TrackedLock().lid


# ----------------------------------------------------------------------
# interleave executor + harness
# ----------------------------------------------------------------------
class TestInterleaveHarness:
    def test_clean_run_all_strategies(self):
        want = 4 ** 3  # spawn_storm()'s leaves: fanout 4, depth 3
        for strat in ("random", "pct", "pbound"):
            out = run_once(strat, seed=1)
            assert out.ok, out.describe()
            assert out.result == want
            assert len(out.schedule) > 0

    def test_seed_replay_is_bit_for_bit(self):
        out = run_once("random", seed=9)
        again = replay(out)
        assert again.digest == out.digest
        assert again.schedule == out.schedule

    def test_explored_schedules_match_frozen_digests(self):
        """Schedule digests captured on the last commit where the executor
        still hosted two engines (``tests/data/sim_engine_golden.json``):
        the set-only notify/_wake this class now carries explores exactly
        the schedules the old ``selection="scan"`` path did."""
        import json
        import os

        path = os.path.join(os.path.dirname(__file__), "data",
                            "sim_engine_golden.json")
        with open(path, encoding="utf-8") as fh:
            frozen = json.load(fh)["interleave_spawn_storm"]
        assert len(frozen) == 3
        for want in frozen:
            out = run_once(want["strategy"], want["seed"])
            assert out.ok, out.describe()
            assert len(out.schedule) == want["steps"]
            assert out.digest == want["schedule_digest"]

    def test_different_seeds_explore_different_schedules(self):
        digests = {run_once("random", seed=s).digest for s in range(6)}
        assert len(digests) > 1

    def test_schedule_replay_strategy_reproduces(self):
        out = run_once("pct", seed=4)
        again = replay_schedule(out.schedule)
        assert again.digest == out.digest

    def test_recorded_schedule_entries_shape(self):
        out = run_once("random", seed=0, workers=2)
        for rank, wid, name, seq in out.schedule:
            assert rank == 0
            assert 0 <= wid < 2
            assert isinstance(name, str)
        assert [e[3] for e in out.schedule] == list(range(len(out.schedule)))

    def test_benign_mask_reads_are_exercised_and_suppressed(self):
        out = run_once("random", seed=2)
        assert out.benign_suppressed > 0
        assert not out.races

    def test_planted_race_is_rediscovered(self):
        """The acceptance check: the harness must find the deliberately
        planted occupancy-index race, and the reported seed must reproduce
        the interleaving bit-for-bit."""
        res = hunt("random", seeds=10, planted=True)
        fail = res.first_failure
        assert fail is not None, "planted race not found in 10 seeds"
        assert fail.races, fail.describe()
        # it is the planted bug: a place mask/ready write-write race
        locs = {(r.loc[0], r.loc[2]) for r in fail.races}
        assert locs & {("place", "mask"), ("place", "ready")}
        again = replay(fail, planted=True)
        assert again.digest == fail.digest
        assert again.races

    def test_workload_result_is_schedule_independent(self):
        want = 4 ** 3  # spawn_storm()'s leaves: fanout 4, depth 3
        results = {run_once("pbound", seed=s).result for s in range(5)}
        assert results == {want}

    def test_interleave_uses_tracked_locks(self):
        assert InterleaveExecutor.lock_class is TrackedLock


# ----------------------------------------------------------------------
# the paper apps under schedule exploration
# ----------------------------------------------------------------------
APP_NAMES = sorted(APPS)


@pytest.fixture(scope="module")
def sim_runs():
    """``app -> (answer, makespan)`` of each app's ``hiper`` variant on the
    production engine, 2 ranks x 2 workers."""
    out = {}
    for name in APP_NAMES:
        answer, res = APPS[name].run("hiper", APPS[name].cluster(2, 2),
                                     executor=SimExecutor())
        out[name] = (answer, res.makespan)
    return out


def test_a_worker_idle_through_a_block_is_woken_into_the_strategy_set():
    # One worker blocks on a timer with nothing else to run, so the search
    # drops it from the ready set; when its task completes it must go back
    # into the set the strategy picks from, and the production engine's
    # clock heap stays empty.
    from repro.platform.hwloc import discover, machine
    from repro.runtime.api import timer_future
    from repro.runtime.runtime import HiperRuntime

    ex = InterleaveExecutor(make_strategy("random", seed=0))
    rt = HiperRuntime(discover(machine("workstation"), num_workers=1,
                               with_interconnect=False), ex).start()

    def root():
        timer_future(1e-3).wait()
        return 7

    try:
        assert rt.run(root) == 7
        assert rt.workers[0] in ex._maybe_ready
        assert ex._ready_heap == []
    finally:
        rt.shutdown()
        ex.shutdown()


def _explore(name, strategy):
    ex = InterleaveExecutor(strategy)
    answer, res = APPS[name].run("hiper", APPS[name].cluster(2, 2),
                                 executor=ex)
    return answer, res.makespan, ex.schedule_digest()


class TestPaperAppsUnderExploration:
    @pytest.mark.parametrize("name", APP_NAMES)
    def test_lowest_clock_strategy_is_the_production_engine(self, name,
                                                            sim_runs):
        """The selection rule is the only difference between the loops: the
        production rule as a strategy reproduces the production run bit for
        bit."""
        answer, makespan, _ = _explore(name, LowestClockStrategy())
        want_answer, want_makespan = sim_runs[name]
        assert answer == want_answer
        assert repr(makespan) == repr(want_makespan)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("strategy", ["random", "pct", "pbound"])
    @pytest.mark.parametrize("name", APP_NAMES)
    def test_explored_runs_give_the_sim_answer_and_replay(
            self, name, strategy, seed, sim_runs):
        answer, _, digest = _explore(name, make_strategy(strategy, seed=seed))
        assert answer == sim_runs[name][0]
        _, _, again = _explore(name, make_strategy(strategy, seed=seed))
        assert again == digest


#: ``(steps, schedule_digest)`` of explored runs, captured before the
#: interleaving executor took over the reference's ``heapq`` event list: the
#: event list decides when blocked work becomes visible, so a pop-order
#: change would move these interleavings.
PINNED_RUN_ONCE = {
    ("random", 0): (85, "e764f3d3dc4494f1ede8deef75242d57"
                        "807c8bffe4870edef3c16b5bfbe762d0"),
    ("random", 1): (85, "38aa7f4c8e42040bf2d21c5b0ead0933"
                        "144c89411707cbee693aec288a8bf3d0"),
    ("random", 2): (85, "08f1046b778c5fa6a09dd4aa412a202a"
                        "24da706569431725b6605a8dccefb258"),
    ("pct", 0): (85, "0e6ac55178d465f40e35804a83ca0720"
                     "4ece1f21c830301998f0ce34a8d03fe2"),
    ("pct", 1): (85, "1656a034b111b29ffbd860020c75893d"
                     "890cba0825fc4070217e785febfac87f"),
    ("pct", 2): (85, "ce0f63bda80314361fa3625f7a54cc8d"
                     "cdd7dd0bae927380d891feace0f68b9f"),
    ("pbound", 0): (85, "24902e1964d9017459c6196cb5e90b66"
                        "d3fa6a15e90446df1c82655a7720a669"),
    ("pbound", 1): (85, "1633af469f672925cb3d132c5fc330b6"
                        "610c7aea27cf150cf558d0f77693323e"),
    ("pbound", 2): (85, "4721cc67282c7179dfe3100d94e42ac1"
                        "da1ed048d46529c8f9b4554fdc0b2ec4"),
}
#: The same for each registry app's ``hiper`` variant at 2 ranks x 2
#: workers, strategy seed 0.
PINNED_APPS = {
    ("geo", "random"): (233, "ffe44cbd43ba0f64c30d4c51637889ef"
                             "441755dad10eb11835b2fa021343a05e"),
    ("geo", "pct"): (228, "c126db3b3f69424ab2d41d99c2c16059"
                          "6f144ff8fa09662fd47a1e4e187e8ad6"),
    ("graph500", "random"): (124, "663269adcbb48388a344490e02c6fa0e"
                                  "62d6294b3f97a31f1a7aa65567221628"),
    ("graph500", "pct"): (124, "a6208f0e6495ed788d4d3dcaa90047d7"
                               "e74844309ddf2edd7ea702884d3fa61f"),
    ("hpgmg", "random"): (540, "53e3d476a196f82ca2d3135b3ea2c728"
                               "5ae9ba1c5d088121683b02a9ec4b446f"),
    ("hpgmg", "pct"): (540, "33e5ac091eb8939ed510c7ec80487f21"
                            "d54efc491de35afb1e3203d7317a80e6"),
    ("isx", "random"): (70, "73ddfa2c622430b6c0956f9e24814335"
                            "33803cf9b79d77329cc34e56271b4680"),
    ("isx", "pct"): (70, "dfd4c8f1dc840750f71316112028251d"
                         "53de28eeb97f691d93cacb528c09db1b"),
    ("uts", "random"): (600, "1e579518f557f099201c10d5701740393"
                             "c4ae2d4ac964edc466188de557c6cf6"),
    ("uts", "pct"): (572, "57ce3015166e2a70656455bae4b838dc"
                          "fa7bccb73ae9015eae1e0124ec2eaadc"),
}


class TestScheduleDigestPins:
    @pytest.mark.parametrize("strategy,seed", sorted(PINNED_RUN_ONCE))
    def test_run_once_digest_is_pinned(self, strategy, seed):
        out = run_once(strategy, seed=seed)
        assert out.ok, out.describe()
        assert (len(out.schedule), out.digest) == \
            PINNED_RUN_ONCE[(strategy, seed)]

    @pytest.mark.parametrize("name,strategy", sorted(PINNED_APPS))
    def test_app_digest_is_pinned(self, name, strategy, sim_runs):
        ex = InterleaveExecutor(make_strategy(strategy, seed=0))
        answer, _ = APPS[name].run("hiper", APPS[name].cluster(2, 2),
                                   executor=ex)
        assert answer == sim_runs[name][0]
        assert (len(ex.schedule), ex.schedule_digest()) == \
            PINNED_APPS[(name, strategy)]


# ----------------------------------------------------------------------
# invariants
# ----------------------------------------------------------------------
class TestInvariants:
    def test_clean_run_passes(self, sim_rt):
        sim_rt.run(spawn_storm(fanout=3, depth=2))
        rep = check_quiesce(sim_rt)
        assert rep.ok, rep.describe()
        assert rep.spawned == rep.completed
        assert rep.ready_left == 0

    def test_conservation_violation_detected(self, sim_rt):
        sim_rt.run(spawn_storm(fanout=2, depth=2))
        sim_rt.stats.count("core", "tasks_completed", -1)  # corrupt ledger
        rep = check_quiesce(sim_rt)
        assert not rep.ok
        assert any("conservation" in v for v in rep.violations)

    def test_leaked_scope_detected(self):
        class S:
            name = "finish-leaky"

        d = RaceDetector()
        d.on_scope_created(S())

        class RtStub:
            class stats:
                counters = {}

            class deques:
                @staticmethod
                def total_ready():
                    return 0

                @staticmethod
                def snapshot():
                    return {}

        rep = check_quiesce(RtStub(), d)
        assert not rep.ok
        assert rep.leaked_scopes == ["finish-leaky"]


# ----------------------------------------------------------------------
# schedule artifacts
# ----------------------------------------------------------------------
class TestScheduleArtifacts:
    def test_save_load_roundtrip(self, tmp_path):
        from repro.tools.schedule import (artifact_from_outcome,
                                          load_schedule, save_schedule)

        out = run_once("random", seed=0, planted=True)
        art = artifact_from_outcome(out, workers=4, planted=True)
        path = save_schedule(art, str(tmp_path / "sched.json"))
        back = load_schedule(path)
        assert back.seed == out.seed
        assert back.digest == out.digest
        assert back.schedule == out.schedule
        assert back.planted is True

    def test_loaded_artifact_replays(self, tmp_path):
        from repro.tools.schedule import (artifact_from_outcome,
                                          load_schedule, save_schedule)

        out = run_once("pct", seed=2)
        path = save_schedule(artifact_from_outcome(out),
                             str(tmp_path / "s.json"))
        art = load_schedule(path)
        again = replay_schedule(art.schedule, workers=art.workers)
        assert again.digest == art.digest

    def test_format_version_checked(self, tmp_path):
        import json

        from repro.tools.schedule import load_schedule

        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"format": 99}))
        with pytest.raises(ValueError, match="format"):
            load_schedule(str(p))


class TestRunSuite:
    """``repro verify`` is ``run_suite``; the CLI only prints its rows."""

    def test_rows_match_the_cli_report(self):
        rows = list(run_suite(("sim",), seeds=2, selfcheck_seeds=10))
        assert [(r.tag, r.ok, r.summary) for r in rows] == [
            ("self-check", True,
             "planted race found at seed 0, replay bit-for-bit"),
            ("hunt:pbound", True, "2 seeds clean"),
            ("hunt:pct", True, "2 seeds clean"),
            ("hunt:random", True, "2 seeds clean"),
            ("diff:graph500", True, "sim"),
            ("diff:isx", True, "sim"),
            ("diff:isx-dag", True, "sim"),
            ("diff:uts", True, "sim"),
            ("diff:isx-coal", True, "coalesce-off/coalesce-on"),
            ("diff:isx-eng", True, "ref-sim/sim"),
            ("diff:isx-shard", True, "flat/sharded-2"),
        ]
        assert all(r.detail == "" and r.artifact is None for r in rows)

    def test_planted_sweep_fails_with_a_replayable_artifact(self, tmp_path):
        from repro.tools.schedule import load_schedule

        rows = list(run_suite(strategies=["random", "pct"], seeds=2,
                              first_seed=1, planted=True, selfcheck=False,
                              differentials=False, out=str(tmp_path)))
        assert [(r.tag, r.ok) for r in rows] == [("hunt:random", False),
                                                  ("hunt:pct", False)]
        for row in rows:
            assert row.summary.startswith("seed 1 (digest ")
            assert "race on place" in row.detail
            art = load_schedule(row.artifact)
            assert (art.seed, art.planted) == (1, True) and art.races
            again = replay_schedule(art.schedule, workers=art.workers,
                                    planted=True)
            assert again.digest == art.digest and again.races

    def test_a_variant_that_raises_is_a_failed_run(self):
        rep = spmd_differential("isx", [("sim", None, None),
                                        ("nomods", [], None)],
                                variant="hiper")
        assert not rep.ok
        sim, nomods = rep.runs
        assert sim.error is None and sim.wall > 0
        assert nomods.result is None
        assert nomods.error.startswith("ConfigError: ")
        assert rep.mismatches == [f"nomods failed: {nomods.error}"]
        assert f"nomods: error: {nomods.error}" in rep.describe()
