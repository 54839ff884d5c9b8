"""Concurrency correctness harness (ISSUE 4 tentpole): strategies, the
schedule-exploring executor, the hybrid race detector, quiesce invariants,
the planted-race fixture, and schedule artifacts."""

import numpy as np
import pytest

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
    spawn_storm,
)
from repro.verify.harness import expected_storm_total
from repro.verify.strategies import (
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
        want = expected_storm_total()
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
        want = expected_storm_total()
        results = {run_once("pbound", seed=s).result for s in range(5)}
        assert results == {want}

    def test_interleave_uses_tracked_locks(self):
        assert InterleaveExecutor.lock_class is TrackedLock


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
