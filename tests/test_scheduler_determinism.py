"""Scheduler determinism and occupancy-index invariants.

Two families of guarantees guard the hot-path overhaul (occupancy-indexed
work discovery + O(log W) heap worker selection):

1. **Determinism.** The simulated executor's schedule is a pure function of
   the seed: repeat runs are bit-for-bit identical, the lazy-deletion heap
   reproduces the O(W) min-scan's selection order exactly (``SimExecutor``
   vs the test-only ``ReferenceSimExecutor``), and a golden workload
   pins makespan / per-worker clocks / steal counts so any accidental
   schedule change fails loudly.

2. **Occupancy consistency.** After any interleaving of push/pop/steal, each
   place's ``mask`` has exactly the bits of its non-empty slots and ``ready``
   equals the total queued tasks — for both the lock-free slots the sim
   executor uses and the locked slots of the threaded executor (including a
   multi-thread hammer).
"""

import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exec.sim import SimExecutor
from repro.platform import discover, machine
from repro.runtime.api import async_, charge, finish
from repro.runtime.deques import DequeTable, NullLock
from repro.runtime.runtime import HiperRuntime
from repro.runtime.task import Task
from repro.verify.reference import ReferenceSimExecutor

_settings = settings(max_examples=50, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def _run_reference_workload(executor_class=SimExecutor):
    """Fixed-seed fork/join workload with uneven charges (induces steals);
    returns every schedule-describing observable."""
    ex = executor_class()
    model = discover(machine("workstation"), num_workers=4)
    rt = HiperRuntime(model, ex, seed=7).start()

    def leaf(i):
        charge((i % 7 + 1) * 1e-5)

    def mid(i):
        charge((i % 5 + 1) * 1e-4)
        for j in range(3):
            async_(lambda i=i, j=j: leaf(i * 3 + j))

    rt.run(lambda: finish(
        lambda: [async_(lambda i=i: mid(i)) for i in range(40)]))
    out = {
        "makespan": ex.makespan(),
        "clocks": ex.worker_clocks(),
        "steals": [w.steals for w in rt.workers],
        "tasks": [w.tasks_run for w in rt.workers],
        "pop": rt.stats.counters[("core", "pop")],
        "steal": rt.stats.counters[("core", "steal")],
    }
    rt.shutdown()
    ex.shutdown()
    return out


#: Golden schedule for the reference workload. Exact floats on purpose: the
#: sim is deterministic arithmetic over charged costs, so any drift means the
#: schedule changed (not a numerics issue) and must be reviewed.
GOLDEN = {
    "makespan": 0.0051400000000000005,
    "clocks": [0.0051400000000000005, 0.005110000000000001,
               0.0051400000000000005, 0.005090000000000001],
    "steals": [1, 18, 19, 16],
    "tasks": [46, 38, 37, 40],
    "pop": 107,
    "steal": 54,
}


class TestDeterministicSchedule:
    def test_repeat_runs_identical(self):
        assert _run_reference_workload() == _run_reference_workload()

    def test_heap_selection_matches_legacy_scan(self):
        """The O(log W) lazy-deletion heap must reproduce the O(W) min-scan
        schedule bit-for-bit (same makespan, same per-worker clocks, same
        steal counts) — the selection key is identical, only the lookup
        structure changed."""
        assert (_run_reference_workload()
                == _run_reference_workload(ReferenceSimExecutor))

    def test_golden_schedule(self):
        assert _run_reference_workload(ReferenceSimExecutor) == GOLDEN

    def test_flat_engine_matches_golden(self):
        """The slab/calendar event queue must reproduce the reference's
        golden schedule bit-for-bit — same makespan, clocks, steal and task
        counts (it reorders nothing, it only changes how event records are
        stored)."""
        assert _run_reference_workload() == GOLDEN

    def test_invalid_selection_rejected(self):
        """Worker selection is not an option: there is one engine."""
        with pytest.raises(TypeError):
            SimExecutor(selection="scan")


# ----------------------------------------------------------------------
# occupancy invariants
# ----------------------------------------------------------------------
def _assert_occupancy_consistent(table):
    total = 0
    for pd in table._by_place_id.values():
        expected_mask = 0
        expected_ready = 0
        for i, slot in enumerate(pd.slots):
            n = len(slot._items)
            if n:
                expected_mask |= 1 << i
            expected_ready += n
        assert pd.mask == expected_mask, pd.place.name
        assert pd.ready == expected_ready, pd.place.name
        assert pd.total() == expected_ready
        total += expected_ready
    assert table.total_ready() == total


def _make_table(lock_cls):
    model = discover(machine("workstation"), num_workers=4)
    return DequeTable(model, lock_cls=lock_cls), list(model)


def _task_at(place, wid):
    return Task(lambda: None, place=place, created_by=wid)


_ops_strategy = st.lists(
    st.tuples(st.sampled_from(["push", "pop", "steal"]),
              st.integers(0, 3),      # worker id
              st.integers(0, 255)),   # place selector (mod #places)
    max_size=200,
)


class TestOccupancyInvariants:
    @_settings
    @given(ops=_ops_strategy)
    def test_unsync_slots_consistent_after_any_interleaving(self, ops):
        """Lock-free slots (sim executor): mask/ready track exactly."""
        table, places = _make_table(NullLock)
        self._apply(table, places, ops)

    @_settings
    @given(ops=_ops_strategy)
    def test_locked_slots_consistent_after_any_interleaving(self, ops):
        """Locked slots (threaded executor), driven single-threaded here:
        same exact-tracking guarantee."""
        table, places = _make_table(threading.Lock)
        self._apply(table, places, ops)

    @staticmethod
    def _apply(table, places, ops):
        order = list(range(4))
        for op, wid, psel in ops:
            place = places[psel % len(places)]
            pd = table.at(place)
            if op == "push":
                table.push(_task_at(place, wid))
            elif op == "pop":
                pd.pop_own(wid)
            else:
                pd.steal_from_others(wid, order)
            _assert_occupancy_consistent(table)

    def test_threaded_hammer_conserves_counts(self):
        """Four real threads pushing/popping/stealing concurrently: at join,
        the occupancy index must agree with the slots and the push/take
        ledger (tasks are neither lost nor double-counted)."""
        table, places = _make_table(threading.Lock)
        place = places[0]
        pd = table.at(place)
        n_threads, per_thread = 4, 400
        pushed = [0] * n_threads
        taken = [0] * n_threads
        barrier = threading.Barrier(n_threads)

        def worker(wid):
            barrier.wait()
            order = [v for v in range(n_threads) if v != wid]
            for i in range(per_thread):
                r = (i * 2654435761 + wid) % 3
                if r == 0:
                    table.push(_task_at(place, wid))
                    pushed[wid] += 1
                elif r == 1:
                    if pd.pop_own(wid) is not None:
                        taken[wid] += 1
                else:
                    if pd.steal_from_others(wid, order) is not None:
                        taken[wid] += 1

        threads = [threading.Thread(target=worker, args=(w,))
                   for w in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        _assert_occupancy_consistent(table)
        assert table.total_ready() == sum(pushed) - sum(taken)

    def test_quiescent_runtime_has_empty_occupancy(self, sim_rt):
        """End-to-end: after a full run drains, every mask and counter is 0."""
        sim_rt.run(lambda: finish(
            lambda: [async_(lambda: None) for _ in range(200)]))
        for pd in sim_rt.deques._by_place_id.values():
            assert pd.mask == 0
            assert pd.ready == 0
        assert sim_rt.deques.total_ready() == 0

    def test_quiescent_threaded_runtime_has_empty_occupancy(self, threaded_rt):
        threaded_rt.run(lambda: finish(
            lambda: [async_(lambda: None) for _ in range(100)]))
        for pd in threaded_rt.deques._by_place_id.values():
            assert pd.mask == 0
            assert pd.ready == 0
        assert threaded_rt.deques.total_ready() == 0
