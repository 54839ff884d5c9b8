"""Worker search policy and deque-table internals."""

import threading

import pytest

from repro.exec.sim import SimExecutor
from repro.platform import PlaceType, discover, machine
from repro.runtime.api import async_, async_at, charge, finish
from repro.runtime.deques import (
    DequeTable, NullLock, PlaceDeques, UnsyncWorkerDeque, WorkerDeque)
from repro.runtime.runtime import HiperRuntime
from repro.runtime.task import Task, TaskState
from repro.runtime.worker import find_task, has_visible_work
from repro.util.errors import ConfigError


def make_rt(workers=4, detail="flat"):
    ex = SimExecutor()
    model = discover(machine("workstation"), num_workers=workers,
                     detail=detail)
    return HiperRuntime(model, ex, seed=11).start()


def mk_task(rt, wid=0, name="t"):
    from repro.runtime.finish import FinishScope
    scope = FinishScope(name="test")
    return Task(lambda: None, name=name, place=rt.sysmem, created_by=wid,
                scope=scope)


class TestFindTask:
    def test_pop_prefers_own_newest(self):
        rt = make_rt()
        t1, t2 = mk_task(rt, 0, "old"), mk_task(rt, 0, "new")
        rt.deques.push(t1)
        rt.deques.push(t2)
        assert find_task(rt.workers[0]).name == "new"   # LIFO
        assert find_task(rt.workers[0]).name == "old"

    def test_steal_takes_oldest_of_victim(self):
        rt = make_rt()
        t1, t2 = mk_task(rt, 0, "old"), mk_task(rt, 0, "new")
        rt.deques.push(t1)
        rt.deques.push(t2)
        assert find_task(rt.workers[1]).name == "old"   # FIFO steal

    def test_single_worker_never_steals(self):
        rt = make_rt(workers=1)
        assert find_task(rt.workers[0]) is None
        assert rt.stats.counter("core", "steal") == 0

    def test_pop_beats_steal(self):
        rt = make_rt()
        mine = mk_task(rt, 1, "mine")
        theirs = mk_task(rt, 0, "theirs")
        rt.deques.push(theirs)
        rt.deques.push(mine)
        assert find_task(rt.workers[1]).name == "mine"

    def test_victim_order_deterministic_per_seed(self):
        a = make_rt()
        b = make_rt()
        order_a = [list(a.workers[2].victim_order()) for _ in range(3)]
        order_b = [list(b.workers[2].victim_order()) for _ in range(3)]
        assert order_a == order_b

    def test_has_visible_work(self):
        rt = make_rt()
        assert not has_visible_work(rt.workers[0])
        rt.deques.push(mk_task(rt, 0))
        assert has_visible_work(rt.workers[0])      # own pop path
        assert has_visible_work(rt.workers[3])      # steal path


class TestDequeTable:
    def test_push_requires_place(self):
        rt = make_rt()
        task = mk_task(rt)
        task.place = None
        with pytest.raises(ConfigError, match="no target place"):
            rt.deques.push(task)

    def test_total_ready_and_snapshot(self):
        rt = make_rt()
        for _ in range(3):
            rt.deques.push(mk_task(rt, 0))
        rt.deques.push(mk_task(rt, 2))
        assert rt.deques.total_ready() == 4
        snap = rt.deques.snapshot()
        assert snap == {"sysmem": 4}

    def test_peek_names(self):
        dq = WorkerDeque()
        rt = make_rt()
        for n in ("a", "b"):
            dq.push(mk_task(rt, 0, n))
        assert dq.peek_names() == ["a", "b"]

    @pytest.mark.parametrize("lock_cls", [threading.Lock, NullLock])
    def test_drain_evacuates_in_slot_order_and_clears_the_index(
            self, lock_cls):
        # Evacuating a failed place: locked slots (threads, the verifier's
        # tracked locks) and lock-free ones (sim) give the same tasks in the
        # same order and leave the occupancy index empty.
        rt = make_rt()
        pd = PlaceDeques(rt.sysmem, 4, lock_cls=lock_cls)
        assert type(pd.slots[0]) is (
            WorkerDeque if lock_cls is threading.Lock else UnsyncWorkerDeque)
        for i, wid in enumerate([2, 0, 2, 0, 3]):
            pd.slots[wid].push(mk_task(rt, wid, f"t{i}"))
        assert (pd.ready, pd.mask) == (5, 0b1101)
        out = pd.drain()
        assert [t.name for t in out] == ["t1", "t3", "t0", "t2", "t4"]
        assert (pd.ready, pd.mask) == (0, 0)
        assert [len(slot) for slot in pd.slots] == [0, 0, 0, 0]
        assert pd.drain() == []

    def test_place_deques_validation(self):
        rt = make_rt()
        with pytest.raises(ConfigError):
            PlaceDeques(rt.sysmem, 0)


class TestPlacementEndToEnd:
    def test_gpu_targeted_task_runs_despite_no_pop_owner(self):
        """A task pushed at a GPU place by worker 3 must still run: worker 3
        pops it (GPU is on its pop path under the default policy)."""
        rt = make_rt()
        gpu = rt.model.first_of_type(PlaceType.GPU_MEM)
        ran = []

        def main():
            finish(lambda: async_at(lambda: ran.append(1), gpu))

        rt.run(main)
        assert ran == [1]

    def test_full_detail_work_spawned_at_l1_is_stolen(self):
        """Regression for the unstealable-private-place bug: work spawned to
        one worker's L1 must be reachable by thieves (Fig. 3 steal paths)."""
        rt = make_rt(workers=4, detail="full")
        done = []

        def main():
            # main runs on one worker; spawn everything to its own L1 (the
            # default place) with real cost — other workers must steal.
            finish(lambda: [async_(lambda i=i: (charge(1e-3),
                                                done.append(i))[1], cost=0.0)
                            for i in range(16)])

        rt.run(main)
        assert sorted(done) == list(range(16))
        busy = [w for w in rt.workers if w.tasks_run > 0]
        assert len(busy) >= 3  # parallelized, not serialized on the spawner

    def test_numa_detail_cross_socket_stealing(self):
        """Regression for the cross-socket variant of the same bug."""
        ex = SimExecutor()
        model = discover(machine("edison"), num_workers=8, detail="numa")
        rt = HiperRuntime(model, ex, seed=5).start()

        def main():
            finish(lambda: [async_(lambda: charge(1e-3)) for _ in range(32)])

        rt.run(main)
        # 32 x 1ms over 8 workers across 2 sockets: ideal 4ms; without
        # cross-socket steal paths this was ~2x worse
        assert ex.makespan() < 4e-3 * 1.4
