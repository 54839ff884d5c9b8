"""Access-mode task graph: edge inference, commute runs, speculation,
cost-model placement (``repro.taskgraph``).

The differential anchor: every workload here returns a digest that must be
identical across engines and policies — only makespans may differ. The
hypothesis class closes the loop by generating random access-mode programs
and asserting sim (with speculation on) and threads (speculation
auto-disabled) agree bit-for-bit.
"""

import hashlib
import json
import pickle
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.exec.sim import SimExecutor
from repro.exec.threaded import ThreadedExecutor
from repro.platform.hwloc import discover, machine
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.runtime.api import async_future, timer_future
from repro.runtime.runtime import HiperRuntime
from repro.apps.isx.common import IsxConfig, route_keys
from repro.taskgraph import (
    CommuteRun,
    CostModel,
    TaskGraph,
    TaskImpl,
    WritePredictor,
    async_task,
    hetero_workload,
    isx_dag_workload,
    reduction_workload,
)
from repro.taskgraph.data import RunJoin
from repro.util.errors import ConfigError, FaultError, RuntimeStateError
from repro.verify.differential import isx_workload, run_on_engine


def _fresh_rt(workers: int = 4, engine: str = "sim"):
    ex = SimExecutor() if engine == "sim" else ThreadedExecutor(
        block_timeout=20.0)
    model = discover(machine("workstation"), num_workers=workers,
                     with_interconnect=False)
    return HiperRuntime(model, ex).start(), ex


def _run_fresh(root, workers: int = 4, engine: str = "sim"):
    """Run ``root`` on a fresh runtime; return (result, makespan)."""
    rt, ex = _fresh_rt(workers, engine)
    try:
        result = rt.run(root, name="tg-root")
        return result, ex.makespan()
    finally:
        rt.shutdown()
        ex.shutdown()


# ---------------------------------------------------------------------------
# access modes and edge inference
# ---------------------------------------------------------------------------
class TestAccessModes:
    def test_read_after_write_edge(self, sim_rt):
        def root():
            g = TaskGraph(name="raw")
            d = g.handle(np.zeros(4, dtype=np.int64), name="d")

            def produce():
                d.data[:] = 7

            def consume():
                return int(d.data.sum())

            g.submit(produce, write=[d], cost=1e-4)
            fut = g.submit(consume, read=[d])
            g.wait()
            return fut.value()

        assert sim_rt.run(root, name="raw-root") == 28

    def test_write_after_read_ordering(self, sim_rt):
        # Readers charge virtual time; the writer is free. Without the WAR
        # edge the writer would run at t=0 and the readers would observe
        # the overwrite; with it they must all see the original data.
        def root():
            g = TaskGraph(name="war")
            d = g.handle(np.arange(8, dtype=np.int64), name="d")
            seen = []

            def reader():
                seen.append(int(d.data.sum()))

            def clobber():
                d.data[:] = 0

            for _ in range(3):
                g.submit(reader, read=[d], cost=1e-3)
            g.submit(clobber, write=[d])
            late = g.submit(lambda: int(d.data.sum()), read=[d])
            g.wait()
            return seen, late.value()

        seen, late = sim_rt.run(root, name="war-root")
        assert seen == [28, 28, 28]  # pre-clobber value, all three readers
        assert late == 0             # RAW edge on the reader behind the write

    def test_version_chain_bumps_per_write(self, sim_rt):
        def root():
            g = TaskGraph(name="versions")
            d = g.handle(np.zeros(1, dtype=np.int64), name="d")
            for _ in range(4):
                g.submit(lambda: None, write=[d])
            g.submit(lambda: None, read=[d])
            g.wait()
            return d.version

        assert sim_rt.run(root, name="ver-root") == 4

    def test_duplicate_write_mode_access_rejected(self, sim_rt):
        def root():
            g = TaskGraph(name="dup")
            d = g.handle(np.zeros(1), name="d")
            with pytest.raises(ConfigError, match="more than one write-mode"):
                g.submit(lambda: None, write=[d], commute=[d])
            g.wait()

        sim_rt.run(root, name="dup-root")

    def test_non_handle_access_rejected(self, sim_rt):
        def root():
            g = TaskGraph(name="bad")
            with pytest.raises(ConfigError, match="DataHandle"):
                g.submit(lambda: None, read=[np.zeros(1)])
            g.wait()

        sim_rt.run(root, name="bad-root")

    def test_async_task_requires_enclosing_graph(self, sim_rt):
        def root():
            with pytest.raises(RuntimeStateError, match="TaskGraph"):
                async_task(lambda: None)

        sim_rt.run(root, name="ambient-root")

    def test_async_task_of_a_task_nested_in_another_tasks_block(self, sim_rt1):
        # One worker: the child runs on the root's stack while the root
        # waits inside its `with` block. The block is not the child's.
        def child():
            try:
                async_task(lambda: None)
            except RuntimeStateError:
                return "refused"
            return "accepted"

        def root():
            with TaskGraph(name="outer") as g:
                got = async_future(child).wait()
            return got, g.nodes

        assert sim_rt1.run(root, name="nested-root") == ("refused", 0)

    def test_interleaved_coroutine_blocks_keep_their_own_graphs(self, sim_rt):
        # Both enter their blocks and yield; the one that entered first
        # resumes first, submits and leaves, then the other. Each submit
        # goes to its own graph.
        nodes = {}

        def coroutine(label, delay):
            def body():
                with TaskGraph(name=label) as g:
                    yield timer_future(delay)
                    async_task(lambda: None)
                nodes[label] = g.nodes
            return body

        def root():
            a = async_future(coroutine("A", 2e-3))
            b = async_future(coroutine("B", 1e-3))
            a.wait()
            b.wait()

        sim_rt.run(root, name="coroutines-root")
        assert nodes == {"A": 1, "B": 1}

    def test_context_manager_waits_and_ambient_submit(self, sim_rt):
        def root():
            with TaskGraph(name="ctx") as g:
                d = g.handle(np.zeros(2, dtype=np.int64), name="d")
                async_task(lambda: d.data.__iadd__(5), write=[d])
            # __exit__ waited: the write is visible here
            return int(d.data.sum())

        assert sim_rt.run(root, name="ctx-root") == 10

    def test_failure_cascades_once(self, sim_rt):
        def root():
            g = TaskGraph(name="boom")
            d = g.handle(np.zeros(1), name="d")

            def bad():
                raise ValueError("producer exploded")

            g.submit(bad, write=[d], name="bad-writer")
            dep = g.submit(lambda: 1, read=[d], name="reader")
            with pytest.raises(ValueError, match="producer exploded"):
                g.wait()
            # The cascaded reader carries the same exception on its future
            # but is not double-counted as a failure.
            with pytest.raises(ValueError):
                dep.value()

        sim_rt.run(root, name="boom-root")

    def test_wait_raises_again_on_a_reused_graph(self, sim_rt):
        # A first raising wait() must not mute later failures.
        def root():
            g = TaskGraph(name="reused")

            def bad(msg):
                def body():
                    raise ValueError(msg)
                return body

            g.submit(bad("first"), name="bad-1")
            with pytest.raises(ValueError, match="first"):
                g.wait()
            g.wait()  # drained: nothing new to report
            g.submit(bad("second"), name="bad-2")
            with pytest.raises(ValueError, match="second"):
                g.wait()
            return "done"

        assert sim_rt.run(root, name="reused-root") == "done"

    def test_deep_failure_cascade_is_iterative(self, sim_rt):
        # 50 000 dependents behind one failing head: the cascade must not
        # recurse (it used to end in a swallowed RecursionError and a
        # DeadlockError instead of the root cause).
        def root():
            g = TaskGraph(name="deep")
            d = g.handle(np.zeros(1), name="d")

            def head():
                raise ValueError("head exploded")

            g.submit(head, write=[d], cost=1e-3, name="head")
            last = None
            for _ in range(50_000):
                last = g.submit(lambda: None, write=[d])
            g.wait(raise_failures=False)
            assert [name for name, _ in g._failures] == ["head"]
            with pytest.raises(ValueError, match="head exploded"):
                last.value()
            with pytest.raises(ValueError, match="head exploded"):
                g.wait()
            return g.nodes

        assert sim_rt.run(root, name="deep-root") == 50_001

    def test_failed_dependency_fails_fast_past_a_pending_one(self, sim_rt):
        # b waits for a slow writer and for an already-failed one: it must
        # fail at submit, and the slow writer's later success must not run it.
        def root():
            g = TaskGraph(name="failfast")
            x, y = g.handle(np.zeros(1), name="x"), g.handle(np.zeros(1), name="y")
            ran = []

            def bad():
                raise ValueError("y writer exploded")

            g.submit(bad, write=[y], name="bad")
            g.wait(raise_failures=False)
            g.submit(lambda: ran.append("slow"), write=[x], cost=1e-3)
            b = g.submit(lambda: ran.append("b"), read=[x, y], name="b")
            assert b.satisfied  # failed fast, slow writer still pending
            with pytest.raises(ValueError, match="y writer exploded"):
                g.wait()
            return ran

        assert sim_rt.run(root, name="failfast-root") == ["slow"]

    def test_failure_in_the_preamble_of_a_body_fails_the_node(self, sim_rt):
        # The pre-run digest of a maybe_write payload cannot be taken (a
        # lambda does not pickle): the node fails, the graph still quiesces.
        def root():
            g = TaskGraph(name="preamble")
            d = g.handle(lambda: 0, name="unpicklable")
            fut = g.submit(lambda: None, maybe_write=[d])
            dep = g.submit(lambda: 1, read=[d])
            with pytest.raises((pickle.PicklingError, AttributeError)):
                g.wait()
            return fut.satisfied and dep.satisfied

        assert sim_rt.run(root, name="preamble-root") is True

    def test_read_and_write_of_one_handle_is_not_a_self_dependency(self, sim_rt):
        def root():
            g = TaskGraph(name="rw")
            d = g.handle(np.zeros(2, dtype=np.int64), name="d")
            g.submit(lambda: d.data.__iadd__(1), write=[d])
            g.submit(lambda: d.data.__iadd__(1), read=[d], write=[d])
            g.wait()
            return int(d.data.sum()), g.edges

        assert sim_rt.run(root, name="rw-root") == (4, 1)

    def test_default_handle_names_count_per_graph(self, sim_rt):
        def root():
            names = []
            for _ in range(2):
                g = TaskGraph(name="names")
                names.append([g.handle().name, g.handle(name="acc").name,
                              g.handle().name])
                g.wait()
            return names

        assert sim_rt.run(root, name="names-root") == [
            ["data0", "acc", "data1"]] * 2

    def test_isx_dag_digest_matches_futures_version(self, sim_rt):
        futures_run = run_on_engine(isx_workload(), "sim")
        dag = sim_rt.run(isx_dag_workload(), name="isx-dag")
        assert dag == futures_run.result

    def test_isx_dag_on_threads(self, threaded_rt):
        futures_run = run_on_engine(isx_workload(), "sim")
        dag = threaded_rt.run(isx_dag_workload(), name="isx-dag")
        assert dag == futures_run.result


class TestBucketPartition:
    """The DAG ISx groups its keys with the ISx apps' one-pass
    ``route_keys``; bucket for bucket that must be the masked selection
    each partition body used to make."""

    @settings(max_examples=200, deadline=None)
    @given(max_key=st.integers(2, 5000), nbuckets=st.integers(1, 64),
           data=st.data())
    @example(max_key=10, nbuckets=3, data=None)   # 3 does not divide 10
    @example(max_key=7, nbuckets=40, data=None)   # more buckets than keys
    def test_one_pass_equals_masked(self, max_key, nbuckets, data):
        if data is None:
            keys = [0, 9, 9, 1, 6] if max_key == 10 else [6, 0, 6]
        else:
            keys = data.draw(st.lists(st.integers(0, max_key - 1),
                                      max_size=300))
        keys = np.array(keys, dtype=np.int64)
        cfg = IsxConfig(keys_per_pe=max(1, keys.size), max_key=max_key)
        grouped, counts = route_keys(cfg, nbuckets, keys)
        bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
        assert len(bounds) == nbuckets + 1 and bounds[-1] == keys.size
        width = (max_key + nbuckets - 1) // nbuckets
        for b in range(nbuckets):
            lo, hi = b * width, (b + 1) * width
            want = keys[(keys >= lo) & (keys < hi)]
            got = grouped[bounds[b]:bounds[b + 1]]
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


class TestThreadedRelease:
    def test_submit_races_release_without_losing_an_edge(self, threaded_rt):
        # The root keeps submitting while 4 workers (on 2 cores, switching
        # every 10 us) finish predecessors: a registration lost against a
        # concurrent release would hang a chain (the runtime's 20 s block
        # timeout), a double release would run a node out of order.
        chains, depth = 8, 250
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def root():
                g = TaskGraph(name="race")
                hs = [g.handle([], name=f"c{c}") for c in range(chains)]
                total = g.handle(np.zeros(1, dtype=np.int64), name="total")
                for i in range(depth):
                    for c, h in enumerate(hs):
                        g.submit(lambda h=h, i=i: h.data.append(i), write=[h])
                        if i % 50 == 49:
                            g.submit(lambda h=h: total.data.__iadd__(len(h.data)),
                                     read=[h], commute=[total])
                g.wait()
                return [h.data for h in hs], int(total.data[0]), g.nodes

            logs, total, nodes = threaded_rt.run(root, name="race-root")
        finally:
            sys.setswitchinterval(interval)
        assert logs == [list(range(depth))] * chains
        assert total == chains * sum(range(50, depth + 1, 50))
        assert nodes == chains * (depth + depth // 50)


# ---------------------------------------------------------------------------
# commutative writes
# ---------------------------------------------------------------------------
class TestCommute:
    def test_commute_matches_ordered_digest_but_reorders(self):
        ordered, t_ordered = _run_fresh(reduction_workload(commute=False))
        commuted, t_commute = _run_fresh(reduction_workload(commute=True))
        # Identical sums; only the commuted run observed a reorder.
        assert ordered[:3] == commuted[:3]
        assert ordered[3] == 0 and commuted[3] == 1
        # Folds start in readiness order, so the pipeline drains faster
        # than the submission-order write chain.
        assert t_commute < t_ordered

    def test_commute_serialized_but_unordered(self, threaded_rt):
        # Real threads: commute bodies on one datum may run in any order
        # but never concurrently.
        active, overlaps = [0], [0]

        def root():
            g = TaskGraph(name="serial")
            acc = g.handle(np.zeros(1, dtype=np.int64), name="acc")

            def fold(i):
                def body():
                    active[0] += 1
                    if active[0] > 1:
                        overlaps[0] += 1
                    time.sleep(0.002)
                    acc.data[0] += i
                    active[0] -= 1
                return body

            for i in range(8):
                g.submit(fold(i), commute=[acc], name=f"fold-{i}")
            g.wait()
            return int(acc.data[0])

        assert threaded_rt.run(root, name="serial-root") == sum(range(8))
        assert overlaps[0] == 0

    def test_commute_fold_cost_scales_linearly(self, monkeypatch):
        # Guard against a per-grant rescan of the run (quadratic): count the
        # ``granted`` membership checks ``CommuteRun.grant`` makes. Each
        # member passes the cursor once, so a run of n folds makes fewer
        # than 2n checks.
        checks = [0]

        class CountingSet(set):
            def __contains__(self, item):
                checks[0] += 1
                return super().__contains__(item)

        init = CommuteRun.__init__

        def counting_init(run, base_deps):
            init(run, base_deps)
            run.granted = CountingSet()

        monkeypatch.setattr(CommuteRun, "__init__", counting_init)

        def count(n):
            checks[0] = 0
            _run_fresh(reduction_workload(n, commute=True))
            return checks[0]

        small, large = count(2000), count(8000)
        assert 2000 <= small < 2 * 2000
        assert 8000 <= large < 2 * 8000

    def _faulted_reduction(self, seed):
        plan = FaultPlan.from_spec(
            {"seed": seed,
             "faults": [{"kind": "task_fail", "name": "produce-3",
                         "max_faults": 1}]})
        ex = SimExecutor()
        inj = FaultInjector(plan).attach(ex)
        model = discover(machine("workstation"), num_workers=4,
                         with_interconnect=False)
        rt = HiperRuntime(model, ex).start()
        inj.arm_runtime(rt)

        def root():
            n = 6
            g = TaskGraph(name="faulted-reduce")
            slots = [g.handle(None, name=f"slot{i}") for i in range(n)]
            acc = g.handle(np.zeros(1, dtype=np.int64), name="acc")

            def produce(i):
                def body():
                    slots[i].data = np.full(8, i + 1, dtype=np.int64)
                return body

            def fold(i):
                def body():
                    acc.data[0] += int(slots[i].data.sum())
                return body

            for i in range(n):
                g.submit(produce(i), write=[slots[i]], kind="reduce-produce",
                         cost=2e-4 * (n - i), name=f"produce-{i}")
            for i in range(n):
                g.submit(fold(i), read=[slots[i]], commute=[acc],
                         kind="reduce-fold", cost=5e-5, name=f"fold-{i}")
            with pytest.raises(FaultError, match="produce-3"):
                g.wait()
            return int(acc.data[0]), g.commute_reorders

        out = rt.run(root, name="fault-root")
        # Task ids are process-global; strip them for cross-run comparison.
        events = [(t, kind, detail.split(" id=")[0])
                  for t, kind, detail in inj.events]
        rt.shutdown()
        ex.shutdown()
        return out, events

    @pytest.mark.parametrize("engine", ["sim", "threads"])
    def test_closed_run_of_several_members_joins_reader_and_writer(
            self, engine, monkeypatch):
        # Three folds form one commute run; the read closes it, so the run
        # stands as one RunJoin writer that the reader and the next writer
        # wait for.
        built = []
        init = RunJoin.__init__

        def spy(self, members):
            built.append(len(members))
            init(self, members)

        monkeypatch.setattr(RunJoin, "__init__", spy)

        def root():
            g = TaskGraph(name="run-join")
            d = g.handle(np.zeros(1, dtype=np.int64), name="d")
            log = []

            def fold(i):
                def body():
                    d.data += i
                    log.append(f"fold{i}")
                return body

            def read():
                log.append("read")
                return int(d.data[0])

            def scale():
                d.data *= 10
                log.append("write")

            for i in (1, 2, 3):
                g.submit(fold(i), commute=[d], cost=1e-4 * (4 - i))
            seen = g.submit(read, read=[d])
            g.submit(scale, write=[d])
            g.wait()
            return seen.value(), int(d.data[0]), log

        seen, final, log = _run_fresh(root, engine=engine)[0]
        assert built == [3]
        assert (seen, final) == (6, 60)
        assert sorted(log[:3]) == ["fold1", "fold2", "fold3"]
        assert log[3:] == ["read", "write"]

    def test_commute_reordering_under_seeded_fault_injection(self):
        # One producer is killed by the injector: its fold cascades, the
        # commute run must still release its slot so every other fold runs,
        # and the whole thing replays bit-identically from the seed.
        (total, reorders), events = self._faulted_reduction(seed=7)
        assert total == 8 * (1 + 2 + 3 + 5 + 6)  # every slot but the faulted
        assert reorders > 0
        assert [k for _, k, _ in events] == ["task_fail"]
        replay = self._faulted_reduction(seed=7)
        assert replay == ((total, reorders), events)


# ---------------------------------------------------------------------------
# speculation: checkpoint, validation, rollback
# ---------------------------------------------------------------------------
def _spec_program(*, speculation, scrub_writes):
    """prep(1ms) -> scrub(1ms, maybe_write d) -> consume(reads d).

    The prep task delays the uncertain scrub, so a speculative consume
    genuinely runs first in virtual time and reads pre-scrub data —
    exercising a real rollback when the scrub does write.
    """

    def root():
        g = TaskGraph(name="spec", speculation=speculation)
        gate = g.handle(np.zeros(4, dtype=np.int64), name="gate")
        d = g.handle(np.arange(8, dtype=np.int64), name="d")

        def prep():
            gate.data += 1

        def scrub():
            if scrub_writes:
                d.data[:] = d.data * 3 + 1

        def consume():
            return int(d.data.sum())

        g.submit(prep, write=[gate], kind="spec-prep", cost=1e-3)
        g.submit(scrub, read=[gate], maybe_write=[d], kind="spec-scrub",
                 cost=1e-3, likely_writes=False)
        fut = g.submit(consume, read=[d], kind="spec-consume", cost=1e-4)
        g.wait()
        stats = (g.spec_attempts, g.spec_hits, g.spec_rollbacks)
        return (fut.value(), d.data.tobytes(), stats)

    return root


class TestSpeculation:
    def test_correct_prediction_overlaps_and_wins(self):
        spec, t_spec = _run_fresh(
            _spec_program(speculation=True, scrub_writes=False))
        base, t_base = _run_fresh(
            _spec_program(speculation=False, scrub_writes=False))
        assert spec[:2] == base[:2]
        assert spec[2] == (1, 1, 0)   # one attempt, one hit, no rollback
        assert base[2] == (0, 0, 0)
        assert t_spec < t_base        # consume overlapped the scrub

    def test_misprediction_rolls_back_bit_identical(self):
        spec, _ = _run_fresh(
            _spec_program(speculation=True, scrub_writes=True))
        base, _ = _run_fresh(
            _spec_program(speculation=False, scrub_writes=True))
        # The speculative consume read stale data, was rolled back, and
        # replayed: value and payload bytes equal the non-speculative run.
        assert spec[:2] == base[:2]
        assert spec[2] == (1, 0, 1)   # one attempt, no hit, one rollback

    def test_rollback_restores_the_readers_write_set(self):
        # The speculative consume also writes its own handle ``e``; when the
        # scrub really writes, the rollback must put ``e`` back to its
        # pre-run bytes before the replay, or the replay adds twice.
        def program(speculation):
            def root():
                g = TaskGraph(name="spec-rmw", speculation=speculation)
                gate = g.handle(np.zeros(4, dtype=np.int64), name="gate")
                d = g.handle(np.arange(8, dtype=np.int64), name="d")
                e = g.handle(np.full(8, 5, dtype=np.int64), name="e")

                def prep():
                    gate.data += 1

                def scrub():
                    d.data[:] = d.data * 3 + 1

                def consume():
                    e.data += d.data
                    return int(e.data.sum())

                g.submit(prep, write=[gate], kind="spec-prep", cost=1e-3)
                g.submit(scrub, read=[gate], maybe_write=[d],
                         kind="spec-scrub", cost=1e-3, likely_writes=False)
                fut = g.submit(consume, read=[d], write=[e],
                               kind="spec-consume", cost=1e-4)
                g.wait()
                stats = (g.spec_attempts, g.spec_hits, g.spec_rollbacks)
                return (fut.value(), d.data.tobytes() + e.data.tobytes(),
                        stats)

            return root

        spec, _ = _run_fresh(program(True))
        base, _ = _run_fresh(program(False))
        assert spec[2] == (1, 0, 1)   # ran speculatively, rolled back once
        assert spec[:2] == base[:2]
        assert base[0] == 40 + 3 * 28 + 8

    def test_speculation_auto_disabled_off_sim(self, threaded_rt):
        def root():
            g = TaskGraph(name="nospec", speculation=True)
            enabled = g.speculation
            g.wait()
            return enabled

        assert threaded_rt.run(root, name="nospec-root") is False

    def test_predictor_learns_from_history(self):
        p = WritePredictor()
        node = type("N", (), {"likely_writes": None, "kind": "scrub"})()
        assert p.predict_writes(node) is True  # unseen: conservative
        for _ in range(4):
            p.observe("scrub", False)
        assert p.predict_writes(node) is False
        for _ in range(8):
            p.observe("scrub", True)
        assert p.predict_writes(node) is True


# ---------------------------------------------------------------------------
# cost-model placement
# ---------------------------------------------------------------------------
class TestPlacement:
    def test_dmda_beats_help_first_on_hetero_chains(self):
        base, t_base = _run_fresh(hetero_workload(policy="help-first"))
        dmda, t_dmda = _run_fresh(hetero_workload(policy="dmda"))
        assert base == dmda           # placement may never change results
        assert t_dmda < t_base        # big kernels offloaded to the GPU

    def test_cost_model_blends_observations(self):
        cm = CostModel(alpha=0.5)
        assert cm.estimate("k", "cpu") is None
        cm.observe("k", "cpu", 1.0)
        cm.observe("k", "cpu", 0.5)
        est = cm.estimate("k", "cpu")
        assert est is not None and 0.5 < est < 1.0

    def test_multi_impl_tasks_record_per_place_timers(self):
        def root():
            g = TaskGraph(name="impls", policy="dmda")
            d = g.handle(np.zeros(2, dtype=np.int64), name="d")

            def bump():
                d.data += 1

            for _ in range(4):
                g.submit(bump, write=[d], kind="bump",
                         impls=[TaskImpl(bump, "cpu", 1e-3),
                                TaskImpl(bump, "gpu", 1e-4)])
            g.wait()
            return int(d.data[0])

        rt, ex = _fresh_rt()
        try:
            count = rt.run(root, name="impls-root")
            assert count == 4
            # The graph times each run once, where its cost model observes it.
            cpu_obs = rt.stats.timer("taskgraph", "bump@cpu").count
            gpu_obs = rt.stats.timer("taskgraph", "bump@gpu").count
            assert cpu_obs + gpu_obs == 4
            # dmda calibrates every uncalibrated arm first, so both the
            # cpu and gpu variants were tried at least once.
            assert cpu_obs >= 1 and gpu_obs >= 1
            timers = {op for (mod, op) in rt.stats.timers if mod == "taskgraph"}
            assert "bump@cpu" in timers and "bump@gpu" in timers
        finally:
            rt.shutdown()
            ex.shutdown()


# ---------------------------------------------------------------------------
# property-based: random access-mode programs, sim == threads
# ---------------------------------------------------------------------------
@st.composite
def _programs(draw):
    nhandles = draw(st.integers(2, 4))
    ntasks = draw(st.integers(1, 10))
    tasks = []
    for _ in range(ntasks):
        tasks.append((
            draw(st.integers(0, nhandles - 1)),          # target handle
            draw(st.integers(0, nhandles - 1)),          # source handle
            draw(st.sampled_from(["write", "commute", "maybe", "read"])),
            draw(st.integers(1, 5)),                     # scale constant
            draw(st.booleans()),                         # maybe: does write
            draw(st.booleans()),                         # maybe: hint
        ))
    return nhandles, tasks


def _run_program(program, engine):
    nhandles, tasks = program
    if engine == "sim":
        ex = SimExecutor()
    else:
        ex = ThreadedExecutor(block_timeout=20.0)
    model = discover(machine("workstation"), num_workers=4,
                     with_interconnect=False)
    rt = HiperRuntime(model, ex).start()
    try:
        def root():
            # Speculation on: the sim run exercises hits *and* rollbacks
            # (the hint is drawn independently of the actual write), and
            # must still match the never-speculating threads run.
            g = TaskGraph(name="prop", speculation=True)
            hs = [g.handle(np.arange(4, dtype=np.int64) + i, name=f"h{i}")
                  for i in range(nhandles)]
            reads = []
            for t, s, mode, k, writes, hint in tasks:
                target, source = hs[t], hs[s]
                if mode == "read":
                    reads.append(g.submit(
                        lambda source=source: int(source.data.sum()),
                        read=[source], kind="p-read", cost=1e-5))
                    continue
                if t == s:
                    def body(target=target, k=k):
                        target.data += k
                    acc = {}
                else:
                    def body(target=target, source=source, k=k):
                        target.data += k * int(source.data.sum())
                    acc = {"read": [source]}
                if mode == "write":
                    g.submit(body, write=[target], kind="p-write",
                             cost=1e-5, **acc)
                elif mode == "commute":
                    g.submit(body, commute=[target], kind="p-commute",
                             cost=1e-5, **acc)
                else:
                    def mbody(body=body, writes=writes):
                        if writes:
                            body()
                    g.submit(mbody, maybe_write=[target], kind="p-maybe",
                             cost=1e-5, likely_writes=hint, **acc)
            g.wait()
            h = hashlib.sha256()
            for hd in hs:
                h.update(hd.data.tobytes())
            return (h.hexdigest(), tuple(f.value() for f in reads))

        return rt.run(root, name="prop-root")
    finally:
        rt.shutdown()
        ex.shutdown()


class TestRandomGraphs:
    @given(_programs())
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_sim_and_threads_agree(self, program):
        assert _run_program(program, "sim") == _run_program(program, "threads")


# ---------------------------------------------------------------------------
# property-based: the grant cursor counts what the brute-force scan counted
# ---------------------------------------------------------------------------
@st.composite
def _commute_folds(draw):
    n = draw(st.integers(1, 14))
    return [(draw(st.integers(0, 5)),     # producer cost: readiness order
             draw(st.booleans()),         # also a member of the second run
             draw(st.integers(0, 9)) == 0)  # producer fails: never granted
            for _ in range(n)]


class TestCommuteCursor:
    @given(_commute_folds())
    @settings(max_examples=60, deadline=None)
    def test_reorders_equal_brute_force_definition(self, folds):
        order = []

        def root():
            g = TaskGraph(name="cursor")
            acc, acc2 = g.handle(name="acc"), g.handle(name="acc2")
            for i, (cost, both, fails) in enumerate(folds):
                slot = g.handle(name=f"slot{i}")

                def produce(fails=fails):
                    if fails:
                        raise ValueError("producer failed")

                g.submit(produce, write=[slot], cost=cost * 1e-4)
                g.submit(lambda i=i: order.append(i), read=[slot],
                         commute=[acc, acc2] if both else [acc], cost=1e-5)
            g.wait(raise_failures=False)
            return g.commute_reorders

        got, _ = _run_fresh(root)
        # The definition the cursor replaced: a grant is a reorder when an
        # earlier-submitted member of the run has not been granted yet.
        # Bodies run in grant order (the slot serializes them).
        want = 0
        for members in (range(len(folds)),
                        [i for i, f in enumerate(folds) if f[1]]):
            granted = set()
            for i in (i for i in order if i in members):
                want += any(j < i and j not in granted for j in members)
                granted.add(i)
        assert got == want


# ---------------------------------------------------------------------------
# golden pins: every observable of the seven e2e legs at smoke sizes
# ---------------------------------------------------------------------------
GOLDEN_PATH = Path(__file__).parent / "data" / "taskgraph_golden.json"


def _spec_triples(n, speculation):
    """``n`` prep -> scrub(maybe_write) -> consume triples; every fourth
    scrub really writes against a ``likely_writes=False`` hint (the
    ``taskgraph_mix`` speculation leg)."""

    def root():
        g = TaskGraph(name="spec-triples", speculation=speculation)
        futs = []
        for i in range(n):
            gate = g.handle(np.zeros(4, dtype=np.int64), name=f"gate{i}")
            d = g.handle(np.arange(8, dtype=np.int64) + i, name=f"d{i}")

            def prep(gate=gate):
                gate.data += 1

            def scrub(d=d, writes=(i % 4 == 0)):
                if writes:
                    d.data[:] = d.data * 3 + 1

            def consume(d=d):
                return int(d.data.sum())

            g.submit(prep, write=[gate], kind="spec-prep", cost=1e-3)
            g.submit(scrub, read=[gate], maybe_write=[d], kind="spec-scrub",
                     cost=1e-3, likely_writes=False)
            futs.append(g.submit(consume, read=[d], kind="spec-consume",
                                 cost=1e-4))
        g.wait()
        return [f.value() for f in futs]

    return root


def _golden_legs():
    isx = IsxConfig(keys_per_pe=1 << 12, seed=777)
    return {
        "hetero.dmda": hetero_workload(8, 8, policy="dmda"),
        "hetero.help_first": hetero_workload(8, 8, policy="help-first"),
        # the reorder flag (value[3]) is pinned as a counter, on sim only
        "reduce.commute": lambda: reduction_workload(200, commute=True)()[:3],
        "reduce.ordered": lambda: reduction_workload(200, commute=False)()[:3],
        "isx_dag": isx_dag_workload(isx, 32),
        "spec.on": _spec_triples(100, True),
        "spec.off": _spec_triples(100, False),
    }


def _observe_leg(root, engine, monkeypatch):
    """Run one leg; return its pins (the value digest everywhere, virtual
    time and the graph's counters on the deterministic engine only)."""
    graphs = []
    init = TaskGraph.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        graphs.append(self)

    monkeypatch.setattr(TaskGraph, "__init__", spy)
    value, makespan = _run_fresh(root, engine=engine)
    monkeypatch.undo()
    pins = {"digest": hashlib.sha256(repr(value).encode()).hexdigest()}
    if engine == "sim":
        (g,) = graphs
        pins.update(makespan=repr(makespan), nodes=g.nodes, edges=g.edges,
                    commute_reorders=g.commute_reorders,
                    spec_hits=g.spec_hits, spec_rollbacks=g.spec_rollbacks)
    return pins


class TestGoldenPins:
    """Captured on the commit before the counter-based bookkeeping (future
    per edge): release order, counters and virtual time must not move."""

    golden = json.loads(GOLDEN_PATH.read_text())

    @pytest.mark.parametrize("label", sorted(_golden_legs()))
    def test_sim_pins(self, label, monkeypatch):
        got = _observe_leg(_golden_legs()[label], "sim", monkeypatch)
        assert got == self.golden["sim"][label]

    @pytest.mark.parametrize("label", sorted(_golden_legs()))
    def test_threads_digest(self, label, monkeypatch):
        got = _observe_leg(_golden_legs()[label], "threads", monkeypatch)
        assert got == self.golden["threads"][label]
        assert got["digest"] == self.golden["sim"][label]["digest"]
