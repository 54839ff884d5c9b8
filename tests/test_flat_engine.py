"""DES engine gates: validation, production-vs-reference equivalence, wave path.

``SimExecutor``'s slab/calendar event queue and the vectorized fabric wave
path exist purely for throughput — neither is allowed to change a single
scheduling decision. Every check here compares production (``SimExecutor``,
parametrize id ``flat``) with the seed engine kept as the test-only
reference (``repro.verify.reference.ReferenceSimExecutor``, id ``objects`` —
the ids predate the single engine and stay so test history lines up):

1. **Input validation** — negative delays and NaN timestamps raise
   ``ConfigError`` (a ``ValueError``) on both classes instead of silently
   corrupting queue order.
2. **Pop-order equivalence** — hypothesis drives random interleavings of
   ``call_later``/``call_at``/``cancel_event``/advance (including rearming
   callbacks that push mid-dispatch) against both classes and requires the
   identical fire log, cancel verdicts, and final quiescence.
3. **Wave bit-identity** — ``SimFabric.transmit_wave`` must leave the exact
   floats a loop of ``transmit`` leaves: delivery times, NIC availability,
   pairwise-FIFO clamps, byte counters, injection-complete returns.
4. **End-to-end** — the real ISx exchange with waves active equals the
   forced per-message fallback and the reference bit-for-bit
   (:func:`repro.verify.isx_engine_differential` is the same gate at CI
   scale), and matches the values frozen on the last commit that had two
   engines (``tests/data/sim_engine_golden.json``).
5. **Lifecycle and census** — use-after-shutdown raises, a shut-down
   executor is freed without the cycle collector, and the removed
   ``engine=``/``selection=``/``--engine`` options stay removed.
"""

import gc
import hashlib
import importlib
import inspect
import json
import os
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exec.sim import SimExecutor
from repro.net.costmodel import NetworkModel
from repro.net.fabric import SimFabric
from repro.util.errors import ConfigError, RuntimeStateError
from repro.verify.reference import ReferenceSimExecutor

ENGINES = (ReferenceSimExecutor, SimExecutor)
_engine_params = pytest.mark.parametrize("engine", ENGINES,
                                         ids=("objects", "flat"))

with open(os.path.join(os.path.dirname(__file__), "data",
                       "sim_engine_golden.json"), encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)

_settings = settings(max_examples=50, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------------
# 1. validation: negative / NaN scheduling inputs
# ----------------------------------------------------------------------
@_engine_params
class TestSchedulingValidation:
    def test_negative_delay_rejected(self, engine):
        ex = engine()
        with pytest.raises(ConfigError, match="non-negative"):
            ex.call_later(-1e-9, lambda: None)

    def test_nan_delay_rejected(self, engine):
        ex = engine()
        with pytest.raises(ConfigError):
            ex.call_later(float("nan"), lambda: None)

    def test_nan_timestamp_rejected(self, engine):
        ex = engine()
        with pytest.raises(ConfigError):
            ex.call_at(float("nan"), lambda: None)

    def test_rejection_is_a_value_error(self, engine):
        """Callers that guard with plain ``except ValueError`` must catch it."""
        ex = engine()
        with pytest.raises(ValueError):
            ex.call_later(-0.5, lambda: None)
        with pytest.raises(ValueError):
            ex.call_at(float("nan"), lambda: None)

    def test_queue_usable_after_rejection(self, engine):
        """A rejected call must leave no partial record behind."""
        ex = engine()
        with pytest.raises(ConfigError):
            ex.call_later(-1.0, lambda: None)
        assert ex.pending_events() == 0
        ran = []
        ex.call_later(1e-6, lambda: ran.append(True))
        ex.drain()
        assert ran == [True]


# ----------------------------------------------------------------------
# 2. cross-engine pop-order equivalence
# ----------------------------------------------------------------------
def _drive(engine, ops, *, at_with_arg=False):
    """Apply one op sequence to a fresh executor; return every observable
    that describes the schedule: the fire log (label, virtual time) in
    dispatch order, each cancel's verdict, and the drained event count.
    ``at_with_arg`` posts every ``"at"`` op in the ``call_at(when, fn, arg)``
    form (one shared function) instead of as a closure."""
    ex = engine()
    log = []
    handles = []
    labels = iter(range(1 << 20))

    def make_cb(label, k):
        def cb():
            log.append((label, ex.now()))
            # Rearm every third event: pushes arriving *mid-dispatch* are
            # the slab's trickiest case (in-flight cohort slots must
            # not be recycled under the dispatcher).
            if label % 3 == 0 and label < 3_000:
                handles.append(ex.call_later(k * 1e-6, make_cb(next(labels), k)))
        return cb

    def fire(label_k):
        make_cb(*label_k)()

    cancels = []
    for kind, k, j in ops:
        if kind == "later":
            handles.append(ex.call_later(k * 1e-6, make_cb(next(labels), k)))
        elif kind == "at" and at_with_arg:
            handles.append(ex.call_at(k * 1e-6, fire, (next(labels), k)))
        elif kind == "at":
            # Deliberately allowed to land at/below the event floor once
            # advances interleave — the clamp must behave identically.
            handles.append(ex.call_at(k * 1e-6, make_cb(next(labels), k)))
        elif kind == "cancel":
            if handles:
                cancels.append(ex.cancel_event(handles[j % len(handles)]))
        else:  # advance one cohort, if any
            if ex.pending_events():
                ex._advance_events()
    ex.drain()
    assert ex.pending_events() == 0
    out = (log, cancels, ex.events_processed)
    ex.shutdown()
    return out


_ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["later", "at", "cancel", "advance"]),
        st.integers(0, 12),    # timestamp scale: small range forces cohorts
        st.integers(0, 255),   # cancel-target selector
    ),
    max_size=120,
)


class TestEngineEquivalence:
    @_settings
    @given(ops=_ops_strategy)
    def test_random_interleavings_pop_identically(self, ops):
        assert _drive(SimExecutor, ops) == _drive(ReferenceSimExecutor, ops)

    @_settings
    @given(ops=_ops_strategy)
    def test_call_at_with_arg_pops_like_the_closure_form(self, ops):
        """``call_at(when, fn, arg)`` — how the fabric posts deliveries and
        injections — is the same event as ``call_at(when, lambda: fn(arg))``
        on both engines: order, timestamps, cancel reach, event count."""
        closures = _drive(SimExecutor, ops)
        assert _drive(SimExecutor, ops, at_with_arg=True) == closures
        assert _drive(ReferenceSimExecutor, ops, at_with_arg=True) == closures

    def test_batch_matches_per_event_calls(self):
        """``call_at_batch`` (the wave entry point) must dispatch in the
        exact order of equivalent per-event ``call_at`` calls, on both
        classes, including ties across batches."""
        whens = [3e-6, 1e-6, 3e-6, 2e-6, 1e-6, 3e-6]
        logs = {}
        for engine in ENGINES:
            for mode in ("batch", "single"):
                ex = engine()
                log = []
                if mode == "batch":
                    ex.call_at_batch(whens, log.append, list(range(len(whens))))
                    ex.call_at_batch(whens, log.append,
                                     list(range(10, 10 + len(whens))))
                else:
                    for i, w in enumerate(whens):
                        ex.call_at(w, lambda i=i: log.append(i))
                    for i, w in enumerate(whens):
                        ex.call_at(w, lambda i=i: log.append(10 + i))
                ex.drain()
                logs[(engine, mode)] = log
                ex.shutdown()
        assert len(set(map(tuple, logs.values()))) == 1

    def test_cancel_after_fire_returns_false(self):
        for engine in ENGINES:
            ex = engine()
            h = ex.call_later(1e-6, lambda: None)
            ex.drain()
            assert ex.cancel_event(h) is False

    def test_handle_not_resurrected_by_slot_reuse(self):
        """A stale handle must stay dead even after its slab slot is
        recycled by a new event (generation tag mismatch)."""
        ex = SimExecutor()
        h = ex.call_later(1e-6, lambda: None)
        ex.drain()
        ran = []
        ex.call_later(1e-6, lambda: ran.append(True))  # likely reuses the slot
        assert ex.cancel_event(h) is False
        ex.drain()
        assert ran == [True]


# ----------------------------------------------------------------------
# 3. fabric wave bit-identity
# ----------------------------------------------------------------------
_DSTS = [0, 3, 9, 17, 18, 25, 8, 31, 1]  # self-send, intra-node, shared NICs
_SRC = 1


def _run_fabric(use_wave, nbytes, engine=ReferenceSimExecutor):
    ex = engine()
    fab = SimFabric(ex, 32, NetworkModel(), ranks_per_node=8)
    seen = {r: [] for r in range(32)}
    for r in range(32):
        fab.register_sink(r, lambda s, p, t, r=r: seen[r].append((s, p, t)))
    payloads = [f"m{i}" for i in range(len(_DSTS))]
    if use_wave:
        injects = fab.transmit_wave(_SRC, _DSTS, nbytes, payloads)
    else:
        injects = [fab.transmit(_SRC, d, nbytes, p)
                   for d, p in zip(_DSTS, payloads)]
    ex.drain()
    state = (injects, seen, list(fab._tx_avail), list(fab._rx_avail),
             dict(fab._pair_last), fab.messages_sent, fab.bytes_sent)
    ex.shutdown()
    return state


class TestWaveBitIdentity:
    def test_constant_size_wave_matches_scalar_loop(self):
        assert _run_fabric(True, 48) == _run_fabric(False, 48)

    def test_wave_on_flat_engine_matches(self):
        assert (_run_fabric(True, 48, engine=SimExecutor)
                == _run_fabric(False, 48))

    def test_wave_refuses_fault_hook(self):
        from repro.util.errors import CommError
        ex = SimExecutor()
        fab = SimFabric(ex, 4, NetworkModel())
        fab.fault_hook = lambda s, d, n, p: None
        with pytest.raises(CommError, match="fault injection"):
            fab.transmit_wave(0, [1], 8, ["x"])

    def test_wave_length_mismatch_rejected(self):
        from repro.util.errors import CommError
        ex = SimExecutor()
        fab = SimFabric(ex, 4, NetworkModel())
        with pytest.raises(CommError, match="length mismatch"):
            fab.transmit_wave(0, [1, 2], 8, ["only-one"])


# ----------------------------------------------------------------------
# 4. end-to-end: ISx exchange, wave vs. fallback, production vs. reference
# ----------------------------------------------------------------------
def _run_isx(engine=ReferenceSimExecutor, nodes=2, keys_per_pe=1 << 9):
    from repro.apps.isx import IsxConfig, isx_main, validate_isx
    from repro.bench.harness import cluster_for
    from repro.distrib import spmd_run
    from repro.shmem import shmem_factory

    cfg = IsxConfig(keys_per_pe=keys_per_pe, byte_scale=1 << 7)
    ex = engine()
    res = spmd_run(
        isx_main("flat", cfg),
        cluster_for("titan", nodes, layout="flat"),
        module_factories=[shmem_factory(direct=True)],
        executor=ex,
    )
    validate_isx(cfg, res.nranks, res.results)
    digest = tuple(hashlib.sha256(np.asarray(r).tobytes()).hexdigest()
                   for r in res.results)
    return repr(res.makespan), digest, ex.events_processed


class TestIsxWavePath:
    def test_wave_active_and_fallback_agree(self, monkeypatch):
        from repro.shmem.backend import ShmemBackend

        calls = {"wave": 0}
        orig = ShmemBackend.amo_fetch_wave

        def counting(self, *a, **kw):
            calls["wave"] += 1
            return orig(self, *a, **kw)

        monkeypatch.setattr(ShmemBackend, "amo_fetch_wave", counting)
        with_wave = _run_isx()
        assert calls["wave"] > 0, "wave path never engaged"

        monkeypatch.setattr(ShmemBackend, "wave_capable", lambda self: False)
        calls["wave"] = 0
        fallback = _run_isx()
        assert calls["wave"] == 0
        assert with_wave == fallback

    def test_flat_engine_matches_objects(self):
        assert _run_isx(SimExecutor) == _run_isx(ReferenceSimExecutor)

    def test_engine_differential_report_ok(self):
        """The CI gate's own checker at a reduced size (32 PEs here; CI runs
        the default 64)."""
        from repro.verify import isx_engine_differential

        rep = isx_engine_differential(nodes=2)
        assert rep.ok, rep.describe()
        assert [r.engine for r in rep.runs] == ["ref-sim", "sim"]

    @_engine_params
    def test_frozen_isx_golden(self, engine):
        """Both classes reproduce the 64-PE ``isx_engine_differential``
        values captured on the parent commit (where the two engines were
        options of one class), so they cannot drift together."""
        want = GOLDEN["isx_engine_differential"]
        makespan, digests, events = _run_isx(
            engine, nodes=want["nodes"], keys_per_pe=1 << 10)
        assert len(digests) == want["nranks"]
        assert makespan == want["makespan_repr"]
        assert list(digests) == want["rank_digests"]
        assert events == want["events_processed"]


# ----------------------------------------------------------------------
# 5. the verify differential across all three apps (sim vs. ref-sim)
# ----------------------------------------------------------------------
class TestWorkloadDifferential:
    """Production must match the reference on every verify
    workload — ISx is exchange-heavy, UTS is spawn/steal-heavy (the event
    queue mostly carries singleton timer cohorts), and Graph500's
    level-synchronous BFS mixes finish-scope joins with fan-out bursts."""

    @pytest.mark.parametrize("workload", ["isx", "uts", "graph500"])
    def test_flat_sim_matches_sim(self, workload):
        from repro.verify.differential import differential

        rep = differential(workload, engines=("sim", "ref-sim"))
        assert rep.ok, rep.describe()
        assert len(rep.runs) == 2


# ----------------------------------------------------------------------
# 6. lifecycle and option census
# ----------------------------------------------------------------------
@_engine_params
class TestShutdown:
    def test_use_after_shutdown_raises(self, engine):
        """A shut-down executor must refuse new events and driving instead
        of silently running them (or dying inside the event queue)."""
        ex = engine()
        ex.shutdown()
        ex.shutdown()  # idempotent
        for call in (lambda: ex.call_later(0.0, lambda: None),
                     lambda: ex.call_at(0.0, lambda: None),
                     lambda: ex.call_at_batch([0.0], lambda a: None, [1]),
                     ex.drain,
                     lambda: ex.drive(lambda: True)):
            with pytest.raises(RuntimeStateError, match="already shut down"):
                call()
        assert ex.pending_events() == 0

    def test_run_root_after_shutdown_raises(self, engine):
        from repro.platform.hwloc import discover, machine
        from repro.runtime.runtime import HiperRuntime

        ex = engine()
        rt = HiperRuntime(discover(machine("workstation"), num_workers=2,
                                   with_interconnect=False), ex).start()
        assert rt.run(lambda: 7) == 7
        rt.shutdown()
        ex.shutdown()
        with pytest.raises(RuntimeStateError, match="already shut down"):
            ex.run_root(rt, lambda: 7)

    def test_shutdown_frees_executor_without_gc(self, engine):
        """pytest-benchmark runs with the cycle collector off: a finished
        executor (and the event and task slabs it owns) must die by
        refcounting alone once shut down and dropped."""
        gc.collect()
        gc.disable()
        try:
            ex = engine()
            fired = []
            ex.call_at_batch([1e-6, 1e-6, 2e-6], fired.append, [1, 2, 3])
            ex.call_later(3e-6, lambda: fired.append(4))
            ex.drain()
            assert fired == [1, 2, 3, 4]
            def never_fires():
                pass

            ex.call_later(1.0, never_fires)
            pending = weakref.ref(never_fires)
            del never_fires
            ref = weakref.ref(ex)
            ex.shutdown()
            # The slab goes at shutdown, not when the executor does (a
            # registered runtime points back at its executor and keeps it).
            assert pending() is None
            del ex
            assert ref() is None
        finally:
            gc.enable()


class TestOptionCensus:
    def test_removed_options_stay_removed(self, capsys):
        from repro.cli import main

        params = inspect.signature(SimExecutor).parameters
        assert "selection" not in params
        assert sorted(params) == ["engine", "shards", "task_overhead",
                                  "trace"]
        assert SimExecutor(engine="flat", shards=2).shards == 2
        with pytest.raises(ConfigError, match="ReferenceSimExecutor"):
            SimExecutor(engine="objects")
        with pytest.raises(TypeError):
            SimExecutor(selection="scan")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--engine", "flat"])
        assert exc.value.code == 2
        assert "--engine" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["flux", "fork", "mp", "shell", "popen",
                                      "pbs", "qsub"])
    def test_removed_launcher_names_stay_removed(self, name, capsys):
        from repro.cli import main

        assert main(["run", "--backend", "procs", "--launcher", name]) == 2
        err = capsys.readouterr().err
        assert f"unknown launcher {name!r}" in err
        assert "known launchers: local, subprocess" in err

    def test_the_launcher_registry_and_join_timeout_stay_removed(self):
        import repro.launch
        from repro.exec.procs import ProcessExecutor

        params = inspect.signature(ProcessExecutor).parameters
        assert "join_timeout" not in params and len(params) == 8
        for gone in ("Launcher", "ProcHandle", "FluxLauncher", "PbsLauncher",
                     "LocalLauncher", "SubprocessLauncher", "get_launcher",
                     "register_launcher", "all_launchers"):
            assert gone not in repro.launch.__all__
            assert not hasattr(repro.launch, gone)
        assert sorted(repro.launch.LAUNCHERS) == ["local", "subprocess"]

    def test_the_forked_fabric_and_shmem_backends_stay_removed(self):
        import repro.net
        import repro.shmem.backend as backend_mod

        with pytest.raises(ImportError):
            importlib.import_module("repro.net.shardfabric")
        assert [name for name in vars(backend_mod)
                if name.endswith("Backend")] == ["ShmemBackend"]
        assert "ProcShmemBackend" not in repro.shmem.__all__
        for fabric in (SimFabric, repro.net.ProcFabric):
            for marker in ("process_spmd", "shard_spmd"):
                assert not hasattr(fabric, marker)
        params = inspect.signature(SimFabric).parameters
        assert len(params) == 8
        assert all(params[name].kind is inspect.Parameter.KEYWORD_ONLY
                   for name in ("plan", "shard_id"))

