"""Module framework: lifecycle, namespace exports, registry, copy handlers,
and the checks every module inherits from the base."""

import types

import numpy as np
import pytest

from repro.cuda import CudaModule, cuda_factory
from repro.distrib import ClusterConfig, spmd_run
from repro.exec.sim import SimExecutor
from repro.io import checkpoint_factory
from repro.modules.base import (
    HiperModule,
    create_module,
    known_module_classes,
    register_module_class,
)
from repro.mpi import mpi_factory
from repro.platform import MachineSpec, PlaceType, discover, machine
from repro.runtime.runtime import HiperRuntime
from repro.shmem import ShmemModule
from repro.upcxx import GlobalPtr, UpcxxModule
from repro.util.errors import GpuError, ModuleError, MpiError


def make_rt(workers=2):
    ex = SimExecutor()
    model = discover(machine("workstation"), num_workers=workers)
    return HiperRuntime(model, ex)


class Recorder(HiperModule):
    name = "recorder"
    capabilities = frozenset({"test"})

    def __init__(self):
        super().__init__()
        self.events = []

    def initialize(self, runtime):
        self.events.append("init")
        self.export(runtime, "record", self.events.append)

    def finalize(self, runtime):
        self.events.append("fini")


class TestLifecycle:
    def test_initialize_then_finalize_once(self):
        rt = make_rt()
        mod = Recorder()
        rt.start([mod])
        rt.shutdown()
        rt.shutdown()  # idempotent
        assert mod.events == ["init", "fini"]

    def test_finalize_reverse_install_order(self):
        order = []

        class A(HiperModule):
            name = "a"

            def initialize(self, runtime):
                pass

            def finalize(self, runtime):
                order.append("a")

        class B(A):
            name = "b"

            def finalize(self, runtime):
                order.append("b")

        rt = make_rt()
        rt.start([A(), B()])
        rt.shutdown()
        assert order == ["b", "a"]

    def test_duplicate_install_rejected(self):
        rt = make_rt()
        rt.start([Recorder()])
        with pytest.raises(ModuleError, match="twice"):
            rt.install(Recorder())

    def test_failed_initialize_rolls_back(self):
        class Broken(HiperModule):
            name = "broken"

            def initialize(self, runtime):
                raise RuntimeError("nope")

        rt = make_rt()
        rt.start()
        with pytest.raises(RuntimeError):
            rt.install(Broken())
        with pytest.raises(ModuleError, match="not installed"):
            rt.module("broken")

    def test_module_requires_name(self):
        class Nameless(HiperModule):
            def initialize(self, runtime):
                pass

        with pytest.raises(ModuleError, match="name"):
            Nameless()

    def test_start_twice_rejected(self):
        rt = make_rt()
        rt.start()
        from repro.util.errors import RuntimeStateError
        with pytest.raises(RuntimeStateError):
            rt.start()

    def test_install_after_shutdown_rejected(self):
        rt = make_rt()
        rt.start()
        rt.shutdown()
        from repro.util.errors import RuntimeStateError
        with pytest.raises(RuntimeStateError):
            rt.install(Recorder())


class TestNamespaceExports:
    def test_export_reachable_via_ops(self):
        rt = make_rt()
        mod = Recorder()
        rt.start([mod])
        rt.ops.record("via-namespace")
        assert "via-namespace" in mod.events

    def test_export_collision_rejected(self):
        class Clasher(HiperModule):
            name = "clasher"

            def initialize(self, runtime):
                self.export(runtime, "record", lambda *a: None)

        rt = make_rt()
        rt.start([Recorder()])
        with pytest.raises(ModuleError, match="already"):
            rt.install(Clasher())

    def test_require_place_type(self):
        class NeedsNvm(HiperModule):
            name = "needs-nvm"

            def initialize(self, runtime):
                self.require_place_type(runtime, PlaceType.NVM)

        rt = make_rt()
        rt.start()
        with pytest.raises(ModuleError, match="nvm"):
            rt.install(NeedsNvm())


class TestRegistry:
    def test_register_and_create_by_name(self):
        class Registered(HiperModule):
            name = "registered-test-mod"

            def __init__(self, flag=False):
                super().__init__()
                self.flag = flag

            def initialize(self, runtime):
                pass

        try:
            register_module_class(Registered)
            inst = create_module("registered-test-mod", flag=True)
            assert inst.flag is True
            assert "registered-test-mod" in known_module_classes()
            with pytest.raises(ModuleError, match="twice"):
                register_module_class(Registered)
        finally:
            known_module_classes()  # snapshot only; cleanup below
            from repro.modules import base as _b
            _b._MODULE_CLASSES.pop("registered-test-mod", None)

    def test_create_unknown_name(self):
        with pytest.raises(ModuleError, match="no module class"):
            create_module("nonexistent-module")


class TestCopyHandlers:
    def test_duplicate_handler_rejected(self):
        rt = make_rt()
        rt.register_copy_handler(PlaceType.SYSTEM_MEM, PlaceType.NVM,
                                 lambda *a: None)
        with pytest.raises(ModuleError, match="already registered"):
            rt.register_copy_handler(PlaceType.SYSTEM_MEM, PlaceType.NVM,
                                     lambda *a: None)

    def test_lookup_returns_none_when_absent(self):
        rt = make_rt()
        assert rt.copy_handler(PlaceType.NVM, PlaceType.DISK) is None


def _rank_ctx():
    """The RankContext fields a module's constructor reads."""
    return types.SimpleNamespace(rank=0, nranks=1, shared={}, mux=None)


BEFORE_INITIALIZE = {
    "upcxx.rput": lambda: UpcxxModule(_rank_ctx()).rput(1, GlobalPtr(0, 0)),
    "upcxx.rget": lambda: UpcxxModule(_rank_ctx()).rget(GlobalPtr(0, 0), 1),
    "upcxx.rpc": lambda: UpcxxModule(_rank_ctx()).rpc(0, abs, -1),
    "shmem.async_when": lambda: ShmemModule(_rank_ctx()).async_when(
        None, "==", 1, lambda: None),
    "cuda.kernel_async": lambda: CudaModule().kernel_async(lambda: None),
}


class TestBaseGuards:
    @pytest.mark.parametrize("call", sorted(BEFORE_INITIALIZE))
    def test_use_before_initialize_names_the_module(self, call):
        module = call.split(".")[0]
        with pytest.raises(ModuleError,
                           match=f"^{module} module used before initialization$"):
            BEFORE_INITIALIZE[call]()

    def test_finalize_with_an_unmatched_irecv_raises_mpi_error(self):
        def main(ctx):
            if ctx.rank == 0:
                ctx.mpi.irecv(src=1, tag=77)
            return None

        with pytest.raises(MpiError, match="mpi module finalized with 1 "
                                           "outstanding"):
            spmd_run(main, ClusterConfig(nodes=2, workers_per_rank=2),
                     module_factories=[mpi_factory()])

    def test_finalize_with_a_running_kernel_raises_gpu_error(self):
        def main(ctx):
            cu = ctx.runtime.module("cuda")
            cu.kernel_async(lambda: None, flops=1e15)
            cu.kernel_async(lambda: None, flops=1e15)
            return None

        with pytest.raises(GpuError, match="cuda module finalized with 2 "
                                           "outstanding"):
            spmd_run(main, ClusterConfig(machine=machine("titan")),
                     module_factories=[cuda_factory()])

    def test_finalize_with_an_unfinished_write_raises_module_error(self):
        def main(ctx):
            ctx.runtime.module("checkpoint").checkpoint_async(
                "k", {"a": np.zeros(1 << 16)})
            return None

        nvm = MachineSpec(name="nvm-box", sockets=1, cores_per_socket=4,
                          nvm_bytes=1 << 30)
        with pytest.raises(ModuleError, match="checkpoint module finalized "
                                              "with 1 outstanding"):
            spmd_run(main, ClusterConfig(machine=nvm),
                     module_factories=[checkpoint_factory()])
