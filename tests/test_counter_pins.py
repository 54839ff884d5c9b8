"""Counter pins: every counter and histogram a reader sees, as literal data.

The hot owners (the fabric mux, the SHMEM backend, the runtime and its
workers, the polling services, the MPI backend, the CUDA module) keep plain integer tallies
that :class:`~repro.util.stats.RuntimeStats` reads only when asked. These
tests hold what a reader sees — ``merged_stats().to_dict()``'s ``counters``
and ``histograms`` of four smoke-size runs — bit for bit, JSON types
included, and count the calls that still push into the registry.
"""

import json

import pytest

from repro.apps.registry import APPS
from repro.util.stats import RuntimeStats
from repro.verify.invariants import check_quiesce

PINS = {
    ("isx", "flat"): {
        "counters": {
            "core.pop": 44,
            "core.resume": 75,
            "core.steal": 47,
            "core.suspend": 75,
            "core.tasks_completed": 16,
            "core.tasks_spawned": 4,
            "shmem-ctl.bytes_sent": 0,
            "shmem-ctl.msgs_matched": 24,
            "shmem-ctl.msgs_received": 24,
            "shmem-ctl.msgs_sent": 24,
            "shmem.amos": 16,
            "shmem.barrier_all": 12,
            "shmem.bufpool_misses": 16,
            "shmem.bytes_sent": 50048,
            "shmem.fadd": 16,
            "shmem.msgs_received": 48,
            "shmem.msgs_sent": 48,
            "shmem.put": 16,
            "shmem.puts": 16,
            "shmem.tasks_spawned": 12,
        },
        "histograms": {
            "shmem-ctl.msg_size": {
                "n": 24, "mean": 0.0, "max": 0.0,
                "buckets": {"0": 24}},
            "shmem.msg_size": {
                "n": 48, "mean": 1042.6666666666667, "max": 3240,
                "buckets": {"12": 16, "6": 32}},
        },
    },
    ("uts", "shmem_omp"): {
        "counters": {
            "core.pop": 341,
            "core.resume": 2154,
            "core.steal": 2468,
            "core.suspend": 2154,
            "core.tasks_completed": 655,
            "core.tasks_spawned": 313,
            "shmem-ctl.bytes_sent": 0,
            "shmem-ctl.msgs_matched": 16,
            "shmem-ctl.msgs_received": 16,
            "shmem-ctl.msgs_sent": 16,
            "shmem-ctl.msgs_unexpected": 2,
            "shmem.add": 5,
            "shmem.amos": 1597,
            "shmem.async_when": 1,
            "shmem.barrier_all": 8,
            "shmem.bufpool_misses": 8,
            "shmem.bytes_sent": 167528,
            "shmem.clear_lock": 78,
            "shmem.fadd": 1,
            "shmem.get": 159,
            "shmem.gets": 159,
            "shmem.msgs_received": 3515,
            "shmem.msgs_sent": 3515,
            "shmem.put": 8,
            "shmem.puts": 8,
            "shmem.quiet": 4,
            "shmem.set_lock": 78,
            "shmem.tasks_spawned": 342,
            "shmem.wait_until": 5,
        },
        "histograms": {
            "shmem-ctl.msg_size": {
                "n": 16, "mean": 0.0, "max": 0.0,
                "buckets": {"0": 16}},
            "shmem.msg_size": {
                "n": 3515, "mean": 47.66088193456614, "max": 1392,
                "buckets": {"10": 2, "11": 1, "6": 3511, "9": 1}},
        },
    },
    ("geo", "hiper"): {
        "counters": {
            "core.pop": 268,
            "core.resume": 30,
            "core.steal": 224,
            "core.suspend": 30,
            "core.tasks_completed": 462,
            "core.tasks_spawned": 60,
            "cuda.bytes_d2h": 44800,
            "cuda.bytes_h2d": 57600,
            "cuda.futures_satisfied": 88,
            "cuda.kernel": 16,
            "cuda.kernel_await": 16,
            "cuda.memcpy_d2h": 36,
            "cuda.memcpy_h2d": 36,
            "cuda.poll_kicks": 56,
            "cuda.poll_sweeps": 232,
            "cuda.tasks_spawned": 232,
            "mpi.bytes_sent": 24000,
            "mpi.futures_satisfied": 60,
            "mpi.irecv": 30,
            "mpi.isend": 30,
            "mpi.msgs_matched": 30,
            "mpi.msgs_received": 30,
            "mpi.msgs_sent": 30,
            "mpi.poll_kicks": 60,
            "mpi.poll_sweeps": 170,
            "mpi.tasks_spawned": 170,
        },
        "histograms": {
            "cuda.xfer_size": {
                "n": 72, "mean": 1422.2222222222222, "max": 8000,
                "buckets": {"10": 64, "13": 8}},
            "mpi.msg_size": {
                "n": 30, "mean": 800.0, "max": 800,
                "buckets": {"10": 30}},
        },
    },
    ("hpgmg", "hiper"): {
        "counters": {
            "core.pop": 375,
            "core.resume": 712,
            "core.steal": 975,
            "core.suspend": 712,
            "core.tasks_completed": 638,
            "core.tasks_spawned": 196,
            "mpi.allreduce": 28,
            "mpi.bytes_sent": 13056,
            "mpi.gather": 24,
            "mpi.msgs_matched": 78,
            "mpi.msgs_received": 78,
            "mpi.msgs_sent": 78,
            "mpi.scatter": 24,
            "mpi.tasks_spawned": 76,
            "upcxx.bytes_sent": 430416,
            "upcxx.msgs_received": 1464,
            "upcxx.msgs_sent": 1464,
            "upcxx.rpc": 366,
            "upcxx.rpc_in": 366,
            "upcxx.rput": 366,
            "upcxx.tasks_spawned": 366,
        },
        "histograms": {
            "mpi.msg_size": {
                "n": 78, "mean": 167.3846153846154, "max": 512,
                "buckets": {"10": 18, "7": 60}},
            "upcxx.msg_size": {
                "n": 1464, "mean": 294.0, "max": 840,
                "buckets": {"10": 366, "6": 732, "9": 366}},
        },
    },
}


def _run(app, variant):
    _answer, res = APPS[app].run(variant)
    for ctx in res.contexts:
        report = check_quiesce(ctx.runtime)
        assert report.ok, report.describe()
    return res


@pytest.mark.parametrize("app,variant", list(PINS),
                         ids=[f"{a}-{v}" for a, v in PINS])
def test_merged_counters_and_histograms_pinned(app, variant):
    d = _run(app, variant).merged_stats().to_dict()
    got = {"counters": d["counters"], "histograms": d["histograms"]}
    # Compared as JSON so an int that turns into a float (a histogram max,
    # a byte count) is caught too.
    assert (json.dumps(got, sort_keys=True)
            == json.dumps(PINS[(app, variant)], sort_keys=True))


@pytest.mark.parametrize("app,variant", [("isx", "flat"),
                                         ("uts", "shmem_omp"),
                                         ("geo", "hiper")],
                         ids=["isx-flat", "uts-shmem_omp", "geo-hiper"])
def test_hot_paths_push_nothing(app, variant, monkeypatch):
    """Flat ISx, lock-based UTS and the MPI+CUDA stencil count every
    message, put, get, atomic, copy, kernel, pop and steal, yet none of that
    goes through ``count`` or ``observe``: the owners keep integers (and
    size histograms) and the registry pulls them."""
    calls = {"count": 0, "observe": 0}

    def wrap(name):
        inner = getattr(RuntimeStats, name)

        def counted(self, *args):
            calls[name] += 1
            return inner(self, *args)
        monkeypatch.setattr(RuntimeStats, name, counted)

    wrap("count")
    wrap("observe")
    res = _run(app, variant)
    assert calls == {"count": 0, "observe": 0}
    d = res.merged_stats().to_dict()
    assert d["counters"] == PINS[(app, variant)]["counters"]
    assert d["histograms"] == PINS[(app, variant)]["histograms"]
