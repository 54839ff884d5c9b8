"""Layer budget from the outside: attribute a traced run's host time to the
repo's packages without editing anything under ``src/``.

The interpreter's profile hook (``cProfile``) already sees every call and
return. A *span* opens whenever control enters a function of another
layer's package and closes on return; a layer's **self time** is its spans'
duration minus the child spans inside them. With the profiler's per-function
``tottime`` that is simply the sum over the layer's own functions, plus the
time of C/builtin callees charged to the calling frame's layer through the
profiler's caller table — so the layers partition the traced wall and
``trace.coverage`` (sum of self times over traced wall) reads 1.00.

``cProfile`` taxes every Python call but not the work inside native code, so
shares shift towards call-heavy layers; end-to-end numbers therefore never
come from a traced run, and ``trace.overhead_ratio`` states the tax.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from typing import Dict, Tuple

#: Layer -> path prefixes under ``src/repro/``; first match wins, so the
#: single-file layers come before the packages that contain them.
LAYER_PATHS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("exec.eventq", ("exec/eventq.py",)),
    ("exec.shards", ("exec/shards.py", "net/shardfabric.py")),
    ("exec.sim", ("exec/",)),
    ("runtime", ("runtime/", "modules/")),
    ("net", ("net/",)),
    ("shmem", ("shmem/",)),
    ("mpi", ("mpi/",)),
    ("upcxx", ("upcxx/",)),
    ("cuda", ("cuda/",)),
    # verify/ holds the digest workload bodies the gateway and the sharded
    # run execute (isx_workload, isx_exchange_factory): app code by role.
    ("apps", ("apps/", "verify/", "bench/")),
    ("taskgraph", ("taskgraph/",)),
    ("service", ("service/",)),
    ("distrib", ("distrib/",)),
    ("platform", ("platform/",)),
    # everything else in the package (util, resilience snapshots, io, ...)
    ("util", ("",)),
)

#: Every layer, ``ext`` included.
LAYERS: Tuple[str, ...] = tuple(name for name, _ in LAYER_PATHS) + ("ext",)
#: These do their work in other processes (daemon, shard children): their
#: budget comes from job documents and shard counters, not from here. What
#: little of them runs in the traced process still counts towards coverage.
OUT_OF_PROCESS = ("service", "exec.shards")


def layer_of(filename: str, package_root: str) -> str:
    """The layer owning ``filename``; ``ext`` for anything outside
    ``src/repro`` (stdlib, numpy's Python frames, the benchmark's own)."""
    if not filename.startswith(package_root):
        return "ext"
    rel = filename[len(package_root):].lstrip(os.sep).replace(os.sep, "/")
    for layer, prefixes in LAYER_PATHS:
        if rel.startswith(prefixes):
            return layer
    raise AssertionError("unreachable: the util layer matches every path")


class LayerProfile:
    """Profile one timed region and fold the result into per-layer metrics."""

    def __init__(self, package_root: str):
        self.package_root = os.path.join(os.path.realpath(package_root), "")
        self._prof = cProfile.Profile()
        self.wall_s = 0.0

    def __enter__(self) -> "LayerProfile":
        self._t0 = time.perf_counter()
        self._prof.enable()
        return self

    def __exit__(self, *exc) -> None:
        self._prof.disable()
        self.wall_s = time.perf_counter() - self._t0

    def metrics(self) -> Dict[str, float]:
        """``<layer>.self_s`` / ``<layer>.calls`` for every in-process
        layer, plus ``trace.wall_s`` and ``trace.coverage``."""
        stats = pstats.Stats(self._prof).stats
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        cache: Dict[str, str] = {}

        def layer(func) -> str:
            # '~' is the profiler's file name for C/builtin functions: they
            # have no layer of their own (charged to their caller below).
            fname = func[0]
            if fname == "~":
                return "ext"
            if fname not in cache:
                cache[fname] = layer_of(os.path.realpath(fname),
                                        self.package_root)
            return cache[fname]

        for func, (_cc, ncalls, tottime, _ct, callers) in stats.items():
            if func[0] == "~":
                # C time goes to the layer of each calling frame, by the
                # caller table's per-edge tottime.
                charged = 0.0
                for caller, (_n, _c, edge_tt, _e) in callers.items():
                    self_s[layer(caller)] += edge_tt
                    charged += edge_tt
                self_s["ext"] += tottime - charged
                continue
            mine = layer(func)
            self_s[mine] += tottime
            if not callers:
                calls[mine] += ncalls  # a root of the traced region
            for caller, (edge_calls, _c, _t, _e) in callers.items():
                if layer(caller) != mine:
                    calls[mine] += edge_calls  # a span opens: layer entered
        out: Dict[str, float] = {}
        for name in LAYERS:
            if name in OUT_OF_PROCESS:
                continue
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.calls"] = calls[name]
        out["trace.wall_s"] = self.wall_s
        out["trace.coverage"] = (sum(self_s.values()) / self.wall_s
                                 if self.wall_s > 0 else 0.0)
        return out
