"""The paper's five applications, each defined once for every entry point.

``repro run`` and ``validate``, the figures (:mod:`repro.apps.figures`),
the SPMD differential (:func:`repro.verify.spmd_differential`) and the
gateway's ``procs`` jobs all take an app from :data:`APPS`: its rank main
and variants, the modules a variant runs on, the platform it is measured
on, a small config, and ``answer`` — the app's own oracle, which returns a
value that every variant and every back end must agree on:

- **ISx** — the per-PE sorted buckets, digested in PE order;
- **UTS** — the total node count (per-rank counts depend on stealing);
- **Graph500** — the number of reached vertices once the BFS tree
  validates (the tree itself is not unique);
- **GEO** — a digest of the final fields;
- **HPGMG-FV** — a digest of the residual history, which must fall by
  10x every two V-cycles.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.apps import geo, graph500, hpgmg, isx, uts
from repro.bench.harness import cluster_for
from repro.cuda import cuda_factory
from repro.mpi import mpi_factory
from repro.shmem import shmem_factory
from repro.upcxx import upcxx_factory
from repro.util.errors import ConfigError


def _digest(arrays: Sequence[Any]) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(np.int64(a.size).tobytes())
        h.update(a.tobytes())
    return h.hexdigest()


def _isx_answer(cfg: isx.IsxConfig, results: List[Any]) -> Tuple:
    isx.validate_isx(cfg, len(results), results)
    return ("isx", sum(int(r.size) for r in results), _digest(results))


#: The serial walk is the slow part of UTS's oracle, and figure sweeps ask
#: it about one tree once per point.
_uts_count = functools.lru_cache(maxsize=16)(uts.sequential_count)


def _uts_answer(cfg: uts.UtsConfig, results: List[Any]) -> Tuple:
    total, want = sum(results), _uts_count(cfg)
    if total != want:
        raise AssertionError(
            f"UTS counted {total} nodes, the sequential walk {want}")
    return ("uts", int(total))


def _graph500_answer(cfg: graph500.Graph500Config,
                     results: List[Any]) -> Tuple:
    parent = np.concatenate(results)   # rank blocks in vertex order
    edges = graph500.kronecker_edges(cfg)
    rows, _ = graph500.build_csr(edges, cfg.nvertices)
    reached = graph500.validate_bfs(cfg, edges, graph500.pick_root(cfg, rows),
                                    parent)
    return ("graph500", int(reached))


def _geo_answer(cfg: geo.GeoConfig, results: List[Any]) -> Tuple:
    geo.check_result(cfg, results)
    return ("geo", _digest(results))


def _hpgmg_answer(cfg: hpgmg.HpgmgConfig, results: List[Any]) -> Tuple:
    history = results[0][0]
    if not history[-1] < history[0] * 10 ** (-cfg.cycles / 2):
        raise AssertionError(
            f"HPGMG residual fell only {history[0]:.3e} -> {history[-1]:.3e} "
            f"in {cfg.cycles} V-cycles (it must fall 10x every two)")
    return ("hpgmg", len(history) - 1, _digest([np.asarray(history)]))


@dataclasses.dataclass(frozen=True)
class App:
    """One paper application, as every entry point runs it."""

    name: str
    #: ``main(variant, cfg)`` -> a picklable rank main
    main: Callable[[str, Any], Callable]
    #: variant name -> the module-level function its rank main runs
    variants: Dict[str, Callable]
    #: variant -> the module factories its ranks start with
    modules: Callable[[str], List[Callable]]
    #: paper platform (``repro.bench.PLATFORMS``)
    platform: str
    #: the small config ``validate`` runs
    config: Any
    #: ``answer(cfg, per-rank results)``: the oracle; raises on a wrong run
    answer: Callable[[Any, List[Any]], Tuple]

    def cluster(self, ranks: int = 4, workers: int = 2):
        """``ranks`` nodes of the app's platform, one rank of ``workers``
        workers on each."""
        return cluster_for(self.platform, ranks, layout="hybrid",
                           workers_cap=workers)

    def run(self, variant: str, cluster=None, *, cfg: Any = None,
            executor=None, modules: Optional[List[Callable]] = None):
        """Run one variant on ``executor``'s back end (default: sim) and
        check it; returns ``(answer, SpmdResult)``."""
        from repro import distrib

        cfg = self.config if cfg is None else cfg
        res = distrib.spmd_run(
            self.main(variant, cfg), cluster or self.cluster(),
            module_factories=self.modules(variant) if modules is None
            else modules,
            executor=executor)
        return self.answer(cfg, res.results), res


APPS: Dict[str, App] = {
    "isx": App(
        "isx", isx.isx_main, isx.VARIANTS,
        lambda v: [shmem_factory(direct=True) if v == "flat"
                   else shmem_factory()],
        "titan", isx.IsxConfig(keys_per_pe=1500), _isx_answer),
    "uts": App(
        "uts", uts.uts_main, uts.VARIANTS,
        lambda v: [shmem_factory()],
        "titan", uts.UtsConfig(root_children=200, mean_children=0.9),
        _uts_answer),
    "graph500": App(
        "graph500", graph500.graph500_main, graph500.VARIANTS,
        lambda v: [mpi_factory(), shmem_factory()],
        "edison", graph500.Graph500Config(scale=8), _graph500_answer),
    "geo": App(
        "geo", geo.geo_main, geo.VARIANTS,
        lambda v: [mpi_factory(), cuda_factory()],
        "titan", geo.GeoConfig(nx=10, ny=10, nz=8, timesteps=4), _geo_answer),
    "hpgmg": App(
        "hpgmg", hpgmg.hpgmg_main, hpgmg.VARIANTS,
        lambda v: [mpi_factory(), upcxx_factory()],
        "titan",
        hpgmg.HpgmgConfig(box_dim=8, boxes_xy=1, boxes_z_per_rank=1, cycles=6),
        _hpgmg_answer),
}


def app(name: str) -> App:
    """The registry entry ``name``; a ConfigError lists the choices."""
    try:
        return APPS[name]
    except KeyError:
        raise ConfigError(
            f"unknown app {name!r}; choose from {sorted(APPS)}") from None
