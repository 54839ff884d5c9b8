"""The paper's figures (§III), each defined once — the app a figure plots,
its series, its metric and the preset config ``profile`` and ``chaos`` run —
for the figure commands, ``list``, ``profile``, ``chaos`` and the figure
benches. Every point runs through the app's registry entry and its oracle.
This module does not import the registry or a module back end: ``repro
serve`` builds the CLI parser, which reads the figure names."""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.apps import geo, graph500, hpgmg, isx, presets
from repro.bench.harness import Series, SweepResult, cluster_for, sweep


@dataclasses.dataclass(frozen=True)
class Figure:
    """One paper figure: the app it plots, its series — (variant, layout,
    config) each, named after the variant — and what it plots of a run."""

    app: str
    #: formatted with the first series' ``cfg`` and a run's ``answer``
    title: str
    series: Tuple[Tuple[str, str, Any], ...]
    #: scale -> the config of the HiPER run ``profile`` and ``chaos`` take
    profile: Callable[[float], Any]
    metric: Callable[[Any], float] = lambda r: r.makespan * 1e3
    unit: str = "ms"
    workers_cap: Optional[int] = None

    def run(self, variant: str, nodes: int):
        """One point of series ``variant``, checked by the app's oracle;
        returns ``(answer, SpmdResult)``."""
        from repro.apps.registry import APPS

        app = APPS[self.app]
        layout, cfg = {v: (lay, c) for v, lay, c in self.series}[variant]
        return app.run(variant, cluster_for(
            app.platform, nodes, layout=layout, workers_cap=self.workers_cap),
            cfg=cfg)

    def sweep(self, nodes: Sequence[int]) -> SweepResult:
        """Every series over ``nodes``: the figure's table."""
        answers: List[Any] = []

        def point(variant: str, n: int):
            answer, res = self.run(variant, n)
            answers.append(answer)
            return res

        sw = sweep(self.title, [Series(v, functools.partial(point, v))
                                for v, _, _ in self.series],
                   nodes, metric=self.metric, unit=self.unit)
        sw.title = self.title.format(cfg=self.series[0][2], answer=answers[-1])
        return sw

    def target(self, scale: float):
        """The HiPER run ``profile`` and ``chaos`` take, on two nodes:
        ``(main, cluster, module factories, config)``."""
        from repro.apps.registry import APPS

        app, cfg = APPS[self.app], self.profile(scale)
        return (app.main("hiper", cfg),
                cluster_for(app.platform, 2, layout="hybrid",
                            workers_cap=self.workers_cap),
                app.modules("hiper"), cfg)


def _hybrids(cfg: Any, *variants: str) -> Tuple[Tuple[str, str, Any], ...]:
    return tuple((v, "hybrid", cfg) for v in variants)


_KEYS, _BYTE_SCALE, _CORES = 1 << 11, 1 << 7, 16   # ISx: per core, Titan
_MG = hpgmg.HpgmgConfig(box_dim=8, boxes_xy=2, boxes_z_per_rank=2, cycles=4)

FIGURES: Dict[str, Figure] = {
    "fig4": Figure(
        "hpgmg", "Fig 4 — HPGMG-FV weak scaling (MDOF/s, higher is better)",
        _hybrids(_MG, "reference", "hiper"),
        lambda s: dataclasses.replace(presets.hpgmg_paper(s), cycles=4),
        metric=lambda r: (_MG.nz_local * _MG.nx * _MG.ny * r.nranks
                          * _MG.cycles / r.makespan / 1e6),
        unit="MDOF/s"),
    "fig5": Figure(
        "isx", "Fig 5 — ISx weak scaling (ms)",
        (("flat", "flat",
          isx.IsxConfig(keys_per_pe=_KEYS, byte_scale=_BYTE_SCALE)),)
        + _hybrids(isx.IsxConfig(keys_per_pe=_KEYS * _CORES,
                                 byte_scale=_BYTE_SCALE), "hybrid", "hiper"),
        presets.isx_weak_scaling),
    "fig6": Figure(
        "geo", "Fig 6 — GEO weak scaling (ms)",
        _hybrids(geo.GeoConfig(nx=48, ny=48, nz=48, timesteps=4),
                 "mpi_omp", "mpi_cuda", "hiper"),
        presets.geo_weak_scaling),
    "fig7": Figure(
        "uts", "Fig 7 — UTS strong scaling (ms, tree={answer[1]} nodes)",
        _hybrids(presets.uts_t1xxl(), "shmem_omp", "omp_tasks", "hiper"),
        presets.uts_t1xxl),
    "g500": Figure(
        "graph500", "Graph500 strong scaling (ms, scale={cfg.scale})",
        _hybrids(graph500.Graph500Config(scale=12), "mpi", "hiper"),
        lambda s: presets.graph500_reference(10), workers_cap=8),
}
