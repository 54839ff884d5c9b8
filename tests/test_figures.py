"""The figure table: every paper figure defined once, for the figure
commands, ``profile``, ``chaos`` and the figure benches. These checks run
no simulation."""

import os
import subprocess
import sys

import pytest

from repro.apps.figures import FIGURES
from repro.apps.registry import APPS


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_every_series_is_a_registry_variant(name):
    fig = FIGURES[name]
    app = APPS[fig.app]
    for variant, layout, cfg in fig.series:
        assert variant in app.variants
        assert layout in ("flat", "hybrid")
        assert type(cfg) is type(app.config)
    assert len({v for v, _, _ in fig.series}) == len(fig.series)


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_profile_target_runs_the_preset_config(name):
    fig = FIGURES[name]
    cfg = fig.profile(0.25)
    assert type(cfg) is type(APPS[fig.app].config)
    _main, cluster, modules, target_cfg = fig.target(0.25)
    assert target_cfg == cfg and cluster.nodes == 2 and modules


def test_the_parser_imports_no_registry_or_module_backend():
    # `repro serve` builds the parser; its start-up must not pay for them.
    code = ("import sys, repro.cli as c; c.build_parser(); "
            "print(sorted(m for m in ('repro.apps.registry', 'repro.mpi', "
            "'repro.cuda', 'repro.upcxx') if m in sys.modules))")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "[]"
